package driver

import (
	"fmt"
	"io"
	"math"

	"jumanji/internal/core"
	"jumanji/internal/topo"
	"jumanji/internal/trace"
)

// ValidationRow compares, for one application, what the analytic epoch
// model predicts from the placement against what the detailed trace-driven
// hierarchy actually measured.
type ValidationRow struct {
	App           string
	AllocMB       float64
	PredictedMiss float64 // hulled UMON curve at the effective allocation
	MeasuredMiss  float64 // LLC misses / LLC accesses in the hierarchy
	PredictedHops float64 // capacity-weighted placement distance
	MeasuredHops  float64 // NoC hops actually traversed per LLC access
	MissError     float64 // |predicted - measured|
	HopsError     float64
	// LLCShare is the fraction of the app's accesses that reached the LLC.
	// When private caches filter nearly everything, the LLC miss ratio is
	// a ratio of near-zeros and carries no performance signal.
	LLCShare float64
}

// ValidateDriver runs the detailed simulator d for `epochs` reconfiguration
// epochs and cross-checks the analytic model's two load-bearing predictions —
// miss ratio at the granted allocation, and average hop distance — against
// ground truth. This is the evidence that the epoch model used for the big
// sweeps (internal/system) predicts what the detailed hierarchy does. The
// caller keeps d for anything it reads afterwards (e.g. cmd/validate's
// counter cross-check).
func ValidateDriver(d *Driver, epochs int) []ValidationRow {
	cfg := d.cfg
	var last EpochStats
	for e := 0; e < epochs; e++ {
		last = d.RunEpoch()
	}
	pl := d.Placement()
	rows := make([]ValidationRow, len(cfg.Apps))
	for i, a := range cfg.Apps {
		s := last.PerApp[i]
		// The model's prediction mirrors internal/system's epoch model:
		// the convex hull of the UMON curve (the paper's DRRIP
		// approximation, Sec. IV-A) evaluated at the allocation scaled by
		// the associativity factor w/(w+1).
		curve := d.MeasuredCurve(i).ConvexHull()
		alloc := pl.TotalOf(core.AppID(i))
		ways := pl.MeanWays(core.AppID(i))
		eff := alloc * ways / (ways + 1)
		row := ValidationRow{
			App:           a.Name,
			AllocMB:       alloc / (1 << 20),
			PredictedMiss: curve.Eval(eff),
			MeasuredMiss:  s.LLCMissRatio,
			PredictedHops: pl.AvgHops(core.AppID(i), a.Core),
			MeasuredHops:  s.AvgHops,
		}
		if s.Accesses > 0 {
			row.LLCShare = float64(s.LLCHits+s.MemLoads) / float64(s.Accesses)
		}
		row.MissError = math.Abs(row.PredictedMiss - row.MeasuredMiss)
		row.HopsError = math.Abs(row.PredictedHops - row.MeasuredHops)
		rows[i] = row
	}
	return rows
}

// RenderValidation prints the comparison table.
func RenderValidation(w io.Writer, rows []ValidationRow) {
	fmt.Fprintf(w, "%-12s %9s %10s %11s %11s %10s %10s\n",
		"app", "alloc MB", "LLC share", "miss(pred)", "miss(meas)", "hops(pred)", "hops(meas)")
	for _, r := range rows {
		note := ""
		if r.LLCShare < 0.02 {
			note = "  (L2-resident: miss ratio carries no weight)"
		}
		fmt.Fprintf(w, "%-12s %9.2f %10.3f %11.3f %11.3f %10.2f %10.2f%s\n",
			r.App, r.AllocMB, r.LLCShare, r.PredictedMiss, r.MeasuredMiss, r.PredictedHops, r.MeasuredHops, note)
	}
}

// StandardValidationConfig builds the canonical cross-check workload: four
// applications with distinct, analytically-understood reuse patterns on the
// small machine used by the driver tests.
func StandardValidationConfig(placer core.Placer) Config {
	m := core.Machine{Mesh: topo.NewMesh(2, 2), BankBytes: 256 << 10, WaysPerBank: 8}
	app := func(name string, c topo.TileID, g func(base uint64) trace.Generator, footprint uint64) App {
		base := uint64(c+1) << 32
		return App{
			Name: name, VM: core.VMID(c), Core: c,
			Gen:              g(base),
			Base:             base,
			Footprint:        footprint,
			AccessesPerEpoch: 80000,
		}
	}
	return Config{
		Machine: m,
		Placer:  placer,
		Apps: []App{
			app("workingset", 0, func(b uint64) trace.Generator { return trace.NewWorkingSet(b, 2048, 64, 1) }, 2048*64),
			app("scan", 1, func(b uint64) trace.Generator { return trace.NewSequential(b, 512<<10, 64) }, 512<<10),
			app("zipf", 2, func(b uint64) trace.Generator { return trace.NewZipf(b, 8192, 64, 1.4, 2) }, 8192*64),
			app("chase", 3, func(b uint64) trace.Generator { return trace.NewPointerChase(b, 1024, 64, 3) }, 1024*64),
		},
		UMONSamplePeriod: 8,
	}
}
