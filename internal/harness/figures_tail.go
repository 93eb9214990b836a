package harness

import (
	"fmt"
	"io"

	"jumanji/internal/core"
	"jumanji/internal/feedback"
	"jumanji/internal/stats"
	"jumanji/internal/system"
)

// Fig8Point is one allocation of the Fig. 8 sweep.
type Fig8Point struct {
	AllocMB                      float64
	NormTailSNUCA, NormTailDNUCA float64
}

// Fig8 reproduces the tail-latency vs. allocation sweep: xapian alone at
// high load with fixed allocations, placed S-NUCA (way-partitioned stripe)
// vs D-NUCA (nearest banks). Each sweep point is one worker-pool cell; the
// workload build is deterministic (nil rng) and arrivals keep the base seed
// at every point, as in the serial protocol.
func Fig8(o Options) ([]Fig8Point, error) {
	allocs := []float64{0.25, 0.5, 0.75, 1, 1.25, 1.5, 1.75, 2, 2.5, 3, 4, 5, 6, 8, 10}
	return runCells(o, "fig8", len(allocs), func(i int, co Options) Fig8Point {
		cfg := co.systemConfig()
		cfg.Seed = o.Seed
		wl, err := system.BuildVMWorkload(cfg.Machine, []system.VMSpec{{LatCrit: []string{"xapian"}}}, nil, true)
		if err != nil {
			panic(err)
		}
		mb := allocs[i]
		s := system.RunFixedLat(cfg, wl, mb*(1<<20), false, o.Epochs, o.Warmup)
		d := system.RunFixedLat(cfg, wl, mb*(1<<20), true, o.Epochs, o.Warmup)
		return Fig8Point{AllocMB: mb, NormTailSNUCA: s.Apps[0].NormTail, NormTailDNUCA: d.Apps[0].NormTail}
	})
}

// RenderFig8 prints the sweep.
func RenderFig8(w io.Writer, pts []Fig8Point) {
	header(w, "Fig. 8", "xapian p95 / deadline vs. fixed LLC allocation. D-NUCA meets the deadline with less space; small allocations blow the tail up.")
	fmt.Fprintf(w, "%-10s %14s %14s\n", "alloc MB", "S-NUCA", "D-NUCA")
	for _, p := range pts {
		fmt.Fprintf(w, "%-10.2f %14.2f %14.2f\n", p.AllocMB, p.NormTailSNUCA, p.NormTailDNUCA)
	}
}

// Fig9Row is one controller parameterization's outcome.
type Fig9Row struct {
	Label         string
	Speedup       float64 // gmean batch weighted speedup vs Static
	WorstNormTail float64
}

// Fig9 reproduces the controller sensitivity study: the Fig. 5 workload
// under Jumanji while varying the target band, panic threshold, and step
// size one at a time (paper defaults bolded in the labels).
func Fig9(o Options) ([]Fig9Row, error) {
	type variant struct {
		label  string
		mutate func(*feedback.Params)
	}
	variants := []variant{
		{"band 0.75-0.85", func(p *feedback.Params) { p.TargetLow, p.TargetHigh = 0.75, 0.85 }},
		{"band 0.85-0.95 *", func(p *feedback.Params) {}},
		{"band 0.90-0.99", func(p *feedback.Params) { p.TargetLow, p.TargetHigh = 0.90, 0.99 }},
		{"panic 1.05", func(p *feedback.Params) { p.PanicAt = 1.05 }},
		{"panic 1.10 *", func(p *feedback.Params) {}},
		{"panic 1.25", func(p *feedback.Params) { p.PanicAt = 1.25 }},
		{"step 0.05", func(p *feedback.Params) { p.Step = 0.05 }},
		{"step 0.10 *", func(p *feedback.Params) {}},
		{"step 0.20", func(p *feedback.Params) { p.Step = 0.20 }},
	}
	// Flatten variants × mixes into one cell grid; the mix seeds come from
	// the Fig. 5 case-study label, so every variant (and Fig. 5 itself) sees
	// the same workloads.
	b := caseStudyBuilder("xapian", true)
	// Exported fields: cell results are gob-encoded into the crash journal.
	type cellOut struct{ Speedup, Tail float64 }
	cells, err := runCells(o, "fig9", len(variants)*o.Mixes, func(i int, co Options) cellOut {
		v, mix := variants[i/o.Mixes], i%o.Mixes
		cfg := co.systemConfig()
		v.mutate(&cfg.Feedback)
		cfgMix := cfg
		wl, seed := buildMix(b, cfg.Machine, o.Seed, mix)
		cfgMix.Seed = seed
		static := system.Run(cfgMix, wl, core.StaticPlacer{}, o.Epochs, o.Warmup)
		ju := system.Run(cfgMix, wl, core.JumanjiPlacer{}, o.Epochs, o.Warmup)
		return cellOut{Speedup: ju.BatchWeightedSpeedup / static.BatchWeightedSpeedup, Tail: ju.WorstNormTail}
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig9Row, 0, len(variants))
	for vi, v := range variants {
		var speedups, tails []float64
		for mix := 0; mix < o.Mixes; mix++ {
			c := cells[vi*o.Mixes+mix]
			speedups = append(speedups, c.Speedup)
			tails = append(tails, c.Tail)
		}
		rows = append(rows, Fig9Row{
			Label:         v.label,
			Speedup:       stats.Gmean(speedups),
			WorstNormTail: stats.Max(tails),
		})
	}
	return rows, nil
}

// RenderFig9 prints the sensitivity table.
func RenderFig9(w io.Writer, rows []Fig9Row) {
	header(w, "Fig. 9", "Controller parameter sensitivity under Jumanji (paper defaults marked *). Results should vary little across values.")
	fmt.Fprintf(w, "%-20s %14s %16s\n", "parameters", "gmean speedup", "worst tail/ddl")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %14.3f %16.2f\n", r.Label, r.Speedup, r.WorstNormTail)
	}
}
