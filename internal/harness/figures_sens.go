package harness

import (
	"fmt"
	"io"
	"math/rand"

	"jumanji/internal/core"
	"jumanji/internal/sim"
	"jumanji/internal/stats"
	"jumanji/internal/system"
)

// Fig16Row compares Jumanji against its Insecure and Ideal-Batch variants
// on one workload configuration.
type Fig16Row struct {
	Workload string
	HighLoad bool
	// Gmean speedups vs Static across mixes.
	Jumanji, Insecure, IdealBatch float64
}

// Fig16 reproduces the variant study: Jumanji should be within a few
// percent of Insecure (bank isolation is cheap) and of Ideal Batch (the
// greedy placement is nearly optimal).
func Fig16(o Options) ([]Fig16Row, error) {
	var rows []Fig16Row
	for _, high := range []bool{true, false} {
		for _, lc := range append(LCNames(), "Mixed") {
			sums, err := runMixes(o, workloadBuilder(lc, high), variantPlacers())
			if err != nil {
				return nil, err
			}
			row := Fig16Row{Workload: lc, HighLoad: high}
			for _, s := range sums {
				g := gmeanOfBox(s.Speedup)
				switch s.Design {
				case "Jumanji":
					row.Jumanji = g
				case "Jumanji: Insecure":
					row.Insecure = g
				case "Jumanji: Ideal Batch":
					row.IdealBatch = g
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// gmeanOfBox approximates the gmean by the median of the distribution
// summary (runMixes keeps the box; for gmean-grade precision the per-mix
// samples would be carried instead, which Fig. 16 does not need).
func gmeanOfBox(b stats.BoxPlot) float64 { return b.Median }

// RenderFig16 prints the variant comparison.
func RenderFig16(w io.Writer, rows []Fig16Row) {
	header(w, "Fig. 16", "Batch speedup vs Static: Jumanji vs Insecure (no bank isolation) vs Ideal Batch (no latency-critical competition).")
	fmt.Fprintf(w, "%-12s %-6s %10s %10s %12s\n", "workload", "load", "Jumanji", "Insecure", "IdealBatch")
	for _, r := range rows {
		load := "low"
		if r.HighLoad {
			load = "high"
		}
		fmt.Fprintf(w, "%-12s %-6s %10.3f %10.3f %12.3f\n", r.Workload, load, r.Jumanji, r.Insecure, r.IdealBatch)
	}
}

// Fig17Row is one VM-count configuration's Jumanji speedup.
type Fig17Row struct {
	VMs     int
	Label   string
	Speedup float64 // gmean vs Static across mixes
}

// Fig17 reproduces the VM-scaling study: the same 20 applications split
// into 1–12 trust domains. Jumanji's speedup should degrade only slightly
// as isolation constraints tighten.
func Fig17(o Options) ([]Fig17Row, error) {
	configs := []struct {
		vms   int
		label string
	}{
		{1, "1x(4LC+16B)"},
		{2, "2x(2LC+8B)"},
		{4, "4x(1LC+4B)"},
		{5, "4x(1LC+3B)+1x(4B)"},
		{10, "4x(1LC+1B)+6x(2B)"},
		{12, "4x(1LC)+8x(2B)"},
	}
	rows := make([]Fig17Row, 0, len(configs))
	for _, c := range configs {
		builder := mixBuilder{
			label: fmt.Sprintf("scaling/%d/high", c.vms),
			build: func(m core.Machine, rng *rand.Rand) (system.Workload, error) {
				return system.ScalingWorkload(m, c.vms, rng, true)
			},
		}
		sums, err := runMixes(o, builder, []core.Placer{core.StaticPlacer{}, core.JumanjiPlacer{}})
		if err != nil {
			return nil, err
		}
		row := Fig17Row{VMs: c.vms, Label: c.label}
		for _, s := range sums {
			if s.Design == "Jumanji" {
				row.Speedup = s.Speedup.Median
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFig17 prints the scaling table.
func RenderFig17(w io.Writer, rows []Fig17Row) {
	header(w, "Fig. 17", "Jumanji batch speedup vs Static as the application set splits into more VMs.")
	fmt.Fprintf(w, "%-6s %-22s %10s\n", "VMs", "configuration", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6d %-22s %10.3f\n", r.VMs, r.Label, r.Speedup)
	}
}

// Fig18Row is one router-delay point.
type Fig18Row struct {
	RouterDelay int
	Speedup     float64 // Jumanji gmean vs Static
}

// Fig18 reproduces the NoC sensitivity study: Jumanji's advantage grows
// with router delay, since locality matters more on a slower NoC.
func Fig18(o Options) ([]Fig18Row, error) {
	// Flatten router delays × mixes into one cell grid. The mix seeds come
	// from the Fig. 13 "Mixed" label, so every delay point replays the same
	// workloads and only the NoC varies.
	rds := []int{1, 2, 3}
	b := mixedBuilder(true)
	cells, err := runCells(o, "fig18", len(rds)*o.Mixes, func(i int, co Options) float64 {
		rd, mix := rds[i/o.Mixes], i%o.Mixes
		cfg := co.systemConfig()
		cfg.NoC.RouterDelay = sim.Time(rd)
		wl, seed := buildMix(b, cfg.Machine, o.Seed, mix)
		cfg.Seed = seed
		static := system.Run(cfg, wl, core.StaticPlacer{}, o.Epochs, o.Warmup)
		ju := system.Run(cfg, wl, core.JumanjiPlacer{}, o.Epochs, o.Warmup)
		return ju.BatchWeightedSpeedup / static.BatchWeightedSpeedup
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig18Row, 0, len(rds))
	for ri, rd := range rds {
		rows = append(rows, Fig18Row{RouterDelay: rd, Speedup: stats.Gmean(cells[ri*o.Mixes : (ri+1)*o.Mixes])})
	}
	return rows, nil
}

// RenderFig18 prints the NoC sensitivity table.
func RenderFig18(w io.Writer, rows []Fig18Row) {
	header(w, "Fig. 18", "Jumanji speedup vs Static as NoC router delay varies (Table II default: 2 cycles).")
	fmt.Fprintf(w, "%-14s %10s\n", "router cycles", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14d %10.3f\n", r.RouterDelay, r.Speedup)
	}
}
