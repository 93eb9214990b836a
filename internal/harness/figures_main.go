package harness

import (
	"fmt"
	"io"

	"jumanji/internal/core"
	"jumanji/internal/energy"
	"jumanji/internal/system"
)

// Fig13Result is the main result: per workload configuration (each
// latency-critical app plus "Mixed", at high and low load), the per-design
// distributions of normalized tail latency and batch weighted speedup over
// the random batch mixes.
type Fig13Result struct {
	// Rows[workload][design]; workload labels in Workloads, matching order.
	Workloads []string
	HighLoad  []bool
	Rows      [][]DesignSummary
}

// Fig13 runs the full main-results protocol. With PaperOptions this is the
// heaviest experiment (the paper's version summarizes 969 trillion
// simulated cycles); QuickOptions keeps it in the tens of seconds.
func Fig13(o Options) (Fig13Result, error) {
	var res Fig13Result
	for _, high := range []bool{true, false} {
		for _, wl := range append(LCNames(), "Mixed") {
			sums, err := runMixes(o, workloadBuilder(wl, high), mainDesigns())
			if err != nil {
				return Fig13Result{}, err
			}
			res.Workloads = append(res.Workloads, wl)
			res.HighLoad = append(res.HighLoad, high)
			res.Rows = append(res.Rows, sums)
		}
	}
	return res, nil
}

// Render prints the per-workload box summaries.
func (r Fig13Result) Render(w io.Writer) {
	header(w, "Fig. 13", "Normalized tail latency and batch weighted speedup (vs. Static) over random batch mixes. Box plots as min/Q1/median/Q3/max.")
	for i, wl := range r.Workloads {
		load := "low"
		if r.HighLoad[i] {
			load = "high"
		}
		fmt.Fprintf(w, "--- %s (%s load) ---\n", wl, load)
		fmt.Fprintf(w, "%-22s %-44s %s\n", "design", "tail/deadline (box)", "speedup vs static (box)")
		for _, d := range r.Rows[i] {
			fmt.Fprintf(w, "%-22s %-44s %s\n", d.Design, d.NormTail.String(), d.Speedup.String())
		}
		fmt.Fprintln(w)
	}
}

// Fig14Row is one design's vulnerability (mean potential attackers per
// LLC access).
type Fig14Row struct {
	Design        string
	Vulnerability float64
}

// Fig14 reports each design's port-attack vulnerability averaged over the
// case-study mixes. The S-NUCA designs expose all 15 untrusted apps;
// Jigsaw's heuristic locality leaves a small residue; Jumanji is exactly 0.
func Fig14(o Options) ([]Fig14Row, error) {
	sums, err := runMixes(o, mixedBuilder(true), mainDesigns())
	if err != nil {
		return nil, err
	}
	rows := make([]Fig14Row, 0, len(sums))
	for _, s := range sums {
		rows = append(rows, Fig14Row{Design: s.Design, Vulnerability: s.Vulnerability})
	}
	return rows, nil
}

// RenderFig14 prints the vulnerability table.
func RenderFig14(w io.Writer, rows []Fig14Row) {
	header(w, "Fig. 14", "Vulnerability to port attacks: average number of applications from other VMs occupying the accessed bank.")
	fmt.Fprintf(w, "%-22s %14s\n", "design", "attackers/access")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %14.2f\n", r.Design, r.Vulnerability)
	}
}

// Fig15Row is one design's dynamic data-movement energy per kilo-instruction,
// split by component, plus the total normalized to Static.
type Fig15Row struct {
	Design                string
	L1, L2, LLC, NoC, Mem float64 // nJ per kilo-instruction
	TotalVsStatic         float64
}

// Fig15 reproduces the energy comparison at high load: D-NUCAs cut NoC and
// memory energy; the way-partitioned S-NUCAs pay extra misses. One worker-
// pool cell per mix; the per-mix breakdowns fold in mix order.
func Fig15(o Options) ([]Fig15Row, error) {
	placers := mainDesigns()
	b := caseStudyBuilder("xapian", true)
	cells, err := runCells(o, "fig15", o.Mixes, func(mix int, co Options) []energy.Breakdown {
		cfg := co.systemConfig()
		cfgMix := cfg
		wl, seed := buildMix(b, cfg.Machine, o.Seed, mix)
		cfgMix.Seed = seed
		perMix := make([]energy.Breakdown, len(placers))
		for i, p := range placers {
			r := system.Run(cfgMix, wl, p, o.Epochs, o.Warmup)
			perMix[i].Add(r.Energy.Scale(1000 / r.TotalInstructions))
		}
		return perMix
	})
	if err != nil {
		return nil, err
	}
	perKI := make([]energy.Breakdown, len(placers))
	for _, perMix := range cells {
		for i := range placers {
			perKI[i].Add(perMix[i])
		}
	}
	var staticTotal float64
	rows := make([]Fig15Row, len(placers))
	for i, p := range placers {
		b := perKI[i].Scale(1 / float64(o.Mixes))
		rows[i] = Fig15Row{Design: p.Name(), L1: b.L1, L2: b.L2, LLC: b.LLC, NoC: b.NoC, Mem: b.Mem}
		if p.Name() == "Static" {
			staticTotal = b.Total()
		}
	}
	for i := range rows {
		rows[i].TotalVsStatic = (rows[i].L1 + rows[i].L2 + rows[i].LLC + rows[i].NoC + rows[i].Mem) / staticTotal
	}
	return rows, nil
}

// RenderFig15 prints the energy breakdown.
func RenderFig15(w io.Writer, rows []Fig15Row) {
	header(w, "Fig. 15", "Dynamic data-movement energy per kilo-instruction (nJ), by component, at high load; total normalized to Static.")
	fmt.Fprintf(w, "%-22s %8s %8s %8s %8s %8s %12s\n", "design", "L1", "L2", "LLC", "NoC", "Mem", "total/Static")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %8.2f %8.2f %8.2f %8.2f %8.2f %12.3f\n",
			r.Design, r.L1, r.L2, r.LLC, r.NoC, r.Mem, r.TotalVsStatic)
	}
}

// allDesignPlacers includes the Fig. 16 variants.
func variantPlacers() []core.Placer {
	return []core.Placer{
		core.StaticPlacer{},
		core.JumanjiPlacer{},
		core.JumanjiPlacer{Insecure: true},
		core.IdealBatchPlacer{},
	}
}
