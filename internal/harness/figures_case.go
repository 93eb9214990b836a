package harness

import (
	"fmt"
	"io"
	"math"

	"jumanji/internal/core"
	"jumanji/internal/system"
)

// Fig4Result holds the case-study timelines (Fig. 4): per design, per
// epoch, the latency-critical mean latency (normalized to deadline), the
// mean latency-critical allocation, and the vulnerability.
type Fig4Result struct {
	Designs []string
	// LatNorm[d][e], AllocMB[d][e], Vuln[d][e] for design d, epoch e.
	LatNorm, AllocMB, Vuln [][]float64
}

// Fig4 reproduces the Sec. III case-study timelines: four VMs each running
// xapian plus four random SPEC apps, observed over time under Adaptive,
// VM-Part, Jigsaw, and Jumanji. The four design runs are independent cells
// of the worker pool; every cell rebuilds the (identical) mix-0 workload
// from its deterministic seed.
func Fig4(o Options) (Fig4Result, error) {
	placers := []core.Placer{core.AdaptivePlacer{}, core.VMPartPlacer{}, core.JigsawPlacer{}, core.JumanjiPlacer{}}
	b := caseStudyBuilder("xapian", true)
	// Exported fields: cell results are gob-encoded into the crash journal.
	type timeline struct {
		Lat, Alloc, Vuln []float64
	}
	cells, err := runCells(o, "fig4", len(placers), func(d int, co Options) timeline {
		cfg := co.systemConfig()
		wl, seed := buildMix(b, cfg.Machine, o.Seed, 0)
		cfg.Seed = seed
		lcApps := make(map[int]bool)
		for i, a := range wl.Apps {
			if a.LatCrit != nil {
				lcApps[i] = true
			}
		}
		r := system.Run(cfg, wl, placers[d], o.Epochs, 0)
		var tl timeline
		for _, s := range r.Timeline {
			l, a, nl, na := 0.0, 0.0, 0, 0
			// Series are in app order; NaN marks epochs with no sample.
			for i, v := range s.LatNorm {
				if lcApps[i] && !math.IsNaN(v) {
					l += v
					nl++
				}
			}
			for i, v := range s.AllocMB {
				if lcApps[i] {
					a += v
					na++
				}
			}
			if nl > 0 {
				l /= float64(nl)
			}
			if na > 0 {
				a /= float64(na)
			}
			tl.Lat = append(tl.Lat, l)
			tl.Alloc = append(tl.Alloc, a)
			tl.Vuln = append(tl.Vuln, s.Vulnerability)
		}
		return tl
	})
	if err != nil {
		return Fig4Result{}, err
	}
	res := Fig4Result{}
	for d, p := range placers {
		res.Designs = append(res.Designs, p.Name())
		res.LatNorm = append(res.LatNorm, cells[d].Lat)
		res.AllocMB = append(res.AllocMB, cells[d].Alloc)
		res.Vuln = append(res.Vuln, cells[d].Vuln)
	}
	return res, nil
}

// Render prints the timelines as aligned columns.
func (r Fig4Result) Render(w io.Writer) {
	header(w, "Fig. 4", "Case-study behaviour over time: (a) xapian latency / deadline, (b) xapian LLC allocation (MB), (c) potential attackers per access.")
	// Panels render in the figure's (a)/(b)/(c) order — a map literal here
	// would interleave them nondeterministically across runs.
	panels := []struct {
		part   string
		series [][]float64
	}{
		{"(a) latency/deadline", r.LatNorm},
		{"(b) allocation MB", r.AllocMB},
		{"(c) vulnerability", r.Vuln},
	}
	for _, p := range panels {
		part, series := p.part, p.series
		fmt.Fprintf(w, "%s\n%-8s", part, "epoch")
		for _, d := range r.Designs {
			fmt.Fprintf(w, "%14s", d)
		}
		fmt.Fprintln(w)
		if len(series) == 0 || len(series[0]) == 0 {
			continue
		}
		step := len(series[0]) / 12
		if step < 1 {
			step = 1
		}
		for e := 0; e < len(series[0]); e += step {
			fmt.Fprintf(w, "%-8d", e)
			for d := range r.Designs {
				fmt.Fprintf(w, "%14.2f", series[d][e])
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
}

// Fig5Row is one design's end-to-end case-study result (Fig. 5).
type Fig5Row struct {
	Design        string
	WorstNormTail float64
	Speedup       float64 // batch weighted speedup vs Static
	Vulnerability float64
}

// Fig5 reproduces the case-study summary: tail latency and batch speedup
// per design, averaged over the configured number of mixes.
func Fig5(o Options) ([]Fig5Row, error) {
	sums, err := runMixes(o, caseStudyBuilder("xapian", true), mainDesigns())
	if err != nil {
		return nil, err
	}
	rows := make([]Fig5Row, 0, len(sums))
	for _, s := range sums {
		rows = append(rows, Fig5Row{
			Design:        s.Design,
			WorstNormTail: s.NormTail.Median,
			Speedup:       s.Speedup.Median,
			Vulnerability: s.Vulnerability,
		})
	}
	return rows, nil
}

// RenderFig5 prints the Fig. 5 table.
func RenderFig5(w io.Writer, rows []Fig5Row) {
	header(w, "Fig. 5", "Case study end-to-end: all tail-aware designs meet deadlines; D-NUCAs get real batch speedup; Jumanji alone gets both plus zero vulnerability.")
	fmt.Fprintf(w, "%-22s %14s %14s %14s\n", "design", "tail/deadline", "batch speedup", "vulnerability")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %14.2f %14.3f %14.2f\n", r.Design, r.WorstNormTail, r.Speedup, r.Vulnerability)
	}
}
