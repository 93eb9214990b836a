package harness

import (
	"fmt"
	"io"

	"jumanji/internal/system"
	"jumanji/internal/tailbench"
)

// Table1Row is one design's qualitative scorecard, derived from measured
// results rather than asserted (Table I of the paper).
type Table1Row struct {
	Design       string
	TailLatency  bool // meets deadlines (median worst tail within ~25% of it)
	Security     bool // zero port-attack vulnerability
	BatchSpeedup bool // median speedup vs Static >= 5%
}

// Table1 derives the paper's qualitative comparison from a measured run of
// the case study.
func Table1(o Options) ([]Table1Row, error) {
	sums, err := runMixes(o, caseStudyBuilder("xapian", true), mainDesigns())
	if err != nil {
		return nil, err
	}
	rows := make([]Table1Row, 0, len(sums))
	for _, s := range sums {
		rows = append(rows, Table1Row{
			Design:       s.Design,
			TailLatency:  s.NormTail.N > 0 && s.NormTail.Median <= 1.25,
			Security:     s.Vulnerability == 0,
			BatchSpeedup: s.Speedup.Median >= 1.05,
		})
	}
	return rows, nil
}

// RenderTable1 prints the scorecard.
func RenderTable1(w io.Writer, rows []Table1Row) {
	header(w, "Table I", "Qualitative comparison, derived from measured results (✓ = achieved).")
	mark := func(b bool) string {
		if b {
			return "+"
		}
		return "x"
	}
	fmt.Fprintf(w, "%-22s %14s %10s %15s\n", "design", "tail latency", "security", "batch speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %14s %10s %15s\n", r.Design, mark(r.TailLatency), mark(r.Security), mark(r.BatchSpeedup))
	}
}

// RenderTable2 prints the simulated system parameters (Table II).
func RenderTable2(w io.Writer) {
	cfg := system.DefaultConfig()
	header(w, "Table II", "System parameters of the simulated machine.")
	fmt.Fprintf(w, "Cores        %d tiles (%dx%d mesh), %.2f GHz\n",
		cfg.Machine.Banks(), cfg.Machine.Mesh.W, cfg.Machine.Mesh.H, cfg.FreqHz/1e9)
	fmt.Fprintf(w, "LLC          %.0f MB total: %d x %.0f MB banks, %d-way, %.0f-cycle bank latency\n",
		cfg.Machine.TotalBytes()/(1<<20), cfg.Machine.Banks(), cfg.Machine.BankBytes/(1<<20),
		cfg.Machine.WaysPerBank, cfg.BankLatency)
	fmt.Fprintf(w, "NoC          mesh, %d-cycle routers, %d-cycle links, %d B flits\n",
		cfg.NoC.RouterDelay, cfg.NoC.LinkDelay, cfg.NoC.FlitBytes)
	fmt.Fprintf(w, "Memory       %.0f-cycle latency\n", cfg.MemLatency)
	fmt.Fprintf(w, "Epoch        %.0f ms reconfiguration period\n", cfg.EpochSeconds*1000)
}

// RenderTable3 prints the latency-critical workload configuration
// (Table III).
func RenderTable3(w io.Writer) {
	header(w, "Table III", "Workload configuration for latency-critical applications.")
	fmt.Fprintf(w, "%-12s %8s %8s %14s\n", "app", "low QPS", "high QPS", "num queries")
	for _, p := range tailbench.Profiles {
		fmt.Fprintf(w, "%-12s %8.0f %8.0f %14d\n", p.Name, p.LowQPS, p.HighQPS, p.NumQueries)
	}
}
