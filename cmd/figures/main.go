// Command figures regenerates the tables and figures of the paper's
// evaluation as text tables. Each experiment reports the same rows/series
// the paper plots; EXPERIMENTS.md records how they compare.
//
// Examples:
//
//	figures -fig 13            # main results, quick protocol
//	figures -fig 8 -paper      # Fig. 8 at the paper's scale
//	figures -table 1
//	figures -all
//	figures -all -journal run.journal -keep-going   # crash-safe sweep
//	figures -all -resume run.journal                # pick up where it died
//
// Exit status: 0 on success, 1 when any cell failed, was skipped, or an
// interrupt drained the run, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"jumanji/internal/harness"
	"jumanji/internal/obs"
	"jumanji/internal/obs/statusz"
	"jumanji/internal/sweep"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		fig      = flag.Int("fig", 0, "figure number to regenerate (4, 5, 8, 9, 11, 12, 13, 14, 15, 16, 17, 18, 19)")
		table    = flag.Int("table", 0, "table number to regenerate (1, 2, 3)")
		all      = flag.Bool("all", false, "regenerate everything")
		paper    = flag.Bool("paper", false, "use the paper's protocol scale (40 mixes; slow)")
		toCSV    = flag.Bool("csv", false, "emit the figure's series as CSV (figures 4, 8, 12, 17, 18)")
		parallel = flag.Int("parallel", 0, "worker count for fanning mixes/designs/sweep points across cores (0 = one per CPU, 1 = serial; output is identical either way)")
		seed     = flag.Int64("seed", 1, "base seed for workload and arrival randomness")
		mesh     = flag.String("mesh", "", "override the machine topology as WxH (default: the paper's 5x4); Fig. 19 sweeps its own meshes and ignores this")
	)
	var sinks obs.CLI
	sinks.RegisterFlags(flag.CommandLine)
	var status statusz.CLI
	status.RegisterFlags(flag.CommandLine)
	var resil sweep.CLI
	resil.RegisterFlags(flag.CommandLine)
	flag.Parse()
	// -status implies -spans: the live endpoints are only worth serving
	// with phase timings behind them.
	if status.Addr != "" {
		sinks.SpansOn = true
	}
	if err := sinks.Open(); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		return 1
	}

	o := harness.QuickOptions()
	if *paper {
		o = harness.PaperOptions()
	}
	o.Seed = *seed
	o.Parallel = *parallel
	if *mesh != "" {
		var err error
		if o.MeshW, o.MeshH, err = parseDims(*mesh); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			return 2
		}
	}
	o.Sinks = sinks.Sinks()
	o.Progress = status.Tracker()

	// The journal fingerprint covers everything that shapes a cell's
	// identity or its journalled sink state, so a resume against a journal
	// written under a different protocol or sink set is refused.
	fingerprint := fmt.Sprintf("figures|mixes=%d|epochs=%d|warmup=%d|seed=%d|mesh=%dx%d|metrics=%t|events=%t|trace=%t|tsdb=%t|prov=%t",
		o.Mixes, o.Epochs, o.Warmup, o.Seed, o.MeshW, o.MeshH,
		o.Metrics != nil, o.Events != nil, o.Trace != nil, o.TS != nil, o.Prov != nil)
	var curArgs string // the -fig/-table flags of the sweep now running
	repro := func(label string, cell int) string {
		scale := ""
		if *paper {
			scale = " -paper"
		}
		if *mesh != "" {
			scale += " -mesh " + *mesh
		}
		return fmt.Sprintf("figures%s%s -seed %d -cell '%s:%d'", curArgs, scale, o.Seed, label, cell)
	}
	engine, inj, err := resil.Build(o.Seed, fingerprint, repro)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		return 2
	}
	o.Engine, o.Chaos, o.CheckInvariants = engine, inj, resil.Check
	if engine != nil {
		defer sweep.HandleInterrupt(engine.Stop, os.Stderr)()
	}

	if err := status.Start(statusz.Info{
		Command: "figures",
		Config: map[string]string{
			"mixes":  strconv.Itoa(o.Mixes),
			"epochs": strconv.Itoa(o.Epochs),
			"warmup": strconv.Itoa(o.Warmup),
			"seed":   strconv.FormatInt(o.Seed, 10),
		},
	}, o.Spans); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		return 1
	}
	defer status.Close()
	if status.Addr != "" {
		o.PublishMetrics = status.PublishMetrics
		o.PublishTimeseries = status.PublishTimeseries
		if o.Prov != nil {
			o.PublishProvenance = status.PublishProvenance
		}
	}

	// render runs one figure or table, absorbing the sweep engine's
	// control-flow panics: a degraded sweep (reported once, at the end) or
	// single-cell repro completion. rc() folds everything into the exit
	// status after the journal is flushed.
	rc, onlyDone := 0, false
	render := func(args string, f func() int) {
		if onlyDone {
			return
		}
		curArgs = args
		defer func() {
			switch r := recover().(type) {
			case nil:
			case *sweep.RunError:
				rc = 1 // the report prints once, below
			case *sweep.OnlyDone:
				fmt.Fprintf(os.Stderr, "figures: cell %s complete\n", r.Ref)
				onlyDone = true
			default:
				panic(r)
			}
		}()
		if code := f(); code > rc {
			rc = code
		}
	}

	switch {
	case *all:
		for _, f := range []int{4, 5, 8, 9, 11, 12, 13, 14, 15, 16, 17, 18, 19} {
			f := f
			render(fmt.Sprintf(" -fig %d", f), func() int { return renderFig(f, o) })
		}
		for _, t := range []int{1, 2, 3} {
			t := t
			render(fmt.Sprintf(" -table %d", t), func() int { return renderTable(t, o) })
		}
	case *fig != 0 && *toCSV:
		render(fmt.Sprintf(" -fig %d -csv", *fig), func() int {
			if err := harness.CSV(os.Stdout, *fig, o); err != nil {
				fmt.Fprintln(os.Stderr, "figures:", err)
				return 2
			}
			return 0
		})
	case *fig != 0:
		render(fmt.Sprintf(" -fig %d", *fig), func() int { return renderFig(*fig, o) })
	case *table != 0:
		render(fmt.Sprintf(" -table %d", *table), func() int { return renderTable(*table, o) })
	default:
		flag.Usage()
		return 2
	}

	if err := resil.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		if rc == 0 {
			rc = 1
		}
	}
	if err := sinks.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		if rc == 0 {
			rc = 1
		}
	}
	if engine != nil {
		if rep := engine.Report(); rep.Degraded() || rep.Interrupted {
			rep.WriteText(os.Stderr)
			fmt.Fprintf(os.Stderr, "figures: degraded run: %d cell(s) failed, %d skipped, %d resumed\n",
				len(rep.Failed), len(rep.Skipped), rep.Resumed)
			rc = 1
		} else if rep.Resumed > 0 {
			fmt.Fprintf(os.Stderr, "figures: resumed %d journalled cell(s)\n", rep.Resumed)
		}
	}
	if resil.Cell != "" && !onlyDone {
		fmt.Fprintf(os.Stderr, "figures: -cell %s matched no sweep; pair it with the -fig/-table it came from\n", resil.Cell)
		return 2
	}
	return rc
}

func renderFig(n int, o harness.Options) int {
	w := os.Stdout
	switch n {
	case 4:
		harness.Fig4(o).Render(w)
	case 5:
		harness.RenderFig5(w, harness.Fig5(o))
	case 8:
		harness.RenderFig8(w, harness.Fig8(o))
	case 9:
		harness.RenderFig9(w, harness.Fig9(o))
	case 11:
		harness.Fig11(o).Render(w)
	case 12:
		harness.Fig12(o).Render(w)
	case 13:
		harness.Fig13(o).Render(w)
	case 14:
		harness.RenderFig14(w, harness.Fig14(o))
	case 15:
		harness.RenderFig15(w, harness.Fig15(o))
	case 16:
		harness.RenderFig16(w, harness.Fig16(o))
	case 17:
		harness.RenderFig17(w, harness.Fig17(o))
	case 18:
		harness.RenderFig18(w, harness.Fig18(o))
	case 19:
		harness.RenderFig19(w, harness.Fig19(o))
	default:
		fmt.Fprintf(os.Stderr, "figures: no figure %d (the paper's evaluation figures are 4, 5, 8, 9, 11, 12, 13, 14, 15, 16, 17, 18; 19 is the big-topology scaling study)\n", n)
		return 2
	}
	return 0
}

// parseDims parses a "WxH" topology flag.
func parseDims(s string) (w, h int, err error) {
	if n, _ := fmt.Sscanf(s, "%dx%d", &w, &h); n != 2 || w <= 0 || h <= 0 {
		return 0, 0, fmt.Errorf("invalid mesh %q (want WxH, e.g. 16x16)", s)
	}
	return w, h, nil
}

func renderTable(n int, o harness.Options) int {
	w := os.Stdout
	switch n {
	case 1:
		harness.RenderTable1(w, harness.Table1(o))
	case 2:
		harness.RenderTable2(w)
	case 3:
		harness.RenderTable3(w)
	default:
		fmt.Fprintf(os.Stderr, "figures: no table %d\n", n)
		return 2
	}
	return 0
}
