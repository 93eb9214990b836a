// Command figures regenerates the tables and figures of the paper's
// evaluation as text tables. Each experiment reports the same rows/series
// the paper plots; EXPERIMENTS.md records how they compare. It is a
// flag-to-spec builder over serve.Main: every selected figure or table runs
// as the "figure" or "table" experiment jumanji-serve runs, byte for byte.
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
	"os"

	"jumanji/internal/harness"
	"jumanji/internal/serve"
)

func main() { os.Exit(run()) }

func run() int { return serve.Main("figures", os.Args[1:], flags) }

// flags declares the command's flags and builds one spec per selected
// figure or table.
func flags(fs *flag.FlagSet) func() ([]serve.Spec, error) {
	var (
		fig   = fs.Int("fig", 0, "figure number to regenerate (4, 5, 8, 9, 11, 12, 13, 14, 15, 16, 17, 18, 19)")
		table = fs.Int("table", 0, "table number to regenerate (1, 2, 3)")
		all   = fs.Bool("all", false, "regenerate everything")
		paper = fs.Bool("paper", false, "use the paper's protocol scale (40 mixes; slow)")
		toCSV = fs.Bool("csv", false, "emit the figure's series as CSV (figures 4, 8, 12, 17, 18, 19)")
		seed  = fs.Int64("seed", 1, "base seed for workload and arrival randomness")
		mesh  = fs.String("mesh", "", "override the machine topology as WxH (default: the paper's 5x4); Fig. 19 sweeps its own meshes and ignores this")
	)
	return func() ([]serve.Spec, error) {
		o := harness.QuickOptions()
		if *paper {
			o = harness.PaperOptions()
		}
		spec := func(typ string, fig, table int) serve.Spec {
			return serve.Spec{Type: typ, Fig: fig, Table: table,
				Mixes: o.Mixes, Epochs: o.Epochs, Warmup: o.Warmup, Seed: *seed, Mesh: *mesh}
		}
		var specs []serve.Spec
		switch {
		case *all:
			for _, f := range harness.Figures() {
				specs = append(specs, spec("figure", f, 0))
			}
			for _, t := range harness.Tables() {
				specs = append(specs, spec("table", 0, t))
			}
		case *fig != 0:
			specs = append(specs, spec("figure", *fig, 0))
			if *toCSV {
				specs[0].Format = "csv"
			}
		case *table != 0:
			specs = append(specs, spec("table", 0, *table))
		default:
			return nil, flag.ErrHelp
		}
		return specs, nil
	}
}
