// Command jumanji-sim runs one LLC-design simulation over a datacenter
// workload and prints the resulting metrics: per-application tail latency
// and allocation, batch weighted speedup, security vulnerability, and the
// energy breakdown. It is a flag-to-spec builder over serve.Main: the run
// is the "compare" experiment jumanji-serve runs, byte for byte.
//
// Examples:
//
//	jumanji-sim -design jumanji -lc xapian
//	jumanji-sim -design jigsaw -lc mixed -load low -epochs 120
//	jumanji-sim -design all -vms 12 -seed 3
//	jumanji-sim -design jumanji -lc datacenter -mesh 16x16 -shard 4x4
//	jumanji-sim -design all -events out.jsonl -tracefile out.trace.json
//	jumanji-sim -design all -journal run.journal -keep-going
//
// Exit status: 0 on success, 1 when any design run failed, was skipped, or
// an interrupt drained the run, 2 on usage errors.
package main

import (
	"flag"
	"os"

	"jumanji/internal/serve"
)

func main() { os.Exit(run()) }

func run() int { return serve.Main("jumanji-sim", os.Args[1:], flags) }

// flags declares the command's flags, each one a field of the compare spec
// it builds.
func flags(fs *flag.FlagSet) func() ([]serve.Spec, error) {
	sp := serve.Spec{Type: "compare"}
	fs.StringVar(&sp.Design, "design", "jumanji", "design to run: static, adaptive, vm-part, jigsaw, jumanji, insecure, ideal, or 'all'")
	fs.StringVar(&sp.LC, "lc", "xapian", "latency-critical app (masstree, xapian, img-dnn, silo, moses), 'mixed', or 'datacenter' (mesh-proportional VM fleet)")
	fs.StringVar(&sp.Load, "load", "high", "latency-critical load: high (~50% util) or low (~10%)")
	fs.IntVar(&sp.Epochs, "epochs", 60, "number of 100 ms reconfiguration epochs")
	fs.IntVar(&sp.Warmup, "warmup", 20, "epochs excluded from statistics")
	fs.Int64Var(&sp.Seed, "seed", 1, "workload seed")
	fs.IntVar(&sp.VMs, "vms", 4, "VM count: 4 runs the standard case study; 1, 2, 5, 10, 12 run the Fig. 17 splits")
	fs.IntVar(&sp.Router, "router", 2, "NoC router delay in cycles (1-3)")
	fs.StringVar(&sp.Mesh, "mesh", "5x4", "mesh topology WxH (Table II: 5x4; big meshes pair with -lc datacenter and -shard)")
	fs.StringVar(&sp.Shard, "shard", "", "hierarchical D-NUCA placement region WxH (e.g. 4x4); empty = flat placement")
	fs.BoolVar(&sp.Apps, "apps", false, "print per-application metrics")
	asJSON := fs.Bool("json", false, "emit results as JSON")
	return func() ([]serve.Spec, error) {
		if *asJSON {
			sp.Format = "json"
		}
		return []serve.Spec{sp}, nil
	}
}
