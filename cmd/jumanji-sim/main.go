// Command jumanji-sim runs one LLC-design simulation over a datacenter
// workload and prints the resulting metrics: per-application tail latency
// and allocation, batch weighted speedup, security vulnerability, and the
// energy breakdown.
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
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"jumanji"
	"jumanji/internal/obs"
	"jumanji/internal/obs/statusz"
	"jumanji/internal/sweep"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		designFlag = flag.String("design", "jumanji", "design to run: static, adaptive, vm-part, jigsaw, jumanji, insecure, ideal, or 'all'")
		lc         = flag.String("lc", "xapian", "latency-critical app (masstree, xapian, img-dnn, silo, moses), 'mixed', or 'datacenter' (mesh-proportional VM fleet)")
		load       = flag.String("load", "high", "latency-critical load: high (~50% util) or low (~10%)")
		epochs     = flag.Int("epochs", 60, "number of 100 ms reconfiguration epochs")
		warmup     = flag.Int("warmup", 20, "epochs excluded from statistics")
		seed       = flag.Int64("seed", 1, "workload seed")
		vms        = flag.Int("vms", 4, "VM count: 4 runs the standard case study; 1, 2, 5, 10, 12 run the Fig. 17 splits")
		router     = flag.Int("router", 2, "NoC router delay in cycles (1-3)")
		mesh       = flag.String("mesh", "5x4", "mesh topology WxH (Table II: 5x4; big meshes pair with -lc datacenter and -shard)")
		shard      = flag.String("shard", "", "hierarchical D-NUCA placement region WxH (e.g. 4x4); empty = flat placement")
		perApp     = flag.Bool("apps", false, "print per-application metrics")
		asJSON     = flag.Bool("json", false, "emit results as JSON")
		par        = flag.Int("parallel", 0, "worker count for fanning design runs across cores (0 = one per CPU, 1 = serial; output is identical either way)")
	)
	var sinks obs.CLI
	sinks.RegisterFlags(flag.CommandLine)
	var status statusz.CLI
	status.RegisterFlags(flag.CommandLine)
	var resil sweep.CLI
	resil.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if status.Addr != "" {
		sinks.SpansOn = true // -status implies -spans
	}
	if err := sinks.Open(); err != nil {
		return fatal(err)
	}

	opts := jumanji.DefaultOptions()
	opts.Epochs, opts.Warmup, opts.Seed = *epochs, *warmup, *seed
	opts.RouterDelay = *router
	var err error
	if opts.MeshW, opts.MeshH, err = parseDims(*mesh); err != nil {
		fmt.Fprintln(os.Stderr, "jumanji-sim:", err)
		return 2
	}
	if *shard != "" {
		if opts.ShardRegionW, opts.ShardRegionH, err = parseDims(*shard); err != nil {
			fmt.Fprintln(os.Stderr, "jumanji-sim:", err)
			return 2
		}
	}
	opts.HighLoad = *load != "low"
	opts.Parallel = *par
	opts.Sinks = sinks.Sinks()
	opts.Progress = status.Tracker()

	fingerprint := fmt.Sprintf("jumanji-sim|design=%s|lc=%s|load=%s|epochs=%d|warmup=%d|seed=%d|vms=%d|router=%d|mesh=%dx%d|shard=%dx%d|metrics=%t|events=%t|trace=%t|tsdb=%t|prov=%t",
		strings.ToLower(*designFlag), *lc, *load, *epochs, *warmup, *seed, *vms, *router,
		opts.MeshW, opts.MeshH, opts.ShardRegionW, opts.ShardRegionH,
		opts.Metrics != nil, opts.Events != nil, opts.Trace != nil, opts.TS != nil, opts.Prov != nil)
	repro := func(label string, cell int) string {
		extra := ""
		if *shard != "" {
			extra = " -shard " + *shard
		}
		return fmt.Sprintf("jumanji-sim -design %s -lc %s -load %s -epochs %d -warmup %d -seed %d -vms %d -router %d -mesh %s%s -cell '%s:%d'",
			*designFlag, *lc, *load, *epochs, *warmup, *seed, *vms, *router, *mesh, extra, label, cell)
	}
	engine, inj, err := resil.Build(*seed, fingerprint, repro)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jumanji-sim:", err)
		return 2
	}
	opts.Engine, opts.Chaos, opts.CheckInvariants = engine, inj, resil.Check
	if engine != nil {
		defer sweep.HandleInterrupt(engine.Stop, os.Stderr)()
	}

	if err := status.Start(statusz.Info{
		Command: "jumanji-sim",
		Config: map[string]string{
			"design": *designFlag,
			"lc":     *lc,
			"epochs": fmt.Sprint(*epochs),
			"seed":   fmt.Sprint(*seed),
		},
	}, opts.Spans); err != nil {
		return fatal(err)
	}
	defer status.Close()
	if status.Addr != "" {
		opts.PublishMetrics = status.PublishMetrics
		opts.PublishTimeseries = status.PublishTimeseries
		if opts.Prov != nil {
			opts.PublishProvenance = status.PublishProvenance
		}
	}

	build := workloadBuilder(*lc, *vms, *seed)

	var designs []jumanji.Design
	if strings.EqualFold(*designFlag, "all") {
		designs = jumanji.AllDesigns()
	} else {
		d, err := jumanji.ParseDesign(*designFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jumanji-sim:", err)
			return 2
		}
		designs = []jumanji.Design{d}
	}

	results, err := jumanji.Compare(opts, build, designs...)
	if cerr := resil.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		var rerr *sweep.RunError
		var done *sweep.OnlyDone
		switch {
		case errors.As(err, &rerr):
			rerr.Report.WriteText(os.Stderr)
			fmt.Fprintf(os.Stderr, "jumanji-sim: %v\n", rerr)
			return 1
		case errors.As(err, &done):
			fmt.Fprintf(os.Stderr, "jumanji-sim: cell %s complete\n", done.Ref)
			return 0
		}
		return fatal(err)
	}
	if resil.Cell != "" {
		// A matching -cell ends the run via OnlyDone above; reaching here
		// means the label never came up.
		fmt.Fprintf(os.Stderr, "jumanji-sim: -cell %s matched no sweep; pair it with the -design/-lc flags it came from\n", resil.Cell)
		return 2
	}
	if err := sinks.Close(); err != nil {
		return fatal(err)
	}
	if engine != nil {
		if rep := engine.Report(); rep.Resumed > 0 {
			fmt.Fprintf(os.Stderr, "jumanji-sim: resumed %d journalled cell(s)\n", rep.Resumed)
		}
	}

	if *asJSON {
		type jsonResult struct {
			Design          string               `json:"design"`
			TailVsDeadline  float64              `json:"tail_vs_deadline"`
			SpeedupVsStatic float64              `json:"speedup_vs_static"`
			Vulnerability   float64              `json:"vulnerability"`
			EnergyNJ        float64              `json:"energy_nj"`
			Apps            []jumanji.AppMetrics `json:"apps,omitempty"`
		}
		out := make([]jsonResult, len(results))
		for i, r := range results {
			out[i] = jsonResult{
				Design:          r.Design.String(),
				TailVsDeadline:  r.WorstNormTail,
				SpeedupVsStatic: r.SpeedupVsStatic,
				Vulnerability:   r.Vulnerability,
				EnergyNJ:        r.Energy.Total(),
			}
			if *perApp {
				out[i].Apps = r.Apps
			}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return fatal(err)
		}
		return 0
	}

	fmt.Printf("%-22s %14s %14s %14s %12s\n",
		"design", "tail/deadline", "speedup", "vulnerability", "energy (mJ)")
	for _, r := range results {
		fmt.Printf("%-22s %14.2f %14.3f %14.2f %12.2f\n",
			r.Design, r.WorstNormTail, r.SpeedupVsStatic, r.Vulnerability, r.Energy.Total()/1e6)
	}
	if *perApp {
		for _, r := range results {
			fmt.Printf("\n--- %s ---\n", r.Design)
			fmt.Printf("%-16s %4s %6s %12s %10s %10s\n", "app", "vm", "type", "tail/ddl", "alloc MB", "hops")
			for _, a := range r.Apps {
				kind := "batch"
				tail := "-"
				if a.LatencyCritical {
					kind = "lc"
					tail = fmt.Sprintf("%.2f", a.NormTail)
				}
				fmt.Printf("%-16s %4d %6s %12s %10.2f %10.2f\n",
					a.Name, a.VM, kind, tail, a.AllocMB, a.MeanHops)
			}
		}
	}
	return 0
}

func workloadBuilder(lc string, vms int, seed int64) func(jumanji.Options) (jumanji.Workload, error) {
	if strings.EqualFold(lc, "datacenter") {
		return jumanji.Datacenter(seed)
	}
	if vms != 4 {
		return jumanji.Scaling(vms, seed)
	}
	if strings.EqualFold(lc, "mixed") {
		return jumanji.MixedCaseStudy(seed)
	}
	return jumanji.CaseStudy(lc, seed)
}

// parseDims parses a "WxH" topology flag.
func parseDims(s string) (w, h int, err error) {
	if n, _ := fmt.Sscanf(s, "%dx%d", &w, &h); n != 2 || w <= 0 || h <= 0 {
		return 0, 0, fmt.Errorf("invalid dimensions %q (want WxH, e.g. 16x16)", s)
	}
	return w, h, nil
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "jumanji-sim:", err)
	return 1
}
