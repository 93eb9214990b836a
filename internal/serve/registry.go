package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"

	"jumanji"
	"jumanji/internal/harness"
	"jumanji/internal/sweep"
)

// Runner is one registered experiment type. Validate normalizes a spec in
// place (filling defaults) and rejects impossible ones; Run executes the
// normalized spec in its caller's run environment (the daemon's engine is
// wired to the experiment's journal, and its only sink is Progress, which
// feeds the SSE stream) and returns the result bytes — the exact text the
// equivalent command-line run prints. Repro renders a command that re-runs
// one failed cell in isolation, for degraded-run reports, or "" when no
// command line expresses the spec.
//
// Run returns a degraded sweep's *sweep.RunError as its error; any panic is
// a runner bug, isolated per attempt.
type Runner struct {
	Name        string
	Description string
	Validate    func(sp *Spec) error
	Run         func(sp *Spec, env sweep.Env) ([]byte, error)
	Repro       func(sp *Spec, label string, cell int) string
}

// repro is Repro, or "" for a runner without one.
func (rn *Runner) repro(sp *Spec, label string, cell int) string {
	if rn.Repro == nil {
		return ""
	}
	return rn.Repro(sp, label, cell)
}

// Registry maps experiment-type names to runners. Safe for concurrent use;
// registration after serving starts is allowed (plugins).
type Registry struct {
	mu sync.Mutex
	m  map[string]*Runner
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{m: make(map[string]*Runner)} }

// Register adds a runner; duplicate names are an error so two plugins
// can't silently shadow each other.
func (r *Registry) Register(rn *Runner) error {
	if rn.Name == "" || rn.Validate == nil || rn.Run == nil {
		return fmt.Errorf("serve: runner needs a name, Validate, and Run")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[rn.Name]; dup {
		return fmt.Errorf("serve: experiment type %q already registered", rn.Name)
	}
	r.m[rn.Name] = rn
	return nil
}

// Lookup returns the runner for an experiment-type name.
func (r *Registry) Lookup(name string) (*Runner, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rn, ok := r.m[name]
	return rn, ok
}

// Types lists the registered experiment-type names, sorted.
func (r *Registry) Types() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.m))
	for name := range r.m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Normalize looks up the spec's runner and validates the spec with it,
// filling its defaults in place.
func (r *Registry) Normalize(sp *Spec) (*Runner, error) {
	rn, ok := r.Lookup(sp.Type)
	if !ok {
		return nil, fmt.Errorf("unknown experiment type %q (registry has %v)", sp.Type, r.Types())
	}
	return rn, rn.Validate(sp)
}

// Builtins returns a registry with the built-in experiment types:
// "compare" (one design comparison, jumanji-sim's output), "figure" and
// "table" (one paper figure or table, cmd/figures' output).
func Builtins() *Registry {
	r := NewRegistry()
	for _, rn := range []*Runner{compareRunner(), harnessRunner("figure"), harnessRunner("table")} {
		if err := r.Register(rn); err != nil {
			panic(err) // unreachable: names are distinct literals
		}
	}
	return r
}

// orDefault sets *v to def when it is zero.
func orDefault[T comparable](v *T, def T) {
	var zero T
	if *v == zero {
		*v = def
	}
}

// runLength fills the protocol scale's defaults; Warmup takes its default
// only with Epochs.
func runLength(sp *Spec, epochs, warmup int, seed int64) {
	if sp.Epochs == 0 {
		sp.Epochs = epochs
		orDefault(&sp.Warmup, warmup)
	}
	orDefault(&sp.Seed, seed)
}

// compareRunner is jumanji-sim: one design comparison over one workload.
func compareRunner() *Runner {
	return &Runner{
		Name:        "compare",
		Description: "compare LLC designs over one workload (jumanji-sim's output)",
		Validate: func(sp *Spec) error {
			switch {
			case sp.Fig != 0 || sp.Table != 0 || sp.Mixes != 0:
				return fmt.Errorf("compare specs take no fig/table/mixes")
			case sp.Load != "" && sp.Load != "high" && sp.Load != "low":
				return fmt.Errorf("load %q: want high or low", sp.Load)
			case sp.Format != "" && sp.Format != "json":
				return fmt.Errorf("format %q: compare output is text or json", sp.Format)
			}
			def := jumanji.DefaultOptions()
			sp.Design = strings.ToLower(strings.TrimSpace(sp.Design))
			orDefault(&sp.Design, "jumanji")
			orDefault(&sp.LC, "xapian")
			orDefault(&sp.Load, "high")
			orDefault(&sp.VMs, 4)
			orDefault(&sp.Router, def.RouterDelay)
			orDefault(&sp.Mesh, fmt.Sprintf("%dx%d", def.MeshW, def.MeshH))
			runLength(sp, def.Epochs, def.Warmup, def.Seed)
			if err := normDims(&sp.Mesh); err != nil {
				return fmt.Errorf("mesh: %w", err)
			}
			if err := normDims(&sp.Shard); err != nil {
				return fmt.Errorf("shard: %w", err)
			}
			if _, err := compareDesigns(sp); err != nil {
				return err
			}
			// Building the workload runs jumanji's own option checks and the
			// workload's: the LC app, the VM split, the fleet's fit.
			_, err := compareWorkload(sp)(compareOptions(sp, sweep.Env{}))
			return err
		},
		Run: func(sp *Spec, env sweep.Env) ([]byte, error) {
			designs, err := compareDesigns(sp)
			if err != nil {
				return nil, err
			}
			results, err := jumanji.Compare(compareOptions(sp, env), compareWorkload(sp), designs...)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if sp.Format == "json" {
				err = writeCompareJSON(&buf, results, sp.Apps)
			} else {
				writeCompareText(&buf, results, sp.Apps)
			}
			return buf.Bytes(), err
		},
		Repro: func(sp *Spec, label string, cell int) string {
			args := fmt.Sprintf("jumanji-sim -design %s -lc %s -load %s -vms %d -router %d -mesh %s",
				sp.Design, sp.LC, sp.Load, sp.VMs, sp.Router, sp.Mesh)
			if sp.Shard != "" {
				args += " -shard " + sp.Shard
			}
			if sp.Apps {
				args += " -apps"
			}
			if sp.Format == "json" {
				args += " -json"
			}
			return fmt.Sprintf("%s -epochs %d -warmup %d -seed %d -keep-going -cell '%s:%d'",
				args, sp.Epochs, sp.Warmup, sp.Seed, label, cell)
		},
	}
}

// compareDesigns parses the spec's design, or "all".
func compareDesigns(sp *Spec) ([]jumanji.Design, error) {
	if sp.Design == "all" {
		return jumanji.AllDesigns(), nil
	}
	d, err := jumanji.ParseDesign(sp.Design)
	return []jumanji.Design{d}, err
}

// compareOptions maps a normalized compare spec onto the simulator's
// options.
func compareOptions(sp *Spec, env sweep.Env) jumanji.Options {
	o := jumanji.DefaultOptions()
	o.MeshW, o.MeshH, _ = parseDims(sp.Mesh)
	o.ShardRegionW, o.ShardRegionH, _ = parseDims(sp.Shard)
	o.RouterDelay = sp.Router
	o.HighLoad = sp.Load != "low"
	o.Epochs, o.Warmup, o.Seed = sp.Epochs, sp.Warmup, sp.Seed
	o.Env = env
	return o
}

// compareWorkload selects the compare spec's workload.
func compareWorkload(sp *Spec) func(jumanji.Options) (jumanji.Workload, error) {
	switch {
	case strings.EqualFold(sp.LC, "datacenter"):
		return jumanji.Datacenter(sp.Seed)
	case sp.VMs != 4:
		return jumanji.Scaling(sp.VMs, sp.Seed)
	case strings.EqualFold(sp.LC, "mixed"):
		return jumanji.MixedCaseStudy(sp.Seed)
	}
	return jumanji.CaseStudy(sp.LC, sp.Seed)
}

// writeCompareText renders the design table, then with apps one
// per-application table per design.
func writeCompareText(w io.Writer, results []*jumanji.Result, apps bool) {
	fmt.Fprintf(w, "%-22s %14s %14s %14s %12s\n",
		"design", "tail/deadline", "speedup", "vulnerability", "energy (mJ)")
	for _, r := range results {
		fmt.Fprintf(w, "%-22s %14.2f %14.3f %14.2f %12.2f\n",
			r.Design, r.WorstNormTail, r.SpeedupVsStatic, r.Vulnerability, r.Energy.Total()/1e6)
	}
	if !apps {
		return
	}
	for _, r := range results {
		fmt.Fprintf(w, "\n--- %s ---\n", r.Design)
		fmt.Fprintf(w, "%-16s %4s %6s %12s %10s %10s\n", "app", "vm", "type", "tail/ddl", "alloc MB", "hops")
		for _, a := range r.Apps {
			kind, tail := "batch", "-"
			if a.LatencyCritical {
				kind, tail = "lc", fmt.Sprintf("%.2f", a.NormTail)
			}
			fmt.Fprintf(w, "%-16s %4d %6s %12s %10.2f %10.2f\n",
				a.Name, a.VM, kind, tail, a.AllocMB, a.MeanHops)
		}
	}
}

// writeCompareJSON renders the results as an indented JSON array, with
// apps each design's per-application metrics.
func writeCompareJSON(w io.Writer, results []*jumanji.Result, apps bool) error {
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
		if apps {
			out[i].Apps = r.Apps
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// harnessRunner is the "figure" or "table" runner: one paper figure or
// table, cmd/figures' output.
func harnessRunner(kind string) *Runner {
	table := kind == "table"
	flagName, nums := "fig", harness.Figures
	num := func(sp *Spec) int { return sp.Fig }
	if table {
		flagName, nums = "table", harness.Tables
		num = func(sp *Spec) int { return sp.Table }
	}
	return &Runner{
		Name:        kind,
		Description: "regenerate one paper " + kind + " (cmd/figures' output)",
		Validate: func(sp *Spec) error {
			switch {
			case !slices.Contains(nums(), num(sp)):
				return fmt.Errorf("no %s %d (%ss: %v)", kind, num(sp), kind, nums())
			case sp.Fig != 0 && sp.Table != 0:
				return fmt.Errorf("a spec takes one fig or table")
			case sp.Design != "" || sp.LC != "" || sp.Load != "" || sp.VMs != 0 ||
				sp.Router != 0 || sp.Shard != "" || sp.Apps:
				return fmt.Errorf("%s specs take no design/lc/load/vms/router/shard/apps", kind)
			case sp.Format != "" && (table || sp.Format != "csv"):
				return fmt.Errorf("format %q: want csv (figures only) or none", sp.Format)
			}
			q := harness.QuickOptions()
			orDefault(&sp.Mixes, q.Mixes)
			orDefault(&sp.Mesh, "5x4")
			runLength(sp, q.Epochs, q.Warmup, q.Seed)
			if err := normDims(&sp.Mesh); err != nil {
				return fmt.Errorf("mesh: %w", err)
			}
			return harnessOptions(sp, sweep.Env{}).Validate()
		},
		Run: func(sp *Spec, env sweep.Env) ([]byte, error) {
			render := harness.Render
			switch {
			case table:
				render = harness.RenderTableN
			case sp.Format == "csv":
				render = harness.CSV
			}
			var buf bytes.Buffer
			if err := render(&buf, num(sp), harnessOptions(sp, env)); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		},
		Repro: func(sp *Spec, label string, cell int) string {
			args := fmt.Sprintf("figures -%s %d", flagName, num(sp))
			if sp.Format == "csv" {
				args += " -csv"
			}
			switch q, p := harness.QuickOptions(), harness.PaperOptions(); [3]int{sp.Mixes, sp.Epochs, sp.Warmup} {
			case [3]int{q.Mixes, q.Epochs, q.Warmup}:
			case [3]int{p.Mixes, p.Epochs, p.Warmup}:
				args += " -paper"
			default:
				return "" // figures runs only the quick and paper scales
			}
			if sp.Mesh != "5x4" {
				args += " -mesh " + sp.Mesh
			}
			return fmt.Sprintf("%s -seed %d -keep-going -cell '%s:%d'", args, sp.Seed, label, cell)
		},
	}
}

// harnessOptions maps a normalized figure or table spec onto the harness's
// options.
func harnessOptions(sp *Spec, env sweep.Env) harness.Options {
	o := harness.Options{Mixes: sp.Mixes, Epochs: sp.Epochs, Warmup: sp.Warmup, Seed: sp.Seed, Env: env}
	o.MeshW, o.MeshH, _ = parseDims(sp.Mesh)
	return o
}
