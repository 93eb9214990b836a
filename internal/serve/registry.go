package serve

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"jumanji"
	"jumanji/internal/chaos"
	"jumanji/internal/harness"
	"jumanji/internal/parallel"
	"jumanji/internal/sweep"
)

// Env is what a runner gets from the daemon: the crash-safety engine wired
// to this experiment's journal, the simulator fault injector, and the live
// progress tracker feeding the experiment's SSE stream. Runners must
// thread all three into the sweep layer (Options.Engine / Options.Chaos /
// Options.Progress) so journaling, resume, keep-going isolation, chaos,
// and progress frames all apply.
type Env struct {
	Engine   *sweep.Engine
	Chaos    *chaos.Injector
	Progress *parallel.Progress
}

// Runner is one registered experiment type. Validate normalizes a spec in
// place (filling defaults) and rejects impossible ones; Run executes the
// normalized spec and returns the result bytes — the exact text the
// equivalent command-line run would print. Repro renders a command that
// re-runs one failed cell in isolation, for degraded-run reports.
//
// Run returns a degraded sweep's *sweep.RunError as its error; any panic is
// a runner bug, isolated per attempt.
type Runner struct {
	Name        string
	Description string
	Validate    func(sp *Spec) error
	Run         func(ctx context.Context, sp *Spec, env Env) ([]byte, error)
	Repro       func(sp *Spec, label string, cell int) string
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

// Builtins returns a registry with the built-in experiment types:
// "compare" (one design comparison, jumanji-sim's table), "figure" and
// "table" (one paper figure/table, cmd/figures' text rendering).
func Builtins() *Registry {
	r := NewRegistry()
	for _, rn := range []*Runner{compareRunner(), figureRunner(), tableRunner()} {
		if err := r.Register(rn); err != nil {
			panic(err) // unreachable: names are distinct literals
		}
	}
	return r
}

// compareRunner reproduces jumanji-sim: one design comparison over one
// workload, rendered as the same metrics table.
func compareRunner() *Runner {
	return &Runner{
		Name:        "compare",
		Description: "compare LLC designs over one workload (jumanji-sim's table)",
		Validate: func(sp *Spec) error {
			if sp.Design == "" {
				sp.Design = "jumanji"
			}
			if sp.LC == "" {
				sp.LC = "xapian"
			}
			if sp.Load == "" {
				sp.Load = "high"
			}
			if sp.Load != "high" && sp.Load != "low" {
				return fmt.Errorf("load %q: want high or low", sp.Load)
			}
			if sp.VMs == 0 {
				sp.VMs = 4
			}
			if sp.VMs < 0 {
				return fmt.Errorf("vms %d: want positive", sp.VMs)
			}
			def := jumanji.DefaultOptions()
			if sp.Epochs == 0 {
				sp.Epochs = def.Epochs
			}
			if sp.Warmup == 0 {
				sp.Warmup = def.Warmup
			}
			if sp.Seed == 0 {
				sp.Seed = def.Seed
			}
			if sp.Epochs <= 0 || sp.Warmup < 0 || sp.Warmup >= sp.Epochs {
				return fmt.Errorf("epochs=%d warmup=%d: want 0 <= warmup < epochs", sp.Epochs, sp.Warmup)
			}
			if !strings.EqualFold(sp.Design, "all") {
				if _, err := jumanji.ParseDesign(sp.Design); err != nil {
					return err
				}
			}
			if sp.Fig != 0 || sp.Table != 0 || sp.Mixes != 0 {
				return fmt.Errorf("compare specs take no fig/table/mixes")
			}
			return nil
		},
		Run: func(ctx context.Context, sp *Spec, env Env) ([]byte, error) {
			opts := jumanji.DefaultOptions()
			opts.Epochs, opts.Warmup, opts.Seed = sp.Epochs, sp.Warmup, sp.Seed
			opts.HighLoad = sp.Load != "low"
			opts.Parallel = 1 // serial cells: deterministic journal record order
			opts.Engine, opts.Chaos = env.Engine, env.Chaos
			opts.Progress = env.Progress
			opts.Ctx = ctx

			var designs []jumanji.Design
			if strings.EqualFold(sp.Design, "all") {
				designs = jumanji.AllDesigns()
			} else {
				d, err := jumanji.ParseDesign(sp.Design)
				if err != nil {
					return nil, err
				}
				designs = []jumanji.Design{d}
			}
			results, err := jumanji.Compare(opts, compareWorkload(sp), designs...)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			fmt.Fprintf(&buf, "%-22s %14s %14s %14s %12s\n",
				"design", "tail/deadline", "speedup", "vulnerability", "energy (mJ)")
			for _, r := range results {
				fmt.Fprintf(&buf, "%-22s %14.2f %14.3f %14.2f %12.2f\n",
					r.Design, r.WorstNormTail, r.SpeedupVsStatic, r.Vulnerability, r.Energy.Total()/1e6)
			}
			return buf.Bytes(), nil
		},
		Repro: func(sp *Spec, label string, cell int) string {
			return fmt.Sprintf("jumanji-sim -design %s -lc %s -load %s -epochs %d -warmup %d -seed %d -vms %d -keep-going -cell '%s:%d'",
				strings.ToLower(sp.Design), sp.LC, sp.Load, sp.Epochs, sp.Warmup, sp.Seed, sp.VMs, label, cell)
		},
	}
}

// compareWorkload mirrors jumanji-sim's workload selection.
func compareWorkload(sp *Spec) func(jumanji.Options) (jumanji.Workload, error) {
	if strings.EqualFold(sp.LC, "datacenter") {
		return jumanji.Datacenter(sp.Seed)
	}
	if sp.VMs != 4 {
		return jumanji.Scaling(sp.VMs, sp.Seed)
	}
	if strings.EqualFold(sp.LC, "mixed") {
		return jumanji.MixedCaseStudy(sp.Seed)
	}
	return jumanji.CaseStudy(sp.LC, sp.Seed)
}

// harnessOptions maps a normalized figure/table spec onto the harness's
// protocol scale.
func harnessOptions(sp *Spec, env Env) harness.Options {
	o := harness.Options{
		Mixes: sp.Mixes, Epochs: sp.Epochs, Warmup: sp.Warmup, Seed: sp.Seed,
		Parallel: 1, // serial cells: deterministic journal record order
		Engine:   env.Engine,
		Chaos:    env.Chaos,
	}
	o.Progress = env.Progress
	return o
}

// validateScale fills QuickOptions defaults into a figure/table spec.
func validateScale(sp *Spec) error {
	q := harness.QuickOptions()
	if sp.Mixes == 0 {
		sp.Mixes = q.Mixes
	}
	if sp.Epochs == 0 {
		sp.Epochs = q.Epochs
	}
	if sp.Warmup == 0 {
		sp.Warmup = q.Warmup
	}
	if sp.Seed == 0 {
		sp.Seed = q.Seed
	}
	if sp.Mixes <= 0 || sp.Epochs <= 0 || sp.Warmup < 0 || sp.Warmup >= sp.Epochs {
		return fmt.Errorf("mixes=%d epochs=%d warmup=%d: want positive mixes and 0 <= warmup < epochs",
			sp.Mixes, sp.Epochs, sp.Warmup)
	}
	if sp.Design != "" || sp.LC != "" || sp.Load != "" || sp.VMs != 0 {
		return fmt.Errorf("figure/table specs take no design/lc/load/vms")
	}
	return nil
}

func figureRunner() *Runner {
	return &Runner{
		Name:        "figure",
		Description: "regenerate one paper figure (cmd/figures' text rendering)",
		Validate: func(sp *Spec) error {
			ok := false
			for _, f := range harness.Figures() {
				if sp.Fig == f {
					ok = true
				}
			}
			if !ok {
				return fmt.Errorf("no figure %d (figures: %v)", sp.Fig, harness.Figures())
			}
			if sp.Table != 0 {
				return fmt.Errorf("figure specs take no table")
			}
			return validateScale(sp)
		},
		Run: func(ctx context.Context, sp *Spec, env Env) ([]byte, error) {
			var buf bytes.Buffer
			if err := harness.Render(&buf, sp.Fig, harnessOptions(sp, env)); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		},
		Repro: func(sp *Spec, label string, cell int) string {
			return fmt.Sprintf("figures -fig %d -seed %d -keep-going -cell '%s:%d'",
				sp.Fig, sp.Seed, label, cell)
		},
	}
}

func tableRunner() *Runner {
	return &Runner{
		Name:        "table",
		Description: "regenerate one paper table (cmd/figures' text rendering)",
		Validate: func(sp *Spec) error {
			ok := false
			for _, t := range harness.Tables() {
				if sp.Table == t {
					ok = true
				}
			}
			if !ok {
				return fmt.Errorf("no table %d (tables: %v)", sp.Table, harness.Tables())
			}
			if sp.Fig != 0 {
				return fmt.Errorf("table specs take no fig")
			}
			return validateScale(sp)
		},
		Run: func(ctx context.Context, sp *Spec, env Env) ([]byte, error) {
			var buf bytes.Buffer
			if err := harness.RenderTableN(&buf, sp.Table, harnessOptions(sp, env)); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		},
		Repro: func(sp *Spec, label string, cell int) string {
			return fmt.Sprintf("figures -table %d -seed %d -keep-going -cell '%s:%d'",
				sp.Table, sp.Seed, label, cell)
		},
	}
}
