// Package jumanji is a from-scratch reproduction of "Jumanji: The Case for
// Dynamic NUCA in the Datacenter" (Schwedock & Beckmann, MICRO 2020).
//
// It provides the paper's LLC management designs — the Jumanji D-NUCA
// placement algorithm plus the Static, Adaptive, VM-Part, and Jigsaw
// baselines — on top of a complete simulated substrate: a tiled 20-core
// machine with a distributed LLC, mesh NoC, DRRIP banks, virtual-cache
// placement hardware, utility monitors, feedback controllers, synthetic
// SPEC-CPU2006-like batch workloads, and TailBench-like latency-critical
// workloads (see DESIGN.md for the substitutions).
//
// The quickest way in:
//
//	opts := jumanji.DefaultOptions()
//	wl, _ := jumanji.CaseStudy("xapian", 1)
//	results, _ := jumanji.Compare(opts, wl, jumanji.Static, jumanji.Jumanji)
//	fmt.Println(results[1].SpeedupVsStatic, results[1].WorstNormTail)
//
// Everything heavier (per-figure benchmark harnesses, attack demos) is
// reachable from this package too; see cmd/figures and the examples.
package jumanji

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"jumanji/internal/chaos"
	"jumanji/internal/core"
	"jumanji/internal/obs"
	"jumanji/internal/sim"
	"jumanji/internal/sweep"
	"jumanji/internal/system"
	"jumanji/internal/tailbench"
	"jumanji/internal/topo"
	"jumanji/internal/workload"
)

// Design identifies an LLC management design from the paper's evaluation.
type Design int

// The designs of Sec. VII, plus the two Jumanji variants of Fig. 16.
const (
	// Static: four fixed ways per latency-critical app, everything striped
	// (the normalization baseline).
	Static Design = iota
	// Adaptive: S-NUCA with feedback-controlled latency-critical
	// allocations, batch unpartitioned.
	Adaptive
	// VMPart: Adaptive plus per-VM way-partitioning of batch data.
	VMPart
	// Jigsaw: data-movement-minimizing D-NUCA, tail- and security-oblivious.
	Jigsaw
	// Jumanji: the paper's design — deadlines via feedback control, VM bank
	// isolation, Jigsaw placement within VMs.
	Jumanji
	// JumanjiInsecure: Jumanji without bank isolation (Fig. 16).
	JumanjiInsecure
	// JumanjiIdealBatch: the infeasible batch-placement upper bound (Fig. 16).
	JumanjiIdealBatch
)

// AllDesigns lists every design in evaluation order.
func AllDesigns() []Design {
	return []Design{Static, Adaptive, VMPart, Jigsaw, Jumanji, JumanjiInsecure, JumanjiIdealBatch}
}

// String returns the design's paper name.
func (d Design) String() string {
	switch d {
	case Static:
		return "Static"
	case Adaptive:
		return "Adaptive"
	case VMPart:
		return "VM-Part"
	case Jigsaw:
		return "Jigsaw"
	case Jumanji:
		return "Jumanji"
	case JumanjiInsecure:
		return "Jumanji: Insecure"
	case JumanjiIdealBatch:
		return "Jumanji: Ideal Batch"
	}
	return fmt.Sprintf("Design(%d)", int(d))
}

// ParseDesign resolves a (case-insensitive) design name.
func ParseDesign(name string) (Design, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	for _, d := range AllDesigns() {
		if strings.ToLower(d.String()) == key {
			return d, nil
		}
	}
	switch key {
	case "vmpart", "vm_part":
		return VMPart, nil
	case "insecure", "jumanji-insecure":
		return JumanjiInsecure, nil
	case "ideal", "ideal-batch", "jumanji-ideal-batch":
		return JumanjiIdealBatch, nil
	}
	return 0, fmt.Errorf("jumanji: unknown design %q", name)
}

func (d Design) placer() core.Placer {
	switch d {
	case Static:
		return core.StaticPlacer{}
	case Adaptive:
		return core.AdaptivePlacer{}
	case VMPart:
		return core.VMPartPlacer{}
	case Jigsaw:
		return core.JigsawPlacer{}
	case Jumanji:
		return core.JumanjiPlacer{}
	case JumanjiInsecure:
		return core.JumanjiPlacer{Insecure: true}
	case JumanjiIdealBatch:
		return core.IdealBatchPlacer{}
	}
	panic(fmt.Sprintf("jumanji: invalid design %d", int(d)))
}

// placerFor returns d's placer, wrapped hierarchically when sharding is
// enabled. Only the bank-placing D-NUCA designs decompose by region; the
// S-NUCA designs (Static, Adaptive, VM-Part) stripe data across the whole
// chip by construction, and the ideal-batch bound needs the global overlay,
// so those always run flat.
func (o Options) placerFor(d Design) core.Placer {
	if o.ShardRegionW <= 0 && o.ShardRegionH <= 0 {
		return d.placer()
	}
	switch d {
	case Jigsaw, Jumanji, JumanjiInsecure:
		return core.ShardedPlacer{
			Inner:   d.placer().(core.ScratchPlacer),
			RegionW: o.ShardRegionW, RegionH: o.ShardRegionH,
		}
	}
	return d.placer()
}

// Options configures the simulated machine and run length. The zero value
// is not meaningful; start from DefaultOptions.
type Options struct {
	// MeshW×MeshH tiles, each with one core and one LLC bank (Table II:
	// 5×4).
	MeshW, MeshH int
	// BankMB is LLC bank capacity in MiB (Table II: 1).
	BankMB float64
	// Ways is per-bank associativity (Table II: 32).
	Ways int
	// RouterDelay is the NoC router pipeline depth in cycles (Table II: 2;
	// Fig. 18 sweeps 1–3).
	RouterDelay int
	// HighLoad selects the Table III high-QPS (≈50% utilization) operating
	// point for latency-critical applications; false selects low (≈10%).
	HighLoad bool
	// ShardRegionW×ShardRegionH, when positive, runs the D-NUCA designs
	// (Jigsaw and the Jumanji variants) hierarchically: the mesh is
	// partitioned into contiguous regions of at most these dimensions, VMs
	// are assigned to regions, and the flat placer runs within each region
	// (core.ShardedPlacer). Zero (the default) keeps flat placement —
	// required for byte-identical historical figures; sharding is what makes
	// 100s-of-banks meshes affordable. A dimension left zero while the other
	// is set defaults to core.DefaultRegionDim.
	ShardRegionW, ShardRegionH int
	// Epochs is the number of 100 ms reconfiguration epochs to simulate,
	// and Warmup how many of them are excluded from statistics.
	Epochs, Warmup int
	// Seed drives workload randomness; equal seeds reproduce runs exactly.
	Seed int64
	// Parallel is the worker count for fanning independent runs (Compare's
	// designs, TailVsAllocation's sweep points) across cores. 0 (the
	// default) uses one worker per CPU; 1 recovers the serial path. Results
	// — including everything recorded into the deterministic sinks — are
	// bit-identical across worker counts.
	Parallel int
	// Sinks are the optional observability sinks (internal/obs): the
	// metrics registry, the JSONL decision log, the Chrome trace exporter,
	// the flight-recorder time-series store, and the placement-provenance
	// log, plus wall-clock Spans, a live Progress counter, and publish hooks
	// for live endpoints. All nil by default; set them by name
	// (opts.Metrics = reg). Runs sharing one Trace (e.g. Compare) render as
	// stacked per-design lanes. See the "Observability" section of
	// README.md.
	obs.Sinks
	// Engine, when set, layers crash safety over Compare's and
	// TailVsAllocation's fan-outs (internal/sweep): a fsync'd journal of
	// completed cells, resume from a prior journal, keep-going failure
	// isolation, and per-cell watchdog deadlines. A degraded run surfaces
	// as a *sweep.RunError return. Nil is the historical zero-overhead
	// path.
	Engine *sweep.Engine
	// Chaos injects deterministic simulator faults (internal/chaos) into
	// every run; pair with CheckInvariants to verify they are caught.
	Chaos *chaos.Injector
	// CheckInvariants enables the per-epoch invariant suite inside runs:
	// MRC validity, placement capacity, finite CPI, controller bounds, and
	// reconfiguration liveness, each panicking a *system.InvariantError.
	CheckInvariants bool
	// Ctx, when non-nil, cancels in-flight runs (polled once per epoch and
	// every few thousand detailed-simulator events).
	Ctx context.Context
}

// DefaultOptions returns the paper's configuration with a run length that
// keeps a full design comparison under a second.
func DefaultOptions() Options {
	return Options{
		MeshW:       5,
		MeshH:       4,
		BankMB:      1,
		Ways:        32,
		RouterDelay: 2,
		HighLoad:    true,
		Epochs:      60,
		Warmup:      20,
		Seed:        1,
	}
}

func (o Options) validate() error {
	switch {
	case o.MeshW <= 0 || o.MeshH <= 0:
		return fmt.Errorf("jumanji: invalid mesh %dx%d", o.MeshW, o.MeshH)
	case o.BankMB <= 0 || o.Ways <= 0:
		return fmt.Errorf("jumanji: invalid bank geometry (%g MB, %d ways)", o.BankMB, o.Ways)
	case o.RouterDelay <= 0:
		return fmt.Errorf("jumanji: invalid router delay %d", o.RouterDelay)
	case o.ShardRegionW < 0 || o.ShardRegionH < 0:
		return fmt.Errorf("jumanji: invalid shard region %dx%d", o.ShardRegionW, o.ShardRegionH)
	case o.Epochs <= 0 || o.Warmup < 0 || o.Warmup >= o.Epochs:
		return fmt.Errorf("jumanji: invalid epochs/warmup %d/%d", o.Epochs, o.Warmup)
	}
	return nil
}

func (o Options) systemConfig() system.Config {
	cfg := system.DefaultConfig()
	cfg.Machine = core.Machine{
		Mesh:        topo.NewMesh(o.MeshW, o.MeshH),
		BankBytes:   o.BankMB * (1 << 20),
		WaysPerBank: o.Ways,
	}
	cfg.NoC.RouterDelay = sim.Time(o.RouterDelay)
	cfg.Seed = o.Seed
	cfg.Sinks = o.Sinks
	cfg.Chaos = o.Chaos
	cfg.CheckInvariants = o.CheckInvariants
	cfg.Ctx = o.Ctx
	return cfg
}

// Workload describes the applications sharing the machine.
type Workload struct {
	inner system.Workload
}

// VM declares one trust domain's applications for NewWorkload.
type VM struct {
	// LatCrit names TailBench applications (see LatCritApps).
	LatCrit []string
	// Batch names SPEC applications (see BatchApps), or uses "random" to
	// draw one from the profile set.
	Batch []string
}

// LatCritApps lists the available latency-critical application names
// (Table III).
func LatCritApps() []string {
	out := make([]string, len(tailbench.Profiles))
	for i, p := range tailbench.Profiles {
		out[i] = p.Name
	}
	return out
}

// BatchApps lists the available batch application names (SPEC CPU2006).
func BatchApps() []string {
	out := make([]string, len(workload.Profiles))
	for i, p := range workload.Profiles {
		out[i] = p.Name
	}
	return out
}

// NewWorkload builds a workload from explicit VM declarations. Batch names
// may be "random" to draw from the SPEC profiles with the given seed.
func NewWorkload(opts Options, vms []VM, seed int64) (Workload, error) {
	if err := opts.validate(); err != nil {
		return Workload{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	machine := opts.systemConfig().Machine
	specs := make([]system.VMSpec, len(vms))
	var mix []workload.Profile
	for i, vm := range vms {
		specs[i] = system.VMSpec{LatCrit: vm.LatCrit, Batch: len(vm.Batch)}
		for _, name := range vm.Batch {
			if name == "random" {
				mix = append(mix, workload.Profiles[rng.Intn(len(workload.Profiles))])
				continue
			}
			p, ok := workload.ByName(name)
			if !ok {
				return Workload{}, fmt.Errorf("jumanji: unknown batch app %q", name)
			}
			mix = append(mix, p)
		}
	}
	wl, err := system.BuildVMWorkload(machine, specs, mix, opts.HighLoad)
	if err != nil {
		return Workload{}, err
	}
	return Workload{inner: wl}, nil
}

// CaseStudy builds the Sec. III case study: four VMs, each with one
// instance of the named latency-critical application and four random batch
// applications. The load level comes from Options at run time.
func CaseStudy(latCrit string, seed int64) func(Options) (Workload, error) {
	return func(opts Options) (Workload, error) {
		if err := opts.validate(); err != nil {
			return Workload{}, err
		}
		rng := rand.New(rand.NewSource(seed))
		wl, err := system.CaseStudyWorkload(opts.systemConfig().Machine, latCrit, rng, opts.HighLoad)
		if err != nil {
			return Workload{}, err
		}
		return Workload{inner: wl}, nil
	}
}

// MixedCaseStudy builds the Fig. 13 "Mixed" configuration: four VMs with
// four different latency-critical applications.
func MixedCaseStudy(seed int64) func(Options) (Workload, error) {
	return func(opts Options) (Workload, error) {
		if err := opts.validate(); err != nil {
			return Workload{}, err
		}
		rng := rand.New(rand.NewSource(seed))
		wl, err := system.MixedLCWorkload(opts.systemConfig().Machine, rng, opts.HighLoad)
		if err != nil {
			return Workload{}, err
		}
		return Workload{inner: wl}, nil
	}
}

// Datacenter builds the big-mesh scaling workload: one VM per ~9 tiles (at
// least 4), each with one latency-critical application cycling through the
// TailBench profiles and four random batch applications. On the paper's 5×4
// machine this degenerates to the familiar 4-VM shape; on a 16×16 mesh it
// fills the chip with 28 trust domains.
func Datacenter(seed int64) func(Options) (Workload, error) {
	return func(opts Options) (Workload, error) {
		if err := opts.validate(); err != nil {
			return Workload{}, err
		}
		rng := rand.New(rand.NewSource(seed))
		wl, err := system.DatacenterWorkload(opts.systemConfig().Machine, rng, opts.HighLoad)
		if err != nil {
			return Workload{}, err
		}
		return Workload{inner: wl}, nil
	}
}

// Scaling builds the Fig. 17 VM-scaling configurations (1, 2, 4, 5, 10, or
// 12 VMs over the same 20 applications).
func Scaling(nVMs int, seed int64) func(Options) (Workload, error) {
	return func(opts Options) (Workload, error) {
		if err := opts.validate(); err != nil {
			return Workload{}, err
		}
		rng := rand.New(rand.NewSource(seed))
		wl, err := system.ScalingWorkload(opts.systemConfig().Machine, nVMs, rng, opts.HighLoad)
		if err != nil {
			return Workload{}, err
		}
		return Workload{inner: wl}, nil
	}
}

// Migrate wraps a workload builder so that application `app` (its index in
// the built workload) moves its thread to core `toCore` at the start of the
// given epoch. Like prior D-NUCAs, Jumanji migrates LLC allocations along
// with threads (Sec. IV-B): the next reconfiguration re-places the app's
// data near its new core.
func Migrate(build func(Options) (Workload, error), epoch, app, toCore int) func(Options) (Workload, error) {
	return func(opts Options) (Workload, error) {
		wl, err := build(opts)
		if err != nil {
			return Workload{}, err
		}
		if app < 0 || app >= len(wl.inner.Apps) {
			return Workload{}, fmt.Errorf("jumanji: migration names unknown app %d", app)
		}
		wl.inner.Migrations = append(wl.inner.Migrations, system.Migration{
			Epoch: epoch, App: app, To: topo.TileID(toCore),
		})
		return wl, nil
	}
}

// AppMetrics reports one application's results.
type AppMetrics struct {
	Name            string
	VM              int
	LatencyCritical bool
	// NormTail is p95 latency / deadline for latency-critical apps
	// (> 1 means a violated deadline).
	NormTail float64
	// IPC and IPCAlone support weighted-speedup math for batch apps.
	IPC, IPCAlone float64
	// AllocMB is the mean LLC allocation.
	AllocMB float64
	// MeanHops is the mean one-way NoC distance to the app's data.
	MeanHops float64
	// Vulnerability is the mean count of other-VM applications sharing the
	// banks this app accesses.
	Vulnerability float64
}

// EnergyNJ is dynamic data-movement energy by component, in nanojoules
// (Fig. 15's split).
type EnergyNJ struct {
	L1, L2, LLC, NoC, Mem float64
}

// Total sums the components.
func (e EnergyNJ) Total() float64 { return e.L1 + e.L2 + e.LLC + e.NoC + e.Mem }

// TimePoint is one epoch's observables (Fig. 4 timelines).
type TimePoint struct {
	Epoch int
	// LatCritLatNorm is the mean latency/deadline across latency-critical
	// apps that completed requests this epoch.
	LatCritLatNorm float64
	// LatCritAllocMB is the mean allocation across latency-critical apps.
	LatCritAllocMB float64
	// Vulnerability is the epoch's access-weighted attacker count.
	Vulnerability float64
}

// Result is a completed run.
type Result struct {
	Design Design
	Apps   []AppMetrics
	// BatchWeightedSpeedup is Σ IPC/IPCAlone over batch applications.
	BatchWeightedSpeedup float64
	// SpeedupVsStatic is the batch weighted speedup normalized to the
	// Static design on the same workload (filled by Compare; zero from Run).
	SpeedupVsStatic float64
	// WorstNormTail is the worst latency-critical p95/deadline.
	WorstNormTail float64
	// Vulnerability is the run's access-weighted attacker count (Fig. 14).
	Vulnerability float64
	// Energy is the dynamic data-movement energy (Fig. 15).
	Energy EnergyNJ
	// ReconfigMoved is the mean fraction of each app's cached bytes re-homed
	// per reconfiguration (post-warmup reconfigurations only) — the
	// background-walk cost a design imposes when it moves data.
	ReconfigMoved float64
	// Timeline has one point per epoch (Fig. 4).
	Timeline []TimePoint
}

// MeetsDeadlines reports whether every latency-critical application stayed
// within `slack`× its deadline (use 1.0 for strict).
func (r *Result) MeetsDeadlines(slack float64) bool {
	return r.WorstNormTail <= slack
}

// Run simulates one design over a workload.
func Run(opts Options, build func(Options) (Workload, error), d Design) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	wl, err := build(opts)
	if err != nil {
		return nil, err
	}
	return runInner(opts, wl, d)
}

func runInner(opts Options, wl Workload, d Design) (*Result, error) {
	rr := system.Run(opts.systemConfig(), wl.inner, opts.placerFor(d), opts.Epochs, opts.Warmup)
	return convert(d, rr), nil
}

// Compare runs several designs over the same workload. If Static is among
// the designs (or as the implicit baseline when absent), every result's
// SpeedupVsStatic is filled in.
//
// The design runs are independent, so Compare fans them across
// opts.Parallel workers; each run records into private observability sinks
// merged back in design order, keeping output identical to a serial run.
// With opts.Engine set, completed runs are journalled and a degraded sweep
// returns a *sweep.RunError (a *sweep.OnlyDone after single-cell repro).
func Compare(opts Options, build func(Options) (Workload, error), designs ...Design) ([]*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if len(designs) == 0 {
		designs = AllDesigns()
	}
	wl, err := build(opts)
	if err != nil {
		return nil, err
	}
	// One job per design, plus the implicit Static baseline when absent —
	// appended last, exactly where the serial path ran it, so the merged
	// sink output is unchanged.
	jobs := append([]Design(nil), designs...)
	staticAt := -1
	for i, d := range designs {
		if d == Static {
			staticAt = i
		}
	}
	if staticAt == -1 {
		staticAt = len(jobs)
		jobs = append(jobs, Static)
	}
	names := make([]string, len(jobs))
	for i, d := range jobs {
		names[i] = d.String()
	}
	all, err := sweep.Cells(opts.Engine, opts.Sinks, "compare/"+strings.Join(names, "+"),
		opts.Seed, opts.Parallel, len(jobs),
		func(i int, c *obs.Cell, ctx context.Context) *Result {
			co := opts
			co.Parallel = 1
			co.Sinks = c.Sinks
			if ctx != nil { // a nil ctx keeps any caller-installed opts.Ctx
				co.Ctx = ctx
			}
			r, err := runInner(co, wl, jobs[i])
			if err != nil {
				panic(err) // runInner cannot fail on an already-validated config
			}
			return r
		})
	if err != nil {
		return nil, err
	}
	static := all[staticAt]
	results := all[:len(designs):len(designs)]
	for _, r := range results {
		r.SpeedupVsStatic = r.BatchWeightedSpeedup / static.BatchWeightedSpeedup
	}
	return results, nil
}

func convert(d Design, rr *system.RunResult) *Result {
	out := &Result{
		Design:               d,
		BatchWeightedSpeedup: rr.BatchWeightedSpeedup,
		WorstNormTail:        rr.WorstNormTail,
		Vulnerability:        rr.Vulnerability,
		ReconfigMoved:        rr.ReconfigMoved,
		Energy: EnergyNJ{
			L1: rr.Energy.L1, L2: rr.Energy.L2, LLC: rr.Energy.LLC,
			NoC: rr.Energy.NoC, Mem: rr.Energy.Mem,
		},
	}
	lcIdx := make(map[int]bool)
	for i, a := range rr.Apps {
		if a.LatencyCritical {
			lcIdx[i] = true
		}
		out.Apps = append(out.Apps, AppMetrics{
			Name:            a.Name,
			VM:              int(a.VM),
			LatencyCritical: a.LatencyCritical,
			NormTail:        a.NormTail,
			IPC:             a.MeanIPC,
			IPCAlone:        a.IPCAlone,
			AllocMB:         a.MeanAllocMB,
			MeanHops:        a.MeanHops,
			Vulnerability:   a.Vulnerability,
		})
	}
	for _, s := range rr.Timeline {
		tp := TimePoint{Epoch: s.Epoch, Vulnerability: s.Vulnerability}
		nLat, nAlloc := 0, 0
		// The timeline series run in app order (deterministic float sums);
		// NaN marks apps with no latency sample that epoch.
		for i, v := range s.LatNorm {
			if lcIdx[i] && !math.IsNaN(v) {
				tp.LatCritLatNorm += v
				nLat++
			}
		}
		for i, v := range s.AllocMB {
			if lcIdx[i] {
				tp.LatCritAllocMB += v
				nAlloc++
			}
		}
		if nLat > 0 {
			tp.LatCritLatNorm /= float64(nLat)
		}
		if nAlloc > 0 {
			tp.LatCritAllocMB /= float64(nAlloc)
		}
		out.Timeline = append(out.Timeline, tp)
	}
	return out
}
