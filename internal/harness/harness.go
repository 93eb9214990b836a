// Package harness regenerates every table and figure of the paper's
// evaluation (Sec. VIII). Each FigNN function runs the experiment and
// returns a structured, printable result, or the error that stopped its
// sweep (invalid options, a degraded run, single-cell repro); Render is the
// text rendering cmd/figures and jumanji-serve share, and bench_test.go
// wraps the FigNN functions as benchmarks. Scale (number of random batch
// mixes, epochs per run) is configurable so the full paper protocol and a
// quick smoke run share one code path.
//
// The protocol is embarrassingly parallel — random batch mixes × designs ×
// sweep points — and every figure fans its independent cells across a
// worker pool (internal/parallel). Each cell derives its own RNG seeds from
// Options.Seed and the cell's identity (cellSeed) and records into private
// observability sinks (sweep.Cells), merged back in cell order, so results
// and sink output are bit-identical to a serial run for any Parallel setting.
package harness

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"

	"jumanji/internal/core"
	"jumanji/internal/stats"
	"jumanji/internal/sweep"
	"jumanji/internal/system"
	"jumanji/internal/tailbench"
	"jumanji/internal/topo"
)

// Options scales the experiment protocol.
type Options struct {
	// Mixes is the number of random batch mixes per configuration
	// (the paper uses 40).
	Mixes int
	// MeshW×MeshH overrides the machine topology for every figure (both
	// zero — the default — keeps the paper's 5×4). Figures with their own
	// topology sweep (Fig. 19) ignore it. Big meshes run the paper's fixed
	// 20-app workloads on a larger chip; pair with the D-NUCA designs only
	// if the superlinear flat-placement cost is acceptable. An override
	// below 20 tiles is rejected: those workloads would not fit.
	MeshW, MeshH int
	// Epochs and Warmup control each run's length.
	Epochs, Warmup int
	// Seed seeds mix generation and arrivals.
	Seed int64
	// Env is the run's environment (sweep.Env), shared by every run the
	// harness performs: all runs count into one registry, append to one
	// decision log, sample into one flight recorder, and render as stacked
	// lanes in one trace, and the publish hooks fire after each figure's
	// cell merge.
	sweep.Env
}

// QuickOptions keeps a full figure regeneration in the seconds range.
func QuickOptions() Options {
	return Options{Mixes: 6, Epochs: 40, Warmup: 15, Seed: 1}
}

// PaperOptions matches the paper's protocol scale (40 mixes).
func PaperOptions() Options {
	return Options{Mixes: 40, Epochs: 80, Warmup: 25, Seed: 1}
}

// minMeshTiles is the smallest mesh override the figures accept: the
// paper's workloads place 20 applications (4 VMs of 1 LC + 4 batch, or
// Fig. 17's regroupings of the same 20), one per core.
const minMeshTiles = 20

// Validate rejects options no figure can run: a non-positive scale, a warmup
// not below the run length, or a mesh override that is malformed or below
// the 20 tiles the paper's workloads need.
func (o Options) Validate() error {
	if o.Mixes <= 0 || o.Epochs <= 0 || o.Warmup < 0 || o.Warmup >= o.Epochs {
		return fmt.Errorf("harness: invalid options: mixes=%d epochs=%d warmup=%d", o.Mixes, o.Epochs, o.Warmup)
	}
	if (o.MeshW > 0) != (o.MeshH > 0) || o.MeshW < 0 || o.MeshH < 0 {
		return fmt.Errorf("harness: invalid mesh override %dx%d", o.MeshW, o.MeshH)
	}
	if o.MeshW > 0 && o.MeshW*o.MeshH < minMeshTiles {
		return fmt.Errorf("harness: mesh override %dx%d is below the %d tiles the paper's workloads need", o.MeshW, o.MeshH, minMeshTiles)
	}
	return nil
}

// systemConfig returns the default machine configuration with the
// harness's observability sinks attached. Every figure's run sites build
// their config through this so -events/-tracefile/-metrics cover all of
// them.
func (o Options) systemConfig() system.Config {
	cfg := system.DefaultConfig()
	if o.MeshW > 0 && o.MeshH > 0 {
		cfg.Machine.Mesh = topo.NewMesh(o.MeshW, o.MeshH)
	}
	cfg.Sinks = o.Sinks
	cfg.Chaos = o.Chaos
	cfg.CheckInvariants = o.CheckInvariants
	cfg.Ctx = o.Ctx
	return cfg
}

// cellSeed derives an independent RNG seed for one experiment cell from the
// base seed, the cell's label (workload configuration plus what the seed
// drives, e.g. "case/xapian/high/mix"), and the cell index. Hashing the
// full identity replaces the old sequential base+K*constant scheme: a
// cell's seed depends only on its own coordinates, never on how many cells
// precede it or which figure runs it, so adding figures, reordering runs,
// or changing mix counts leaves every other cell's workload untouched —
// and the same workload configuration draws the same mixes in every figure
// that uses it.
func cellSeed(base int64, label string, cell int) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(base))
	h.Write(b[:])
	io.WriteString(h, label)
	binary.LittleEndian.PutUint64(b[:], uint64(cell))
	h.Write(b[:])
	return int64(h.Sum64())
}

// loadLabel names the load level inside cell labels.
func loadLabel(high bool) string {
	if high {
		return "high"
	}
	return "low"
}

// runCells fans a figure's n independent cells across o.Parallel workers
// through sweep.Cells. Each cell receives a copy of o whose Env is the
// cell's (serial, private sinks); after the pool drains, the sinks merge
// into o's in cell-index order. Both the returned results (indexed by cell)
// and the merged sinks are therefore identical for any worker count. Live
// introspection rides along without touching determinism: o.Spans and
// o.Progress are concurrency-safe and shared by all workers as-is (each
// cell is timed under the "harness.cell" phase), and the publish hooks fire
// once after the merge, when no worker holds the sinks anymore.
//
// The label names this sweep in journal records, resume lookups, failure
// reports, and -cell repro coordinates; it must be stable across runs and
// unique per distinct cell grid. With o.Engine nil the sweep layer is the
// historical zero-overhead fan-out. Invalid options fail here, before any
// cell runs; every other error is sweep.Cells'.
func runCells[T any](o Options, label string, n int, run func(i int, co Options) T) ([]T, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return sweep.Cells(o.Env, label, o.Seed, n, func(i int, cell sweep.Env) T {
		co := o
		co.Env = cell
		return run(i, co)
	})
}

// designs returns the four designs of the main comparison plus Static.
func mainDesigns() []core.Placer {
	return []core.Placer{
		core.StaticPlacer{},
		core.AdaptivePlacer{},
		core.VMPartPlacer{},
		core.JigsawPlacer{},
		core.JumanjiPlacer{},
	}
}

// DesignSummary is one design's aggregate over a set of mixes.
type DesignSummary struct {
	Design string
	// NormTail summarizes worst normalized tails across mixes.
	NormTail stats.BoxPlot
	// Speedup summarizes batch weighted speedup vs Static across mixes.
	Speedup stats.BoxPlot
	// Vulnerability is the mean attacker count across mixes.
	Vulnerability float64
}

// mixBuilder names a workload configuration and builds one mix of it. The
// label keys the per-mix seed derivation, so every figure running the same
// configuration sees the same mixes.
type mixBuilder struct {
	label string
	build func(m core.Machine, rng *rand.Rand) (system.Workload, error)
}

// buildMix builds mix number `mix` of b's configuration and returns the
// workload plus the arrival seed to run it under. Both seeds derive from the
// mix's own coordinates (cellSeed), so every figure running the same
// configuration sees the same mixes and arrivals.
func buildMix(b mixBuilder, m core.Machine, base int64, mix int) (system.Workload, int64) {
	rng := rand.New(rand.NewSource(cellSeed(base, b.label+"/mix", mix)))
	wl, err := b.build(m, rng)
	if err != nil {
		panic(err)
	}
	return wl, cellSeed(base, b.label+"/arrivals", mix)
}

// mixOutcome is one mix cell's raw per-placer results, indexed like the
// placers passed to runMixCells. The fields are exported because cell
// results are gob-encoded into the crash journal (internal/sweep), which
// silently drops unexported fields.
type mixOutcome struct {
	Tails    []float64 // worst normalized tail per placer
	Speedups []float64 // batch weighted speedup vs Static per placer
	Vulns    []float64 // vulnerability per placer
}

// sweepLabel names a runMixCells grid: the workload configuration plus the
// placer set, so e.g. Fig. 5 (main designs) and Fig. 16 (Jumanji variants)
// over the same builder journal under distinct keys.
func sweepLabel(b mixBuilder, placers []core.Placer) string {
	label := b.label + "|"
	for i, p := range placers {
		if i > 0 {
			label += "+"
		}
		label += p.Name()
	}
	return label
}

// runMixCells runs each placer over `o.Mixes` workloads of the builder's
// configuration, one worker-pool cell per mix, and returns the raw per-mix
// outcomes in mix order. Each mix derives its workload and arrival seeds
// from its own coordinates only (cellSeed), so outcome K is independent of
// o.Mixes and of every other cell — the property the parallel engine and
// TestMixPrefixIndependent rely on.
func runMixCells(o Options, b mixBuilder, placers []core.Placer) ([]mixOutcome, error) {
	return runCells(o, sweepLabel(b, placers), o.Mixes, func(mix int, co Options) mixOutcome {
		cfg := co.systemConfig()
		cfgMix := cfg
		wl, seed := buildMix(b, cfg.Machine, o.Seed, mix)
		cfgMix.Seed = seed
		out := mixOutcome{
			Tails:    make([]float64, len(placers)),
			Speedups: make([]float64, len(placers)),
			Vulns:    make([]float64, len(placers)),
		}
		var static *system.RunResult
		results := make([]*system.RunResult, len(placers))
		for i, p := range placers {
			results[i] = system.Run(cfgMix, wl, p, o.Epochs, o.Warmup)
			if p.Name() == "Static" {
				static = results[i]
			}
		}
		if static == nil {
			static = system.Run(cfgMix, wl, core.StaticPlacer{}, o.Epochs, o.Warmup)
		}
		for i, r := range results {
			out.Tails[i] = r.WorstNormTail
			out.Speedups[i] = r.BatchWeightedSpeedup / static.BatchWeightedSpeedup
			out.Vulns[i] = r.Vulnerability
		}
		return out
	})
}

// runMixes aggregates runMixCells into per-design summaries.
func runMixes(o Options, b mixBuilder, placers []core.Placer) ([]DesignSummary, error) {
	outcomes, err := runMixCells(o, b, placers)
	if err != nil {
		return nil, err
	}
	out := make([]DesignSummary, len(placers))
	for i, p := range placers {
		var tails, speedups []float64
		vuln := 0.0
		for _, m := range outcomes {
			if m.Tails[i] > 0 {
				tails = append(tails, m.Tails[i])
			}
			speedups = append(speedups, m.Speedups[i])
			vuln += m.Vulns[i]
		}
		out[i] = DesignSummary{
			Design:        p.Name(),
			Speedup:       stats.Summarize(speedups),
			Vulnerability: vuln / float64(o.Mixes),
		}
		if len(tails) > 0 {
			out[i].NormTail = stats.Summarize(tails)
		}
	}
	return out, nil
}

// caseStudyBuilder builds the 4×(1 LC + 4 B) workload for one LC app.
func caseStudyBuilder(lcName string, highLoad bool) mixBuilder {
	return mixBuilder{
		label: "case/" + lcName + "/" + loadLabel(highLoad),
		build: func(m core.Machine, rng *rand.Rand) (system.Workload, error) {
			return system.CaseStudyWorkload(m, lcName, rng, highLoad)
		},
	}
}

// mixedBuilder builds the Fig. 13 "Mixed" workload.
func mixedBuilder(highLoad bool) mixBuilder {
	return mixBuilder{
		label: "mixed/" + loadLabel(highLoad),
		build: func(m core.Machine, rng *rand.Rand) (system.Workload, error) {
			return system.MixedLCWorkload(m, rng, highLoad)
		},
	}
}

// workloadBuilder builds one row of Figs. 13 and 16: a latency-critical
// app's case study, or "Mixed".
func workloadBuilder(name string, highLoad bool) mixBuilder {
	if name == "Mixed" {
		return mixedBuilder(highLoad)
	}
	return caseStudyBuilder(name, highLoad)
}

// LCNames returns the latency-critical application names in Table III order.
func LCNames() []string {
	out := make([]string, len(tailbench.Profiles))
	for i, p := range tailbench.Profiles {
		out[i] = p.Name
	}
	return out
}

// header prints a figure banner.
func header(w io.Writer, name, caption string) {
	fmt.Fprintf(w, "\n=== %s ===\n%s\n\n", name, caption)
}
