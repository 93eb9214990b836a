package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"time"

	"jumanji/internal/core"
	"jumanji/internal/parallel"
	"jumanji/internal/system"
	"jumanji/internal/tailbench"
	"jumanji/internal/topo"
)

// gridCell describes one op of a figure grid: one mix of one workload
// configuration on one mesh, run under every design.
type gridCell struct {
	label string // workload configuration, as the harness labels it
	mix   int
	w, h  int
	build func(m core.Machine, rng *rand.Rand) (system.Workload, error)
}

// gridSpec sizes a figure-grid workload.
type gridSpec struct {
	cells          []gridCell
	placers        []core.Placer
	epochs, warmup int
}

// fig13Spec is Fig. 13's cell grid: every latency-critical app's case
// study plus the Mixed configuration, at high and low load, each mix run
// under the five main designs on the 5×4 machine.
func fig13Spec(smoke bool) gridSpec {
	mixes, epochs, warmup := 3, 40, 15 // the quick protocol's run length
	lcs := make([]string, 0, len(tailbench.Profiles)+1)
	for _, p := range tailbench.Profiles {
		lcs = append(lcs, p.Name)
	}
	lcs = append(lcs, "mixed")
	loads := []bool{true, false}
	if smoke {
		mixes, epochs, warmup = 1, 6, 2
		lcs, loads = []string{lcs[0], "mixed"}, []bool{true}
	}
	var cells []gridCell
	for _, high := range loads {
		for _, lc := range lcs {
			for mix := 0; mix < mixes; mix++ {
				cells = append(cells, caseCell(lc, high, mix))
			}
		}
	}
	return gridSpec{
		cells: cells,
		placers: []core.Placer{
			core.StaticPlacer{}, core.AdaptivePlacer{}, core.VMPartPlacer{},
			core.JigsawPlacer{}, core.JumanjiPlacer{},
		},
		epochs: epochs, warmup: warmup,
	}
}

func caseCell(lc string, high bool, mix int) gridCell {
	if lc == "mixed" {
		return gridCell{
			label: "mixed/" + loadLabel(high), mix: mix, w: 5, h: 4,
			build: func(m core.Machine, rng *rand.Rand) (system.Workload, error) {
				return system.MixedLCWorkload(m, rng, high)
			},
		}
	}
	return gridCell{
		label: "case/" + lc + "/" + loadLabel(high), mix: mix, w: 5, h: 4,
		build: func(m core.Machine, rng *rand.Rand) (system.Workload, error) {
			return system.CaseStudyWorkload(m, lc, rng, high)
		},
	}
}

// fig19Spec is Fig. 19's fleet grid: the datacenter workload on meshes
// from 6×6 to 16×16, the D-NUCA designs placing through ShardedPlacer.
// Two 16×16 mixes make the heavy cells that set the wall time.
func fig19Spec(smoke bool) gridSpec {
	meshes := []struct{ n, mixes int }{{6, 1}, {8, 1}, {12, 1}, {16, 2}}
	epochs, warmup := 16, 6
	if smoke {
		meshes = meshes[:2]
		epochs, warmup = 4, 1
	}
	var cells []gridCell
	for _, m := range meshes {
		for mix := 0; mix < m.mixes; mix++ {
			cells = append(cells, gridCell{
				label: fmt.Sprintf("datacenter/%dx%d/high", m.n, m.n), mix: mix, w: m.n, h: m.n,
				build: func(m core.Machine, rng *rand.Rand) (system.Workload, error) {
					return system.DatacenterWorkload(m, rng, true)
				},
			})
		}
	}
	return gridSpec{
		cells: cells,
		placers: []core.Placer{
			core.StaticPlacer{}, core.AdaptivePlacer{}, core.VMPartPlacer{},
			core.ShardedPlacer{Inner: core.JigsawPlacer{}},
			core.ShardedPlacer{Inner: core.JumanjiPlacer{}},
		},
		epochs: epochs, warmup: warmup,
	}
}

func loadLabel(high bool) string {
	if high {
		return "high"
	}
	return "low"
}

// cellSeed derives a cell's seed from the run's seed and the cell's
// coordinates, the way the harness does, so seed 1 draws the same mixes and
// arrivals as cmd/figures.
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

// gridSetup is the setup of the figure-grid workload spec describes.
func gridSetup(spec func(smoke bool) gridSpec) setupFunc {
	return func(e env, _ *tracer) (pass, time.Duration, error) { return setupGrid(spec(e.smoke), e) }
}

// gridInput is one cell's generated inputs.
type gridInput struct {
	cfg system.Config
	wl  system.Workload
}

type gridPass struct {
	spec    gridSpec
	inputs  []gridInput
	workers int
}

// setupGrid builds each distinct mesh's distance tables once and generates
// every cell's workload.
func setupGrid(spec gridSpec, e env) (pass, time.Duration, error) {
	var gen time.Duration
	meshes := map[[2]int]topo.Mesh{}
	p := &gridPass{spec: spec, workers: e.workers, inputs: make([]gridInput, len(spec.cells))}
	for i, c := range spec.cells {
		mesh, ok := meshes[[2]int{c.w, c.h}]
		if !ok {
			mesh = topo.NewMesh(c.w, c.h)
			meshes[[2]int{c.w, c.h}] = mesh
		}
		cfg := system.DefaultConfig()
		cfg.Machine.Mesh = mesh
		cfg.Seed = cellSeed(e.seed, c.label+"/arrivals", c.mix)
		rng := rand.New(rand.NewSource(cellSeed(e.seed, c.label+"/mix", c.mix)))
		t0 := time.Now()
		wl, err := c.build(cfg.Machine, rng)
		gen += time.Since(t0)
		if err != nil {
			return nil, gen, fmt.Errorf("%s mix %d: %w", c.label, c.mix, err)
		}
		p.inputs[i] = gridInput{cfg: cfg, wl: wl}
	}
	return p, gen, nil
}

// run fans the cells over the workers with parallel.Map; each cell runs
// system.Run once per design, as harness.runMixCells does.
func (p *gridPass) run(tr *tracer, root int) []opResult {
	return parallel.Map(p.workers, len(p.inputs), func(i int) opResult {
		return protect(func() opResult { return p.cell(tr, root, i) })
	})
}

func (p *gridPass) cell(tr *tracer, root, i int) opResult {
	in := p.inputs[i]
	t0 := time.Now()
	cell := tr.begin("cell", p.spec.cells[i].label, root, i)
	defer tr.end(cell)
	results := make([]*system.RunResult, len(p.spec.placers))
	for k, pl := range p.spec.placers {
		run := tr.begin("system.run", pl.Name(), cell, i)
		if tr != nil {
			pl = newTimedPlacer(pl, tr, run, i)
		}
		results[k] = system.Run(in.cfg, in.wl, pl, p.spec.epochs, p.spec.warmup)
		tr.end(run)
		tr.count("system.epochs", int64(p.spec.epochs))
	}
	latency := time.Since(t0)

	chk := tr.begin("bench.check", "", cell, i)
	defer tr.end(chk)
	d := newDigester()
	for k, r := range results {
		if err := checkRun(r, p.spec.placers[k].Name(), p.spec.epochs); err != nil {
			return opResult{err: err}
		}
		d.runResult(r)
	}
	return opResult{digest: d.sum(), latency: latency}
}

// checkRun rejects a result that cannot be a run of the design.
func checkRun(r *system.RunResult, design string, epochs int) error {
	switch {
	case r == nil:
		return fmt.Errorf("%s: no result", design)
	case r.Design != design:
		return fmt.Errorf("result names design %q, want %q", r.Design, design)
	case len(r.Timeline) != epochs:
		return fmt.Errorf("%s: %d timeline samples, want %d", design, len(r.Timeline), epochs)
	case !(r.BatchWeightedSpeedup > 0):
		return fmt.Errorf("%s: batch weighted speedup %g", design, r.BatchWeightedSpeedup)
	}
	return nil
}

func (p *gridPass) close() error { return nil }
