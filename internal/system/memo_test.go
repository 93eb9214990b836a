package system

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"testing"

	"jumanji/internal/core"
	"jumanji/internal/mrc"
	"jumanji/internal/tailbench"
	"jumanji/internal/topo"
	"jumanji/internal/workload"
)

// resetCurveMemo empties the process-wide curve memo.
func resetCurveMemo() {
	curveMemo.mu.Lock()
	curveMemo.m, curveMemo.held = nil, 0
	curveMemo.mu.Unlock()
}

// TestSetupMemoKeysCoverInputs changes one input at a time on a warm memo
// and requires the reference value each time, so a key that dropped an
// input would hand back the warm entry. Every variant is checked to change
// the reference value, and the profile fields MissRatio does not read are
// checked to hit.
func TestSetupMemoKeysCoverInputs(t *testing.T) {
	resetCurveMemo()
	cfg := DefaultConfig()
	unit, points := cfg.Machine.WayBytes(), cfg.CurvePoints()
	b, _ := workload.ByName("429.mcf") // Smooth, so WS matters
	l := tailbench.Profiles[0]
	baseB := b.MissRatio(unit, points).ConvexHull()
	baseL := l.MissRatio(unit, points).ConvexHull()
	warmB, warmL := batchHull(b, unit, points), lcHull(l, unit, points)
	if curveDiff(warmB, baseB) != "" || curveDiff(warmL, baseL) != "" {
		t.Fatal("warm hulls differ from their references")
	}

	curve := func(name string, got, want, base mrc.Curve) {
		t.Helper()
		if curveDiff(want, base) == "" {
			t.Fatalf("%s: the variant's reference equals the warm entry", name)
		}
		if d := curveDiff(got, want); d != "" {
			t.Errorf("%s: memo hull %s", name, d)
		}
	}
	vb := func(f func(*workload.Profile)) workload.Profile { p := b; f(&p); return p }
	for _, c := range []struct {
		name string
		p    workload.Profile
	}{
		{"batch Shape", vb(func(p *workload.Profile) { p.Shape = workload.Cliff })},
		{"batch WS", vb(func(p *workload.Profile) { p.WS *= 1.5 })},
		{"batch Floor", vb(func(p *workload.Profile) { p.Floor += 0.05 })},
		// Stream is the zero Shape: this key differs from l's only in lc.
		{"batch vs lc", workload.Profile{Shape: workload.Stream, WS: l.WS, Floor: l.Floor}},
	} {
		want := c.p.MissRatio(unit, points).ConvexHull()
		base := baseB
		if c.name == "batch vs lc" {
			base = baseL
		}
		curve(c.name, batchHull(c.p, unit, points), want, base)
	}
	vl := func(f func(*tailbench.Profile)) tailbench.Profile { p := l; f(&p); return p }
	for _, c := range []struct {
		name string
		p    tailbench.Profile
	}{
		{"lc WS", vl(func(p *tailbench.Profile) { p.WS *= 1.5 })},
		{"lc Floor", vl(func(p *tailbench.Profile) { p.Floor += 0.05 })},
	} {
		curve(c.name, lcHull(c.p, unit, points), c.p.MissRatio(unit, points).ConvexHull(), baseL)
	}
	curve("unit", batchHull(b, 2*unit, points), b.MissRatio(2*unit, points).ConvexHull(), baseB)
	curve("points", batchHull(b, unit, points+1), b.MissRatio(unit, points+1).ConvexHull(), baseB)

	// Fields MissRatio does not read share the warm entry.
	other := b
	other.Name, other.BaseCPI, other.APKI = "other", 2*b.BaseCPI, 2*b.APKI
	otherL := l
	otherL.Name, otherL.LowQPS, otherL.HighQPS, otherL.NumQueries = "other", 1, 2, 3
	otherL.BaseCPI, otherL.APKI = 2*l.BaseCPI, 2*l.APKI
	if &batchHull(other, unit, points).M[0] != &warmB.M[0] || &lcHull(otherL, unit, points).M[0] != &warmL.M[0] {
		t.Error("a profile differing only in fields MissRatio does not read missed the warm entry")
	}

	// Calibration: every input isolatedP95 reads.
	const qps, svc = 1475.0, 9e5
	memo := new(calibMemo)
	baseP95 := isolatedP95(cfg, qps, svc)
	if bitsDiffer(memo.deadline(cfg, qps, svc), baseP95) {
		t.Fatal("warm deadline differs from its reference")
	}
	vc := func(c Config, f func(*Config)) Config { f(&c); return c }
	for _, c := range []struct {
		name     string
		cfg      Config
		qps, svc float64
	}{
		{"Seed", vc(cfg, func(c *Config) { c.Seed++ }), qps, svc},
		{"FreqHz", vc(cfg, func(c *Config) { c.FreqHz *= 1.25 }), qps, svc},
		{"EpochSeconds", vc(cfg, func(c *Config) { c.EpochSeconds *= 3 }), qps, svc},
		{"Feedback.Percentile", vc(cfg, func(c *Config) { c.Feedback.Percentile = 99 }), qps, svc},
		{"highQPS", cfg, qps * 1.25, svc},
		{"meanService", cfg, qps, svc * 1.25},
	} {
		want := isolatedP95(c.cfg, c.qps, c.svc)
		if !bitsDiffer(want, baseP95) {
			t.Fatalf("%s: the variant's reference equals the warm entry", c.name)
		}
		if got := memo.deadline(c.cfg, c.qps, c.svc); bitsDiffer(got, want) {
			t.Errorf("%s: memo deadline %v, want %v", c.name, got, want)
		}
	}

	// The same variations through buildStates, on one workload whose
	// calibration memo every variant shares; the machine fields set the grid.
	cfg, wl := caseStudy(t, 1, true)
	for _, c := range []struct {
		name string
		f    func(*Config)
	}{
		{"base", func(*Config) {}},
		{"Seed", func(c *Config) { c.Seed++ }},
		{"FreqHz", func(c *Config) { c.FreqHz *= 1.25 }},
		{"EpochSeconds", func(c *Config) { c.EpochSeconds *= 3 }},
		{"Feedback.Percentile", func(c *Config) { c.Feedback.Percentile = 99 }},
		{"BankBytes", func(c *Config) { c.Machine.BankBytes *= 2 }},
		{"WaysPerBank", func(c *Config) { c.Machine.WaysPerBank *= 2 }},
		{"Mesh", func(c *Config) { c.Machine.Mesh = topo.NewMesh(6, 6) }},
	} {
		v := vc(cfg, c.f)
		checkStates(t, c.name, v, buildStates(v, wl), buildStatesReference(v, wl))
	}
}

// TestConcurrentDesignRunsMatchSerial runs the five designs of one workload
// from several goroutines at once, starting from an empty curve memo, and
// requires every RunResult bit-identical to the same design run serially on
// a freshly generated workload. Concurrent set-ups of one workload must also
// get one hull backing per profile. Under -race this is the memos' locking
// test.
func TestConcurrentDesignRunsMatchSerial(t *testing.T) {
	designs := []func() core.Placer{
		func() core.Placer { return core.StaticPlacer{} },
		func() core.Placer { return core.AdaptivePlacer{} },
		func() core.Placer { return core.VMPartPlacer{} },
		func() core.Placer { return core.JigsawPlacer{} },
		func() core.Placer { return core.JumanjiPlacer{} },
	}
	gen := func() (Config, Workload) {
		cfg := DefaultConfig()
		cfg.Seed = 13
		wl, err := MixedLCWorkload(cfg.Machine, rand.New(rand.NewSource(13)), true)
		if err != nil {
			t.Fatal(err)
		}
		return cfg, wl
	}
	digest := func(r *RunResult) uint64 {
		d := runDigester{h: fnv.New64a()}
		d.run(r)
		return d.h.Sum64()
	}
	const copies, epochs, warmup = 3, 10, 2

	resetCurveMemo()
	cfg, wl := gen()
	states := make([][]*appState, 4)
	var wg sync.WaitGroup
	for i := range states {
		wg.Add(1)
		go func() { defer wg.Done(); states[i] = buildStates(cfg, wl) }()
	}
	wg.Wait()
	for i := range wl.Apps {
		for k := 1; k < len(states); k++ {
			if &states[k][i].hull.M[0] != &states[0][i].hull.M[0] {
				t.Fatalf("app %d: concurrent set-ups hold separate hulls", i)
			}
		}
	}

	resetCurveMemo()
	cfg, wl = gen()
	got := make([]uint64, copies*len(designs))
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = digest(Run(cfg, wl, designs[i%len(designs)](), epochs, warmup))
		}()
	}
	wg.Wait()
	for d, design := range designs {
		c, w := gen()
		want := digest(Run(c, w, design(), epochs, warmup))
		for k := 0; k < copies; k++ {
			if g := got[k*len(designs)+d]; g != want {
				t.Errorf("%s copy %d: digest %#016x, serial %#016x", design().Name(), k, g, want)
			}
		}
	}
}

// TestCurveMemoEviction fills the curve memo so close to its bound that a
// 16×16 fleet's set-up empties it part way through, and requires the
// reference states and per-run hull sharing on that set-up and the next.
// It also pins syncMemo's bound on a small memo.
func TestCurveMemoEviction(t *testing.T) {
	s := syncMemo[int, []float64]{limit: 10, weight: func(v []float64) int { return len(v) }}
	for k, n := range []int{4, 4, 4, 11, 2} {
		v := s.get(k, func() []float64 { return make([]float64, n) })
		if len(v) != n || s.held > s.limit {
			t.Fatalf("key %d: got %d floats, memo holds %d of %d", k, len(v), s.held, s.limit)
		}
	}
	// 4+4 fit, the third 4 emptied the memo, 11 was too heavy to keep.
	if len(s.m) != 2 || s.held != 6 {
		t.Fatalf("memo holds %d values of weight %d, want 2 of weight 6", len(s.m), s.held)
	}

	resetCurveMemo()
	defer resetCurveMemo()
	cfg := DefaultConfig()
	cfg.Machine.Mesh = topo.NewMesh(16, 16)
	wl, err := DatacenterWorkload(cfg.Machine, rand.New(rand.NewSource(16)), true)
	if err != nil {
		t.Fatal(err)
	}
	need := 0
	for _, h := range distinctHulls(buildStates(cfg, wl)) {
		need += len(h.M)
	}
	resetCurveMemo()
	const chunk = 1 << 16
	for k := 0; curveMemo.held+chunk <= curveMemoMaxFloats-need/2; k++ {
		curveMemo.get(curveKey{points: -1 - k}, func() mrc.Curve { return mrc.Curve{Unit: 1, M: make([]float64, chunk)} })
	}
	before := curveMemo.held
	for call := 1; call <= 2; call++ {
		got := buildStates(cfg, wl)
		if curveMemo.held > curveMemoMaxFloats {
			t.Fatalf("call %d: memo holds %d floats, bound %d", call, curveMemo.held, curveMemoMaxFloats)
		}
		if call == 1 && curveMemo.held >= before {
			t.Fatalf("the set-up did not empty the memo (%d floats before, %d after)", before, curveMemo.held)
		}
		checkStates(t, fmt.Sprintf("call %d", call), cfg, got, buildStatesReference(cfg, wl))
		assertHullsShared(t, fmt.Sprintf("call %d", call), wl, got)
	}
}

// distinctHulls returns the apps' distinct hull backings.
func distinctHulls(apps []*appState) []mrc.Curve {
	seen := map[*float64]bool{}
	var out []mrc.Curve
	for _, a := range apps {
		if !seen[&a.hull.M[0]] {
			seen[&a.hull.M[0]] = true
			out = append(out, a.hull)
		}
	}
	return out
}

// TestMeanHopsFromCoreMatchesMeshHops pins meanHopsFromCore to a Mesh.Hops
// call per bank, bitwise, from every core of several meshes.
func TestMeanHopsFromCoreMatchesMeshHops(t *testing.T) {
	for _, d := range [][2]int{{1, 7}, {7, 1}, {5, 4}, {16, 16}} {
		m := core.DefaultMachine()
		m.Mesh = topo.NewMesh(d[0], d[1])
		for c := 0; c < m.Banks(); c++ {
			total := 0
			for b := 0; b < m.Banks(); b++ {
				total += m.Mesh.Hops(topo.TileID(c), topo.TileID(b))
			}
			want := float64(total) / float64(m.Banks())
			if got := meanHopsFromCore(m, topo.TileID(c)); bitsDiffer(got, want) {
				t.Fatalf("%dx%d core %d: %v, want %v", d[0], d[1], c, got, want)
			}
		}
	}
}
