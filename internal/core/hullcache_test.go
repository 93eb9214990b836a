package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"jumanji/internal/mrc"
	"jumanji/internal/topo"
)

// HullCounts tallies what HullProbe saw: placements checked, app hulls the
// input's cache held current before a placement (Current), hulls a
// placement built or rebuilt (Built), and Jumanji placements whose first
// attempt failed, so that they placed shrunk copies of the input (Retried).
// Runs and Verdicts count the kept gain runs and convexity verdicts checked
// against fresh ones after a placement; Rederived counts built or rebuilt
// hulls that hold a run or verdict after their placement, and Blanked the
// reused entries whose blanked run or verdict (HullProbe.Blank) nothing
// re-derived.
type HullCounts struct {
	Placements, Current, Built, Retried int
	Runs, Verdicts, Rederived, Blanked  int
}

// HullProbe checks every input it places against the hull cache's
// contract. It places a copy of the input whose cache is empty, then the
// input itself with Inner, and requires the two placements to be
// bit-identical. After the placement every cache entry current for its app
// must equal a fresh ScaleInto + ConvexHullInto of that app bit for bit, its
// kept gain run (if built) must equal mrc.AppendGainRun of the fresh hull,
// its kept verdict (if tested) must equal the fresh hull's IsConvex(1e-12),
// and an entry that was current before the placement must still use its
// backing (it was reused, not rebuilt). As a ShardedPlacer's Inner it sees
// the region sub-inputs.
//
// With Blank set, the probe blanks what each current entry derived from its
// hull before the placement: a kept run becomes empty and a true verdict
// false. Neither changes the placement's bits (an empty run sends
// mrc.MergeGainRuns to the global sort, which the mrc tests pin to the
// merge, and lookahead tests an unvouched curve itself). Afterwards a reused
// entry must still hold its blanks, which shows nothing re-derived them,
// and the probe restores them.
type HullProbe struct {
	T      testing.TB
	Counts *HullCounts
	Inner  ScratchPlacer
	Blank  bool
}

// Name implements Placer.
func (p HullProbe) Name() string { return p.Inner.Name() }

// Place implements Placer.
func (p HullProbe) Place(in *Input) *Placement { return p.PlaceInto(in, NewPlacement(in.Machine)) }

// PlaceInto implements ScratchPlacer.
func (p HullProbe) PlaceInto(in *Input, pl *Placement) *Placement {
	t := p.T
	t.Helper()
	cold := *in
	cold.hulls, cold.Prov = nil, nil
	want := p.Inner.PlaceInto(&cold, NewPlacement(in.Machine))
	if j, ok := p.Inner.(JumanjiPlacer); ok {
		first := cold
		if j.place(&first, NewPlacement(in.Machine)) != nil {
			p.Counts.Retried++
		}
	}

	before := make([]*float64, len(in.Apps))
	blankRun := make([]bool, len(in.Apps))
	blankVerdict := make([]bool, len(in.Apps))
	for i := range in.Apps {
		e := currentEntry(in, AppID(i))
		if e == nil || len(e.hull.M) == 0 {
			continue
		}
		before[i] = &e.hull.M[0]
		if p.Blank {
			if e.hasRun && len(e.run) > 0 {
				e.run, blankRun[i] = e.run[:0], true
			}
			if e.hasConvex && e.convex {
				e.convex, blankVerdict[i] = false, true
			}
		}
	}
	pl = p.Inner.PlaceInto(in, pl)
	p.Counts.Placements++
	for i, spec := range in.Apps {
		e := currentEntry(in, AppID(i))
		if e == nil {
			continue
		}
		label := fmt.Sprintf("%s app %d", p.Inner.Name(), i)
		fresh := freshHull(spec)
		requireHullBits(t, e.hull.M, fresh.M, label)
		switch {
		case before[i] == nil:
			p.Counts.Built++
			if e.hasRun || e.hasConvex {
				p.Counts.Rederived++
			}
		case len(e.hull.M) > 0 && &e.hull.M[0] != before[i]:
			t.Fatalf("%s: a current entry was rebuilt into new backing", label)
		default:
			p.Counts.Current++
		}
		if blankRun[i] || blankVerdict[i] {
			if (blankRun[i] && len(e.run) != 0) || (blankVerdict[i] && e.convex) {
				t.Fatalf("%s: a reused entry re-derived its run or verdict", label)
			}
			p.Counts.Blanked++
			if blankRun[i] {
				e.run, _ = mrc.AppendGainRun(e.run, e.hull)
			}
			e.convex = e.convex || blankVerdict[i]
		}
		if e.hasRun {
			run, _ := mrc.AppendGainRun(nil, fresh)
			if !sameBits(e.run, run) {
				t.Fatalf("%s: kept gain run differs from a fresh one:\n got %v\nwant %v", label, e.run, run)
			}
			p.Counts.Runs++
		}
		if e.hasConvex {
			if want := fresh.IsConvex(1e-12); e.convex != want {
				t.Fatalf("%s: kept convexity verdict %v, the fresh hull's %v", label, e.convex, want)
			}
			p.Counts.Verdicts++
		}
	}
	requireBitwiseEqual(t, in, pl, want, p.Inner.Name()+" warm vs cold hull cache")
	return pl
}

// currentEntry returns app's cache entry if it is current for the app's
// curve and rate, else nil.
func currentEntry(in *Input, app AppID) *hullEntry {
	if in.hulls == nil || int(app) >= len(in.hulls.entries) {
		return nil
	}
	e := &in.hulls.entries[app]
	spec := in.Apps[app]
	if !e.built || e.unit != math.Float64bits(spec.MissRatio.Unit) ||
		e.rate != math.Float64bits(spec.AccessRate) || !sameBits(e.src, spec.MissRatio.M) {
		return nil
	}
	return e
}

// freshHull is the hull appEntry stands for, built from nothing cached.
func freshHull(spec AppSpec) mrc.Curve {
	n := len(spec.MissRatio.M)
	return spec.MissRatio.ScaleInto(make([]float64, n), spec.AccessRate).ConvexHullInto(make([]float64, n))
}

func requireHullBits(t testing.TB, got, want []float64, label string) {
	t.Helper()
	if !sameBits(got, want) {
		t.Fatalf("%s: cached hull differs from a fresh hull:\n got %v\nwant %v", label, got, want)
	}
}

// TestHullCacheRebuildsOnChange pins when a placement reuses an app's
// cached hull: an unchanged input, and a curve replaced by an equal copy,
// reuse every hull; a curve replaced by a different one, a curve mutated in
// place or a changed access rate rebuild that app's hull and no other, and
// changed units rebuild every hull. Jigsaw hulls every app, Jumanji and
// VM-Part every batch app. The kept gain run and convexity verdict follow
// their hull: the probe blanks them before each placement, and every reused
// hull's blanks survive it while every rebuilt hull holds a fresh run or
// verdict after it (Jigsaw and Jumanji vouch each hull's verdict to
// lookahead, and VM-Part merges each hull's run).
func TestHullCacheRebuildsOnChange(t *testing.T) {
	for _, inner := range []ScratchPlacer{JigsawPlacer{}, JumanjiPlacer{}, VMPartPlacer{}} {
		var c HullCounts
		probe := HullProbe{T: t, Counts: &c, Inner: inner, Blank: true}
		in := testWorkload(4, 4, rand.New(rand.NewSource(31)))
		pl := NewPlacement(in.Machine)
		probe.PlaceInto(in, pl)
		hulled := c.Built
		if hulled == 0 || c.Current != 0 {
			t.Fatalf("%s: first placement built %d hulls and reused %d", inner.Name(), c.Built, c.Current)
		}
		batch := in.AppendBatchApps(nil)
		steps := []struct {
			name    string
			change  func()
			rebuilt int
		}{
			{"unchanged", func() {}, 0},
			{"equal copy", func() {
				mr := in.Apps[batch[0]].MissRatio
				in.Apps[batch[0]].MissRatio = mrc.Curve{Unit: mr.Unit, M: append([]float64(nil), mr.M...)}
			}, 0},
			{"replaced curve", func() {
				mr := in.Apps[batch[1]].MissRatio
				m := append([]float64(nil), mr.M...)
				m[1] = math.Nextafter(m[1], math.Inf(1))
				in.Apps[batch[1]].MissRatio = mrc.Curve{Unit: mr.Unit, M: m}
			}, 1},
			{"mutated in place", func() {
				// batch[0] owns its backing since the equal-copy step.
				m := in.Apps[batch[0]].MissRatio.M
				m[len(m)/2] = math.Nextafter(m[len(m)/2], math.Inf(1))
			}, 1},
			{"changed rate", func() { in.Apps[batch[2]].AccessRate *= 1.25 }, 1},
		}
		for _, st := range steps {
			prev := c
			st.change()
			probe.PlaceInto(in, pl)
			if got := c.Built - prev.Built; got != st.rebuilt {
				t.Errorf("%s %s: %d hulls rebuilt, want %d", inner.Name(), st.name, got, st.rebuilt)
			}
			if got := c.Current - prev.Current; got != hulled-st.rebuilt {
				t.Errorf("%s %s: %d hulls reused, want %d", inner.Name(), st.name, got, hulled-st.rebuilt)
			}
			if got := c.Rederived - prev.Rederived; got != st.rebuilt {
				t.Errorf("%s %s: %d rebuilt hulls hold a fresh run or verdict, want %d", inner.Name(), st.name, got, st.rebuilt)
			}
			if got := c.Blanked - prev.Blanked; got != hulled-st.rebuilt {
				t.Errorf("%s %s: %d reused hulls kept their blanked run or verdict, want %d", inner.Name(), st.name, got, hulled-st.rebuilt)
			}
		}
		// A new unit for every app (each VM's batch curves must share one)
		// rebuilds every hull, which must carry the new unit.
		prev := c
		for i := range in.Apps {
			in.Apps[i].MissRatio.Unit *= 2
		}
		probe.PlaceInto(in, pl)
		if got := c.Built - prev.Built; got != hulled || c.Current != prev.Current {
			t.Errorf("%s changed units: %d hulls rebuilt and %d reused, want %d and 0",
				inner.Name(), got, c.Current-prev.Current, hulled)
		}
		if got := c.Rederived - prev.Rederived; got != hulled || c.Blanked != prev.Blanked {
			t.Errorf("%s changed units: %d rebuilt hulls hold a fresh run or verdict and %d kept blanks, want %d and 0",
				inner.Name(), got, c.Blanked-prev.Blanked, hulled)
		}
		t.Logf("%s: %d runs and %d verdicts checked", inner.Name(), c.Runs, c.Verdicts)
		s := getPlaceScratch(in)
		if h := s.appEntry(in, batch[0]).hull; h.Unit != in.Apps[batch[0]].MissRatio.Unit {
			t.Errorf("%s: hull unit %v after the unit changed to %v", inner.Name(), h.Unit, in.Apps[batch[0]].MissRatio.Unit)
		}
		putPlaceScratch(s)
	}
}

// TestHullCacheShrinkRetriesAndFold places, twice each and through
// HullProbe, inputs that take Jumanji's and Ideal Batch's shrink retries
// (latency-critical targets too large to fit) and Jumanji's oversubscription
// fold (more VMs than banks). Both place copies of the input, which must
// share its cache: the second placement reuses every hull.
func TestHullCacheShrinkRetriesAndFold(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	tight := testWorkload(4, 4, rng)
	for id := range tight.LatSizes {
		tight.LatSizes[id] = 8 * tight.Machine.BankBytes
	}
	jumanjiErr := JumanjiPlacer{}.place(tight, NewPlacement(tight.Machine))
	idealFits := IdealBatchPlacer{}.place(tight, NewPlacement(tight.Machine))
	if jumanjiErr == nil || idealFits {
		t.Fatal("the tight input fits at its first attempt; it must take the shrink retries")
	}
	m := Machine{Mesh: topo.NewMesh(2, 2), BankBytes: 1 << 20, WaysPerBank: 16}
	folded := &Input{Machine: m, LatSizes: map[AppID]float64{}}
	for vm := 0; vm < 8; vm++ {
		folded.Apps = append(folded.Apps, AppSpec{
			Name: "app", VM: VMID(vm), Core: topo.TileID(vm % m.Banks()),
			MissRatio: wsCurve(m, float64(256<<10*(1+vm%3)), 0.1), AccessRate: 10 + float64(vm),
		})
	}
	cases := []struct {
		in *Input
		p  ScratchPlacer
	}{
		{tight, JumanjiPlacer{}},
		{tight, IdealBatchPlacer{}},
		{folded, JumanjiPlacer{AllowOversubscription: true}},
	}
	for _, tc := range cases {
		var c HullCounts
		probe := HullProbe{T: t, Counts: &c, Inner: tc.p}
		in := *tc.in
		in.hulls = nil
		probe.Place(&in)
		built := c.Built
		probe.Place(&in)
		if built == 0 || c.Built != built || c.Current != built {
			t.Errorf("%s: built %d hulls, then built %d more and reused %d; want %d reused",
				tc.p.Name(), built, c.Built-built, c.Current, built)
		}
	}
}

// TestIdealBatchCurvesMatchCombineInto pins Ideal Batch's per-VM curve,
// the hull of the apps' cached hulls combined by CombineHullsInto, to the
// hull of the combination of their scaled curves hulled afresh.
func TestIdealBatchCurvesMatchCombineInto(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, in := range []*Input{testWorkload(4, 4, rng), testWorkload(2, 8, rng), fleetInput(t, 8, 7)} {
		for _, vm := range in.AppendVMs(nil) {
			_, batch := in.AppendAppsOf(nil, nil, vm)
			if len(batch) == 0 {
				continue
			}
			s := getPlaceScratch(in)
			got := s.arena.ConvexHull(combinedBatchHullArena(s, in, batch))
			want := s.arena.ConvexHull(combinedBatchCurveArena(s, in, batch))
			requireHullBits(t, got.M, want.M, fmt.Sprintf("VM %d on %d banks", vm, in.Machine.Banks()))
			putPlaceScratch(s)
		}
	}
}
