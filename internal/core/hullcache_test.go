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
type HullCounts struct {
	Placements, Current, Built, Retried int
}

// HullProbe checks every input it places against the hull cache's
// contract. It places a copy of the input whose cache is empty, then the
// input itself with Inner, and requires the two placements to be
// bit-identical. After the placement every cache entry current for its app
// must equal a fresh ScaleInto + ConvexHullInto of that app bit for bit, and
// an entry that was current before the placement must still use its
// backing (it was reused, not rebuilt). As a ShardedPlacer's Inner it sees
// the region sub-inputs.
type HullProbe struct {
	T      testing.TB
	Counts *HullCounts
	Inner  ScratchPlacer
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
	for i := range in.Apps {
		if e := currentEntry(in, AppID(i)); e != nil && len(e.hull) > 0 {
			before[i] = &e.hull[0]
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
		requireHullBits(t, e.hull, freshHull(spec).M, label)
		switch {
		case before[i] == nil:
			p.Counts.Built++
		case len(e.hull) > 0 && &e.hull[0] != before[i]:
			t.Fatalf("%s: a current entry was rebuilt into new backing", label)
		default:
			p.Counts.Current++
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

// freshHull is the hull appHull stands for, built from nothing cached.
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
// VM-Part every batch app.
func TestHullCacheRebuildsOnChange(t *testing.T) {
	for _, inner := range []ScratchPlacer{JigsawPlacer{}, JumanjiPlacer{}, VMPartPlacer{}} {
		var c HullCounts
		probe := HullProbe{T: t, Counts: &c, Inner: inner}
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
		s := getPlaceScratch(in)
		if h := s.appHull(in, batch[0]); h.Unit != in.Apps[batch[0]].MissRatio.Unit {
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
