package main

import (
	"math"
	"math/rand"
	"testing"

	"jumanji/internal/core"
	"jumanji/internal/mrc"
	"jumanji/internal/system"
	"jumanji/internal/topo"
)

// capturePlacer records a deep copy of every input a run hands its placer.
type capturePlacer struct {
	inner  core.Placer
	inputs []*core.Input
}

func (c *capturePlacer) Name() string { return c.inner.Name() }

func (c *capturePlacer) Place(in *core.Input) *core.Placement {
	cp := &core.Input{Machine: in.Machine, LatSizes: map[core.AppID]float64{}}
	for _, a := range in.Apps {
		a.MissRatio = mrc.Curve{Unit: a.MissRatio.Unit, M: append([]float64(nil), a.MissRatio.M...)}
		cp.Apps = append(cp.Apps, a)
	}
	for k, v := range in.LatSizes {
		cp.LatSizes[k] = v
	}
	c.inputs = append(c.inputs, cp)
	return c.inner.Place(in)
}

// placementBits flattens everything a placement says about each app.
func placementBits(pl *core.Placement, apps int) []uint64 {
	var out []uint64
	for i := 0; i < apps; i++ {
		app := core.AppID(i)
		for _, b := range pl.AllocRow(app) {
			out = append(out, math.Float64bits(b))
		}
		out = append(out, math.Float64bits(pl.GroupWays(app)), math.Float64bits(pl.TimeShared(app)))
		if pl.Unpartitioned(app) {
			out = append(out, 1)
		}
		if pl.Overlay(app) {
			out = append(out, 2)
		}
	}
	return out
}

func equalBits(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// capturedInputs runs a short system.Run per placer and returns the
// inputs each placer saw.
func capturedInputs(t *testing.T, placers []core.Placer, w, h int) map[string][]*core.Input {
	t.Helper()
	cfg := system.DefaultConfig()
	cfg.Machine.Mesh = topo.NewMesh(w, h)
	var wl system.Workload
	var err error
	rng := rand.New(rand.NewSource(7))
	if w*h > 20 {
		wl, err = system.DatacenterWorkload(cfg.Machine, rng, true)
	} else {
		wl, err = system.MixedLCWorkload(cfg.Machine, rng, true)
	}
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]*core.Input{}
	for _, p := range placers {
		c := &capturePlacer{inner: p}
		system.Run(cfg, wl, c, 5, 1)
		out[p.Name()] = c.inputs
	}
	return out
}

func TestTimedPlacerBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		w, h    int
		placers []core.Placer
	}{
		{5, 4, fig13Spec(false).placers}, // validate's placers are among these
		{6, 6, fig19Spec(false).placers},
	} {
		inputs := capturedInputs(t, tc.placers, tc.w, tc.h)
		for _, p := range tc.placers {
			tr := newTracer()
			timed := newTimedPlacer(p, tr, noSpan, 0)
			for i, in := range inputs[p.Name()] {
				want := placementBits(p.Place(in), len(in.Apps))
				if got := placementBits(timed.Place(in), len(in.Apps)); !equalBits(got, want) {
					t.Fatalf("%s input %d: Place through the wrapper differs", p.Name(), i)
				}
				scratch := core.NewPlacement(in.Machine)
				if got := placementBits(timed.PlaceInto(in, scratch), len(in.Apps)); !equalBits(got, want) {
					t.Fatalf("%s input %d: PlaceInto through the wrapper differs", p.Name(), i)
				}
			}
			if timed.Name() != p.Name() {
				t.Fatalf("wrapper name %q, want %q", timed.Name(), p.Name())
			}
			spans, _, _ := tr.snapshot()
			places := 0
			for _, s := range spans {
				if s.Name == "core.place" {
					places++
				}
			}
			if n := 2 * len(inputs[p.Name()]); places != n {
				t.Fatalf("%s: %d place spans, want %d", p.Name(), places, n)
			}
		}
	}
}

func TestTimedPlacerRunsBitIdentical(t *testing.T) {
	cfg := system.DefaultConfig()
	wl, err := system.CaseStudyWorkload(cfg.Machine, "xapian", rand.New(rand.NewSource(3)), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range fig13Spec(false).placers {
		bare, timed := newDigester(), newDigester()
		bare.runResult(system.Run(cfg, wl, p, 8, 2))
		timed.runResult(system.Run(cfg, wl, newTimedPlacer(p, newTracer(), noSpan, 0), 8, 2))
		if bare.sum() != timed.sum() {
			t.Fatalf("%s: system.Run through the wrapper differs", p.Name())
		}
	}
}

func TestTimedPlacerCountsRepeats(t *testing.T) {
	inputs := capturedInputs(t, []core.Placer{core.JigsawPlacer{}}, 5, 4)["Jigsaw"]
	in := inputs[0]
	tr := newTracer()
	p := newTimedPlacer(core.JigsawPlacer{}, tr, noSpan, 0)
	p.Place(in)
	p.Place(in) // identical input: a repeat
	in.Apps[0].MissRatio.M[3] = math.Nextafter(in.Apps[0].MissRatio.M[3], 2)
	p.Place(in) // one curve point moved by one ulp: not a repeat
	in.LatSizes[firstLC(in)] *= 2
	p.Place(in) // a controller size changed: not a repeat
	_, counters, _ := tr.snapshot()
	if counters["core.place.repeats"] != 1 {
		t.Fatalf("repeats = %d, want 1", counters["core.place.repeats"])
	}
}

func firstLC(in *core.Input) core.AppID {
	for i, a := range in.Apps {
		if a.LatencyCritical {
			return core.AppID(i)
		}
	}
	panic("no latency-critical app")
}
