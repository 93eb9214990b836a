package mrc

import "testing"

// Allocation-regression guards: the epoch loop calls Eval millions of times
// and combines hulls once per VM per reconfiguration, so neither may regress
// to per-call heap allocation. Run via `go test -run AllocGuard -count=1`.

var allocSink float64

func TestAllocGuardEval(t *testing.T) {
	c := New(1<<20, []float64{0.9, 0.5, 0.3, 0.2, 0.15, 0.12, 0.1})
	allocs := testing.AllocsPerRun(200, func() {
		allocSink = c.Eval(2.5 * (1 << 20))
	})
	if allocs != 0 {
		t.Fatalf("Eval allocated %v times per call, want 0", allocs)
	}
}

func TestAllocGuardCombine(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; guarded by the non-race CI step")
	}
	curves := []Curve{
		New(1<<20, []float64{0.9, 0.5, 0.3, 0.2}),
		New(1<<20, []float64{0.8, 0.6, 0.45, 0.35, 0.3}),
		New(1<<20, []float64{0.7, 0.4, 0.25}),
	}
	// The placers' per-VM combine: each curve hulled into an arena, then
	// the hulls combined into it. Once the arena's slab and the pooled
	// scratch are warm, nothing reaches the heap.
	var a Arena
	hulls := make([]Curve, len(curves))
	combine := func() Curve {
		a.Reset()
		for i, c := range curves {
			hulls[i] = a.ConvexHull(c)
		}
		return a.CombineHulls(hulls...)
	}
	combine()
	var out Curve
	if allocs := testing.AllocsPerRun(200, func() { out = combine() }); allocs != 0 {
		t.Fatalf("hull and combine through an arena allocated %v times per call, want 0", allocs)
	}
	allocSink = out.M[0]
}
