package mrc

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// Tests for the zero-alloc *Into functions and the Arena: warmed calls must
// not touch the heap, results must match their expected values bit for bit,
// and ConvexHullInto must honour its no-aliasing guarantee.

func testCurves() []Curve {
	return []Curve{
		New(1<<20, []float64{0.9, 0.5, 0.3, 0.2, 0.15, 0.12, 0.1}),
		New(1<<20, []float64{0.8, 0.8, 0.8, 0.1, 0.1}), // cliff
		New(1<<20, []float64{0.7}),
		New(1<<20, []float64{0.5, 0.6, 0.4, 0.7, 0.2, 0.9, 0.1}), // non-monotone
	}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestIntoMatchesAllocating(t *testing.T) {
	for _, c := range testCurves() {
		dst := make([]float64, len(c.M))
		got := c.ScaleInto(dst, 3.5)
		for i, v := range c.M {
			if math.Float64bits(got.M[i]) != math.Float64bits(v*3.5) {
				t.Errorf("ScaleInto(3.5) point %d = %v, want %v", i, got.M[i], v*3.5)
			}
		}
		if got, want := c.ConvexHullInto(dst), c.ConvexHull(); !bitsEqual(got.M, want.M) {
			t.Errorf("ConvexHullInto mismatch: %v vs %v", got.M, want.M)
		}
	}
	// Two convex curves with exact binary values: the combined curve spends
	// its five steps on the gains 4, 3, 2, 2 and 1 in that order.
	a := New(1, []float64{8, 4, 2, 1})
	b := New(1, []float64{6, 3, 1})
	got := CombineHullsInto(make([]float64, 6), a, b)
	if want := []float64{14, 10, 7, 5, 3, 2}; !bitsEqual(got.M, want) {
		t.Errorf("CombineHullsInto = %v, want %v", got.M, want)
	}
}

// hullAndCombine hulls each curve into fresh backing and combines the
// hulls, the way the placers combine a VM's curves.
func hullAndCombine(curves ...Curve) Curve {
	hulls := make([]Curve, len(curves))
	for i, c := range curves {
		hulls[i] = c.ConvexHull()
	}
	return CombineHullsInto(make([]float64, combinedLen(hulls)), hulls...)
}

// TestConvexHullIntoNoAlias pins the documented guarantee: even when the
// caller passes the curve's own backing array as dst, the result never
// aliases the input (the input is left untouched).
func TestConvexHullIntoNoAlias(t *testing.T) {
	c := New(1, []float64{0.5, 0.6, 0.4, 0.7, 0.2})
	orig := append([]float64(nil), c.M...)
	want := c.ConvexHull()
	got := c.ConvexHullInto(c.M)
	if !bitsEqual(c.M, orig) {
		t.Fatalf("ConvexHullInto(c.M) mutated its input: %v, want %v", c.M, orig)
	}
	if !bitsEqual(got.M, want.M) {
		t.Fatalf("ConvexHullInto(c.M) = %v, want %v", got.M, want.M)
	}
	if len(got.M) > 0 && len(c.M) > 0 && &got.M[0] == &c.M[0] {
		t.Fatal("ConvexHullInto(c.M) returned a curve aliasing its input")
	}
}

func TestAllocGuardInto(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; guarded by the non-race CI step")
	}
	c := New(1<<20, []float64{0.9, 0.5, 0.3, 0.2, 0.15, 0.12, 0.1})
	dst := make([]float64, len(c.M))
	var out Curve
	cases := []struct {
		name string
		fn   func()
	}{
		{"ScaleInto", func() { out = c.ScaleInto(dst, 2) }},
		{"ConvexHullInto", func() { out = c.ConvexHullInto(dst) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(200, tc.fn); allocs != 0 {
			t.Errorf("%s allocated %v times per call, want 0", tc.name, allocs)
		}
	}
	allocSink = out.M[0]

	hulls := testCurves()
	for i, h := range hulls {
		hulls[i] = h.ConvexHull()
	}
	cdst := make([]float64, combinedLen(hulls))
	if allocs := testing.AllocsPerRun(200, func() {
		out = CombineHullsInto(cdst, hulls...)
	}); allocs != 0 {
		t.Errorf("CombineHullsInto allocated %v times per call, want 0 (pooled scratch)", allocs)
	}
	allocSink = out.M[0]
}

func TestAllocGuardArena(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; guarded by the non-race CI step")
	}
	var a Arena
	c := New(1<<20, []float64{0.9, 0.5, 0.3, 0.2, 0.15, 0.12, 0.1})
	// Warm the arena slabs once.
	scaled := func() Curve { return c.ScaleInto(a.Alloc(len(c.M)), 2) }
	a.Reset()
	_ = a.ConvexHull(c)
	_ = scaled()
	var out Curve
	if allocs := testing.AllocsPerRun(200, func() {
		a.Reset()
		out = a.ConvexHull(scaled())
	}); allocs != 0 {
		t.Errorf("Arena Scale+ConvexHull allocated %v times per call, want 0", allocs)
	}
	allocSink = out.M[0]
}

// combineGlobalSort is the Whirlpool combination before the run merge,
// kept as CombineHullsInto's bitwise reference: hull every curve, gather
// every hull's gains, sort them all ascending, and spend the capacity steps
// back to front.
func combineGlobalSort(curves ...Curve) Curve {
	var gains []float64
	base := 0.0
	for _, c := range curves {
		h := c.ConvexHull()
		base += h.M[0]
		for i := 1; i < len(h.M); i++ {
			gains = append(gains, h.M[i-1]-h.M[i])
		}
	}
	sort.Float64s(gains)
	dst := make([]float64, len(gains)+1)
	dst[0] = base
	for i := range gains {
		g := gains[len(gains)-1-i]
		dst[i+1] = dst[i] - g
		if dst[i+1] < 0 {
			dst[i+1] = 0
		}
	}
	return Curve{Unit: curves[0].Unit, M: dst}
}

// gainsInverted reports whether c's hull has a per-step gain above its
// predecessor's — an ulp-level rounding artifact of the grid resample that
// CombineHullsInto must repair before merging.
func gainsInverted(c Curve) bool {
	h := c.ConvexHull()
	for i := 2; i < len(h.M); i++ {
		if h.M[i-1]-h.M[i] > h.M[i-2]-h.M[i-1] {
			return true
		}
	}
	return false
}

// TestCombineMatchesGlobalSort pins the run merge bitwise to the global sort
// on curve sets of every size the placers combine, from one curve up to a
// whole machine's batch apps, with and without runs that need repair, and
// on non-finite input.
func TestCombineMatchesGlobalSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	repaired := 0
	check := func(label string, curves []Curve) {
		t.Helper()
		got := hullAndCombine(curves...)
		want := combineGlobalSort(curves...)
		if !bitsEqual(got.M, want.M) {
			t.Fatalf("%s: CombineHullsInto differs from the global-sort reference", label)
		}
		for _, c := range curves {
			if gainsInverted(c) {
				repaired++
				break
			}
		}
	}
	for trial := 0; trial < 400; trial++ {
		k := 1 + rng.Intn(20)
		curves := make([]Curve, k)
		for i := range curves {
			n := 1 + rng.Intn(300)
			switch rng.Intn(3) {
			case 0:
				curves[i] = benchCurve(rng, n)
			case 1:
				// Coarse byte-valued curves: long straight hull segments
				// whose resampled gains tie and invert at the ulp level.
				pts := make([]float64, n)
				for j := range pts {
					pts[j] = float64(rng.Intn(256)) / 10
				}
				curves[i] = New(64*1024, pts)
			default:
				// A shared straight segment, so gains tie across curves.
				pts := make([]float64, n)
				for j := range pts {
					pts[j] = math.Max(0, 9-0.3*float64(j))
				}
				curves[i] = New(64*1024, pts)
			}
		}
		check("random", curves)
	}
	if repaired == 0 {
		t.Fatal("no curve set exercised run repair")
	}
	inf := math.Inf(1)
	for _, tc := range []struct {
		label string
		pts   [][]float64
	}{
		// NaN gains ahead of finite ones, with a finite start: only the
		// global sort puts them last.
		{"nan-gains", [][]float64{{5, 1, math.NaN()}, {4, 2, 1}}},
		{"nan", [][]float64{{5, math.NaN(), 1, 0}, {4, 2, 1}}},
		{"all-nan", [][]float64{{math.NaN(), math.NaN()}}},
		{"inf", [][]float64{{inf, 3, 1}, {2, 1}}},
		{"inf-minus-inf", [][]float64{{inf, inf, 1}, {inf, 0}}},
		{"zeros", [][]float64{{0, 0, 0}, {0}, {1, 0, 0}}},
	} {
		curves := make([]Curve, len(tc.pts))
		for i, p := range tc.pts {
			curves[i] = Curve{Unit: 1, M: p}
		}
		check(tc.label, curves)
	}
}

// TestRepairRun covers both repair strategies: the insertion sort for runs
// an ulp out of order, and the sort.Float64s fallback once a run is too far
// from descending for insertion to stay cheap.
func TestRepairRun(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, tc := range []struct {
		label string
		gen   func(i, n int) float64
	}{
		{"descending", func(i, n int) float64 { return float64(n - i) }},
		{"ulp-jitter", func(i, n int) float64 {
			return math.Nextafter(float64(n-i/8), math.Inf(2*rng.Intn(2)-1))
		}},
		{"ascending", func(i, n int) float64 { return float64(i) }},
		{"random", func(i, n int) float64 { return rng.Float64() }},
	} {
		run := make([]float64, 500)
		for i := range run {
			run[i] = tc.gen(i, len(run))
		}
		want := append([]float64(nil), run...)
		sort.Sort(sort.Reverse(sort.Float64Slice(want)))
		repairRun(run)
		if !bitsEqual(run, want) {
			t.Errorf("%s: repairRun did not sort the run descending", tc.label)
		}
	}
}
