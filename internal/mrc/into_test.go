package mrc

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// Tests for the zero-alloc *Into variants and the Arena: warmed calls must
// not touch the heap, results must be bitwise identical to the allocating
// versions, and ConvexHullInto must honour its no-aliasing guarantee.

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
		if got, want := c.CloneInto(dst), c.Clone(); !bitsEqual(got.M, want.M) {
			t.Errorf("CloneInto mismatch: %v vs %v", got.M, want.M)
		}
		if got, want := c.ScaleInto(dst, 3.5), c.Scale(3.5); !bitsEqual(got.M, want.M) {
			t.Errorf("ScaleInto mismatch: %v vs %v", got.M, want.M)
		}
		if got, want := c.ConvexHullInto(dst), c.ConvexHull(); !bitsEqual(got.M, want.M) {
			t.Errorf("ConvexHullInto mismatch: %v vs %v", got.M, want.M)
		}
	}
	cs := testCurves()
	want := Combine(cs...)
	got := CombineInto(make([]float64, len(want.M)), cs...)
	if !bitsEqual(got.M, want.M) {
		t.Errorf("CombineInto mismatch: %v vs %v", got.M, want.M)
	}
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
		{"CloneInto", func() { out = c.CloneInto(dst) }},
		{"ScaleInto", func() { out = c.ScaleInto(dst, 2) }},
		{"ConvexHullInto", func() { out = c.ConvexHullInto(dst) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(200, tc.fn); allocs != 0 {
			t.Errorf("%s allocated %v times per call, want 0", tc.name, allocs)
		}
	}
	allocSink = out.M[0]

	cs := testCurves()
	total := 0
	for _, cc := range cs {
		total += len(cc.M) - 1
	}
	cdst := make([]float64, total+1)
	if allocs := testing.AllocsPerRun(200, func() {
		out = CombineInto(cdst, cs...)
	}); allocs != 0 {
		t.Errorf("CombineInto allocated %v times per call, want 0 (pooled scratch)", allocs)
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
	a.Reset()
	_ = a.ConvexHull(c)
	_ = a.Scale(c, 2)
	var out Curve
	if allocs := testing.AllocsPerRun(200, func() {
		a.Reset()
		out = a.ConvexHull(a.Scale(c, 2))
	}); allocs != 0 {
		t.Errorf("Arena Scale+ConvexHull allocated %v times per call, want 0", allocs)
	}
	allocSink = out.M[0]
}

func TestAllocGuardHullUpdater(t *testing.T) {
	c := New(1<<20, []float64{0.9, 0.5, 0.3, 0.2, 0.15, 0.12, 0.1})
	var u HullUpdater
	u.Update(c) // warm: sizes the internal buffers
	var out Curve
	if allocs := testing.AllocsPerRun(200, func() {
		out = u.Update(c)
	}); allocs != 0 {
		t.Errorf("HullUpdater.Update allocated %v times per call, want 0", allocs)
	}
	allocSink = out.M[0]
}

// TestHullUpdaterMatchesFull drives a HullUpdater through random mutation
// sequences and pins, at every step, bitwise equality with the full
// from-scratch ConvexHull — the property that lets the epoch loop use the
// incremental path without perturbing any figure.
func TestHullUpdaterMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(60)
		pts := make([]float64, n)
		for i := range pts {
			pts[i] = rng.Float64()
		}
		c := New(1, pts)
		var u HullUpdater
		for step := 0; step < 30; step++ {
			want := c.ConvexHull()
			got := u.Update(c)
			if !bitsEqual(got.M, want.M) {
				t.Fatalf("trial %d step %d: incremental hull %v, want %v (raw %v)",
					trial, step, got.M, want.M, c.M)
			}
			// Mutate: mostly small point edits (the incremental fast path),
			// sometimes nothing (the cached path), rarely a reshuffle.
			switch r := rng.Float64(); {
			case r < 0.2: // no change — must hit the cached-output path
			case r < 0.9:
				for k := 0; k < 1+rng.Intn(3); k++ {
					c.M[rng.Intn(n)] = rng.Float64()
				}
			default:
				for i := range c.M {
					c.M[i] = rng.Float64()
				}
			}
		}
	}
}

// TestHullUpdaterReset checks that an updater survives curve length and unit
// changes by falling back to a full recompute.
func TestHullUpdaterReset(t *testing.T) {
	var u HullUpdater
	a := New(1, []float64{0.9, 0.2, 0.8, 0.1})
	b := New(2, []float64{0.5, 0.6, 0.4, 0.7, 0.2, 0.3})
	for i := 0; i < 3; i++ {
		if got, want := u.Update(a), a.ConvexHull(); !bitsEqual(got.M, want.M) || got.Unit != want.Unit {
			t.Fatalf("after switch to a: got %v (unit %g), want %v (unit %g)", got.M, got.Unit, want.M, want.Unit)
		}
		if got, want := u.Update(b), b.ConvexHull(); !bitsEqual(got.M, want.M) || got.Unit != want.Unit {
			t.Fatalf("after switch to b: got %v (unit %g), want %v (unit %g)", got.M, got.Unit, want.M, want.Unit)
		}
	}
}

// combineGlobalSort is the Combine algorithm before the run merge, kept as
// the bitwise reference: gather every hull's gains, sort them all
// ascending, and spend the capacity steps back to front.
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
// CombineInto must repair before merging.
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
// on curve sets of every size Combine sees, from one curve up to a whole
// machine's batch apps, with and without runs that need repair, and on
// non-finite input.
func TestCombineMatchesGlobalSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	repaired := 0
	check := func(label string, curves []Curve) {
		t.Helper()
		got := Combine(curves...)
		want := combineGlobalSort(curves...)
		if !bitsEqual(got.M, want.M) {
			t.Fatalf("%s: Combine differs from the global-sort reference", label)
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
