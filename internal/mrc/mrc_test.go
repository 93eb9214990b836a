package mrc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	cases := []func(){
		func() { New(0, []float64{1}) },
		func() { New(1, nil) },
		func() { New(1, []float64{-1}) },
		func() { New(1, []float64{math.NaN()}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestNewCopiesInput(t *testing.T) {
	pts := []float64{3, 2, 1}
	c := New(1, pts)
	pts[0] = 99
	if c.M[0] != 3 {
		t.Error("New did not copy its input")
	}
}

func TestEval(t *testing.T) {
	c := New(1024, []float64{10, 6, 4, 4})
	tests := []struct {
		size, want float64
	}{
		{0, 10},
		{-5, 10},
		{1024, 6},
		{512, 8},       // interpolated
		{3 * 1024, 4},  // last point
		{10 * 1024, 4}, // clamped beyond range
	}
	for _, tt := range tests {
		if got := c.Eval(tt.size); got != tt.want {
			t.Errorf("Eval(%v) = %v, want %v", tt.size, got, tt.want)
		}
	}
}

func TestMaxSize(t *testing.T) {
	c := New(100, []float64{5, 4, 3})
	if c.MaxSize() != 200 {
		t.Errorf("MaxSize = %v, want 200", c.MaxSize())
	}
}

func TestMonotone(t *testing.T) {
	c := New(1, []float64{10, 12, 5, 7, 3})
	m := c.Monotone()
	want := []float64{10, 10, 5, 5, 3}
	for i := range want {
		if m.M[i] != want[i] {
			t.Errorf("Monotone[%d] = %v, want %v", i, m.M[i], want[i])
		}
	}
	// Original untouched.
	if c.M[1] != 12 {
		t.Error("Monotone mutated receiver")
	}
}

func TestConvexHullRemovesCliff(t *testing.T) {
	// A classic cliff: flat, flat, sudden drop. The hull should be a straight
	// line from the first point to the cliff bottom.
	c := New(1, []float64{12, 12, 12, 0})
	h := c.ConvexHull()
	want := []float64{12, 8, 4, 0}
	for i := range want {
		if math.Abs(h.M[i]-want[i]) > 1e-9 {
			t.Errorf("hull[%d] = %v, want %v", i, h.M[i], want[i])
		}
	}
}

func TestConvexHullIdempotentOnConvex(t *testing.T) {
	c := New(1, []float64{10, 6, 3, 1, 0})
	h := c.ConvexHull()
	for i := range c.M {
		if math.Abs(h.M[i]-c.M[i]) > 1e-9 {
			t.Errorf("hull changed already-convex curve at %d: %v vs %v", i, h.M[i], c.M[i])
		}
	}
}

func TestConvexHullProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(40)
		pts := make([]float64, n)
		v := 100 * rng.Float64()
		for i := range pts {
			v = math.Max(0, v-rng.Float64()*10+rng.Float64()*3) // mostly decreasing, some noise
			pts[i] = v
		}
		c := New(1, pts)
		h := c.ConvexHull()
		mono := c.Monotone()
		if !h.IsConvex(1e-9) {
			t.Fatalf("trial %d: hull not convex: %v -> %v", trial, pts, h.M)
		}
		for i := range h.M {
			if h.M[i] > mono.M[i]+1e-9 {
				t.Fatalf("trial %d: hull above curve at %d: %v > %v", trial, i, h.M[i], mono.M[i])
			}
		}
		// Hull endpoints must match the monotone curve's endpoints.
		if math.Abs(h.M[0]-mono.M[0]) > 1e-9 || math.Abs(h.M[n-1]-mono.M[n-1]) > 1e-9 {
			t.Fatalf("trial %d: hull endpoints moved", trial)
		}
	}
}

func TestIsConvex(t *testing.T) {
	if !New(1, []float64{10, 5, 2, 1}).IsConvex(1e-12) {
		t.Error("convex curve reported non-convex")
	}
	// A cliff (small drop then a large one) is concave, not convex.
	if New(1, []float64{10, 9, 1, 0}).IsConvex(1e-12) {
		t.Error("cliff curve reported convex")
	}
}

func TestIsConvexRejectsIncreasing(t *testing.T) {
	if New(1, []float64{1, 2}).IsConvex(1e-12) {
		t.Error("increasing curve reported convex")
	}
	if New(1, []float64{10, 4, 0, 0, 3}).IsConvex(1e-12) {
		t.Error("curve with increase reported convex")
	}
}

func TestScaleAndAdd(t *testing.T) {
	a := New(1, []float64{4, 2})
	s := a.ScaleInto(make([]float64, 2), 0.5)
	if s.M[0] != 2 || s.M[1] != 1 {
		t.Errorf("ScaleInto = %v", s.M)
	}
}

func TestCombineTwoIdenticalConvex(t *testing.T) {
	// Two identical convex curves: combined(2s) = 2*curve(s).
	c := New(1, []float64{8, 4, 2, 1})
	comb := hullAndCombine(c, c)
	if len(comb.M) != 7 {
		t.Fatalf("combined curve has %d points, want 7", len(comb.M))
	}
	if comb.M[0] != 16 {
		t.Errorf("combined at 0 = %v, want 16", comb.M[0])
	}
	// At total size 2, each gets 1: misses 4+4=8.
	if comb.M[2] != 8 {
		t.Errorf("combined at 2 = %v, want 8", comb.M[2])
	}
	// At full size 6: 1+1=2.
	if comb.M[6] != 2 {
		t.Errorf("combined at 6 = %v, want 2", comb.M[6])
	}
}

func TestCombineIsOptimalForConvexCurves(t *testing.T) {
	// Brute-force check: for random convex curves, the combined curve must
	// match the exhaustive minimum over all integer splits.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		a := randomConvexCurve(rng, 6)
		b := randomConvexCurve(rng, 5)
		comb := hullAndCombine(a, b)
		na, nb := len(a.M)-1, len(b.M)-1
		ha, hb := a.ConvexHull(), b.ConvexHull()
		for s := 0; s <= na+nb; s++ {
			best := math.Inf(1)
			for i := 0; i <= s && i <= na; i++ {
				j := s - i
				if j > nb {
					continue
				}
				if v := ha.M[i] + hb.M[j]; v < best {
					best = v
				}
			}
			if math.Abs(comb.M[s]-best) > 1e-6 {
				t.Fatalf("trial %d: combined at %d = %v, brute force = %v", trial, s, comb.M[s], best)
			}
		}
	}
}

func randomConvexCurve(rng *rand.Rand, n int) Curve {
	// Build a convex decreasing curve by accumulating non-increasing drops.
	drops := make([]float64, n)
	d := rng.Float64() * 10
	for i := range drops {
		drops[i] = d
		d *= rng.Float64() // each subsequent drop is no larger
	}
	pts := make([]float64, n+1)
	pts[n] = rng.Float64()
	for i := n - 1; i >= 0; i-- {
		pts[i] = pts[i+1] + drops[i]
	}
	return New(1, pts)
}

func TestCombineMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomConvexCurve(rng, 1+rng.Intn(10))
		b := randomConvexCurve(rng, 1+rng.Intn(10))
		c := randomConvexCurve(rng, 1+rng.Intn(10))
		comb := hullAndCombine(a, b, c)
		for i := 1; i < len(comb.M); i++ {
			if comb.M[i] > comb.M[i-1]+1e-9 {
				return false
			}
		}
		return comb.IsConvex(1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCombinePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("combining no curves should panic")
		}
	}()
	hullAndCombine()
}

func TestCombineMismatchedUnitsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched units should panic")
		}
	}()
	hullAndCombine(New(1, []float64{1, 0}), New(2, []float64{1, 0}))
}
