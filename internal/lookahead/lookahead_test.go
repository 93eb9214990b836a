package lookahead

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"jumanji/internal/mrc"
)

func convex(unit float64, pts ...float64) mrc.Curve { return mrc.New(unit, pts) }

func TestAllocateEmpty(t *testing.T) {
	if got := Allocate(100, nil); got != nil {
		t.Errorf("Allocate(nil) = %v", got)
	}
}

func TestAllocateFavorsHighUtility(t *testing.T) {
	// App 0 gains a lot from capacity; app 1 is a streamer (flat curve).
	hungry := convex(1, 100, 50, 25, 12, 6, 3)
	flat := convex(1, 100, 100, 100, 100, 100, 100)
	sizes := Allocate(5, []Request{{Curve: hungry}, {Curve: flat}})
	if sizes[0] != 5 || sizes[1] != 0 {
		t.Errorf("sizes = %v, want all capacity to the hungry app", sizes)
	}
}

func TestAllocateSplitsEqualCurves(t *testing.T) {
	c := convex(1, 100, 50, 25, 12, 6)
	sizes := Allocate(4, []Request{{Curve: c}, {Curve: c}})
	if sizes[0]+sizes[1] != 4 {
		t.Fatalf("total allocated %v, want 4", sizes[0]+sizes[1])
	}
	if math.Abs(sizes[0]-sizes[1]) > 1 {
		t.Errorf("equal curves got unequal shares: %v", sizes)
	}
}

func TestAllocateRespectsMin(t *testing.T) {
	flat := convex(1, 10, 10, 10, 10)
	good := convex(1, 10, 5, 2, 1)
	sizes := Allocate(3, []Request{{Curve: flat, Min: 2}, {Curve: good}})
	if sizes[0] < 2 {
		t.Errorf("Min violated: %v", sizes)
	}
	if sizes[0]+sizes[1] > 3+1e-9 {
		t.Errorf("over-allocated: %v", sizes)
	}
}

func TestAllocateMinExceedsTotalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic when minima exceed total")
		}
	}()
	c := convex(1, 1, 0)
	Allocate(1, []Request{{Curve: c, Min: 1}, {Curve: c, Min: 1}})
}

func TestAllocateRespectsMax(t *testing.T) {
	c := convex(1, 100, 50, 25, 12, 6, 3)
	sizes := Allocate(6, []Request{{Curve: c, Max: 2}, {Curve: c}})
	if sizes[0] > 2 {
		t.Errorf("Max violated: %v", sizes)
	}
}

func TestAllocateLookaheadCrossesCliffs(t *testing.T) {
	// App 0: no utility until 4 units, then everything (a cliff).
	// App 1: small steady utility. Naive greedy (single-step) would give
	// everything to app 1; lookahead must see the cliff's average rate.
	cliff := convex(1, 100, 100, 100, 100, 0)
	steady := convex(1, 100, 95, 90, 85, 80)
	sizes := Allocate(4, []Request{{Curve: cliff}, {Curve: steady}})
	if sizes[0] != 4 {
		t.Errorf("lookahead missed the cliff: %v", sizes)
	}
}

func TestAllocateStepGranularity(t *testing.T) {
	c := convex(1, 100, 80, 60, 40, 20, 10, 5, 2)
	sizes := Allocate(7, []Request{{Curve: c, Step: 2}, {Curve: c, Step: 2}})
	for i, s := range sizes {
		if math.Mod(s, 2) != 0 {
			t.Errorf("app %d size %v not on step boundary", i, s)
		}
	}
}

func TestAllocateNeverOverCommits(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		reqs := make([]Request, n)
		for i := range reqs {
			pts := make([]float64, 2+rng.Intn(12))
			v := rng.Float64() * 100
			for j := range pts {
				pts[j] = v
				v *= rng.Float64()
			}
			// An access rate, scaling the curve as the placers do.
			rate := rng.Float64() * 3
			for j := range pts {
				pts[j] *= rate
			}
			reqs[i] = Request{Curve: mrc.New(1, pts)}
		}
		total := rng.Float64() * 20
		sizes := Allocate(total, reqs)
		sum := 0.0
		for _, s := range sizes {
			if s < 0 {
				return false
			}
			sum += s
		}
		return sum <= total+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestAllocateMatchesBruteForceOnConvex(t *testing.T) {
	// For convex curves and unit steps, lookahead is optimal: compare the
	// achieved total misses against exhaustive search.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		a := randomConvex(rng, 6)
		b := randomConvex(rng, 6)
		total := float64(1 + rng.Intn(10))
		sizes := Allocate(total, []Request{{Curve: a}, {Curve: b}})
		got := a.Eval(sizes[0]) + b.Eval(sizes[1])
		best := math.Inf(1)
		for i := 0.0; i <= total; i++ {
			if v := a.Eval(i) + b.Eval(total-i); v < best {
				best = v
			}
		}
		if got > best+1e-6 {
			t.Fatalf("trial %d: lookahead misses %v, optimum %v (sizes %v, total %v)",
				trial, got, best, sizes, total)
		}
	}
}

func randomConvex(rng *rand.Rand, n int) mrc.Curve {
	drops := make([]float64, n)
	d := rng.Float64() * 10
	for i := range drops {
		drops[i] = d
		d *= rng.Float64()
	}
	pts := make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		pts[i] = pts[i+1] + drops[i]
	}
	return mrc.New(1, pts)
}

func TestBankGranularRequest(t *testing.T) {
	// 1.3 banks of latency-critical data with 1.0-byte banks: batch min is 0.7.
	r := BankGranularRequest(1.3, 1.0)
	if math.Abs(r.Min-0.7) > 1e-9 {
		t.Errorf("Min = %v, want 0.7", r.Min)
	}
	if r.Step != 1.0 {
		t.Errorf("Step = %v, want bank size", r.Step)
	}
}

func TestBankGranularRequestExactBanks(t *testing.T) {
	r := BankGranularRequest(2.0, 1.0)
	if r.Min != 0 {
		t.Errorf("Min = %v, want 0 for bank-aligned latency data", r.Min)
	}
}

func TestBankGranularRequestZeroLat(t *testing.T) {
	r := BankGranularRequest(0, 1.0)
	if r.Min != 0 {
		t.Errorf("Min = %v, want 0", r.Min)
	}
}

func TestBankGranularFeasibleSizes(t *testing.T) {
	// Allocating with the bank-granular request must make lat+batch land on
	// whole banks.
	curve := convex(0.1, 10, 8, 6, 5, 4, 3, 2.5, 2, 1.5, 1, 0.8, 0.6, 0.5, 0.4, 0.3, 0.25, 0.2, 0.15, 0.1, 0.05, 0.02)
	lat := 1.3
	r := BankGranularRequest(lat, 1.0)
	r.Curve = curve
	sizes := Allocate(5, []Request{r})
	totalVM := sizes[0] + lat
	if math.Abs(totalVM-math.Round(totalVM)) > 1e-6 {
		t.Errorf("VM total %v is not bank-granular", totalVM)
	}
}

func TestBankGranularRequestPanics(t *testing.T) {
	cases := []func(){
		func() { BankGranularRequest(1, 0) },
		func() { BankGranularRequest(-1, 1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			f()
		}()
	}
}
