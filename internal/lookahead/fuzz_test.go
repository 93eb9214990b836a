package lookahead

import (
	"fmt"
	"math"
	"testing"

	"jumanji/internal/mrc"
)

// FuzzAllocate checks the partitioning invariants on arbitrary inputs:
// no over-commit, no negative allocations, minima respected, maxima
// respected.
func FuzzAllocate(f *testing.F) {
	f.Add([]byte{100, 50, 20, 10}, []byte{90, 80, 10, 5}, uint8(8), uint8(0), uint8(0))
	f.Add([]byte{255, 0}, []byte{10, 10, 10}, uint8(3), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, a, b []byte, totalRaw, minRaw, maxRaw uint8) {
		mk := func(data []byte) mrc.Curve {
			if len(data) == 0 {
				data = []byte{1}
			}
			if len(data) > 64 {
				data = data[:64]
			}
			pts := make([]float64, len(data))
			for i, v := range data {
				pts[i] = float64(v)
			}
			return mrc.New(1, pts)
		}
		total := float64(totalRaw)
		reqs := []Request{
			{Curve: mk(a), Min: float64(minRaw % 4), Max: float64(maxRaw)},
			{Curve: mk(b)},
		}
		if reqs[0].Min*float64(len(reqs)) > total {
			return // minima exceeding total panic by contract
		}
		if reqs[0].Max > 0 && reqs[0].Min > reqs[0].Max {
			return // Min above Max panics by contract
		}
		sizes := Allocate(total, reqs)
		sum := 0.0
		for i, s := range sizes {
			if s < 0 {
				t.Fatalf("negative allocation %v", s)
			}
			if s < reqs[i].Min-1e-9 {
				t.Fatalf("minimum violated: %v < %v", s, reqs[i].Min)
			}
			if reqs[i].Max > 0 && s > reqs[i].Max+1e-9 {
				t.Fatalf("maximum violated: %v > %v", s, reqs[i].Max)
			}
			sum += s
		}
		if sum > total+1e-6 {
			t.Fatalf("over-committed: %v > %v", sum, total)
		}
	})
}

// FuzzAllocateMinima pins CanGrow's short-circuit. When CanGrow is false,
// Allocate must return every Min bit for bit, both with the requests' own
// curves and with zero-value curves (it reads none), and so must
// allocateReference, Allocate as it was before the short-circuit, wherever
// it does not panic. When CanGrow is true, Allocate's result must equal the
// reference's bit for bit and panic for panic. Requests carry arbitrary
// curves (NaN, ±Inf and negative points), Min, Step and Max values
// including zero, negative and NaN ones, and totals near the sum of the
// minima, on both sides of the 1e-9 tolerance.
func FuzzAllocateMinima(f *testing.F) {
	f.Add([]byte{0, 3, 10, 5, 2, 1, 1, 3, 1, 0}, uint8(0))
	f.Add([]byte{1, 2, 200, 100, 0, 0, 2, 2, 0, 4, 180, 90, 30, 1, 0, 2, 2, 0}, uint8(9))
	f.Add([]byte{2, 3, 250, 251, 5, 1, 1, 3, 1, 0, 1, 252, 9, 2, 0, 1, 1, 3}, uint8(3))
	f.Add([]byte{5, 7, 1, 2, 3, 4, 5, 6, 7, 8, 0, 1, 4, 2, 0}, uint8(4))
	f.Add([]byte{0, 2, 9, 3, 1, 1, 2, 2, 0}, uint8(15)) // NaN slack
	f.Fuzz(func(t *testing.T, data []byte, slack uint8) {
		reqs := fuzzRequests(data)
		total := 0.0
		for _, r := range reqs {
			total += r.Min
		}
		total += fuzzSlack[int(slack)%len(fuzzSlack)]

		got, gotPanic := tryAllocate(AllocateInto, total, reqs)
		want, wantPanic := tryAllocate(allocateReference, total, reqs)
		if CanGrow(total, reqs) {
			if gotPanic != wantPanic {
				t.Fatalf("panic %q, reference panic %q", gotPanic, wantPanic)
			}
			requireBits(t, got, want, "reference")
			return
		}
		if gotPanic != "" {
			// Only the minima checks, which precede the short-circuit, may
			// panic, and the reference makes them too.
			if gotPanic != wantPanic {
				t.Fatalf("panic %q, reference panic %q", gotPanic, wantPanic)
			}
			return
		}
		minima := make([]float64, len(reqs))
		for i, r := range reqs {
			minima[i] = r.Min
		}
		requireBits(t, got, minima, "minima")
		if wantPanic == "" {
			// The short-circuit is exact: the reference grants nothing
			// either.
			requireBits(t, want, minima, "reference")
		}
		zeroed := append([]Request(nil), reqs...)
		for i := range zeroed {
			zeroed[i].Curve = mrc.Curve{}
		}
		if !CanGrow(total, zeroed) {
			requireBits(t, Allocate(total, zeroed), minima, "minima with zero-value curves")
		}
	})
}

// fuzzSlack is the capacity left over the requests' minima: around the
// grant tolerance, below it, whole and fractional steps above, and
// non-finite.
var fuzzSlack = []float64{0, 1e-10, -1e-10, 1e-9, 2e-9, -1e-7, -2e-6, 0.25, 0.5, 0.75, 1, 1.5, 2, 3, 5,
	math.NaN(), math.Inf(1), math.Inf(-1)}

// fuzzRequests decodes 1-6 requests from data, reading zeros once data
// runs out. Each request has a curve of 1-8 points on a 0.5, 1 or 2 unit
// grid, plus Min, Step and Max drawn from small tables. The byte before
// Min is skipped: it once picked a utility weight, and skipping it keeps
// the saved corpus decoding to the same requests.
func fuzzRequests(data []byte) []Request {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	pick := func(vals ...float64) float64 { return vals[next()%len(vals)] }
	nan := math.NaN()
	reqs := make([]Request, 1+next()%6)
	for i := range reqs {
		pts := make([]float64, 1+next()%8)
		for j := range pts {
			b := next()
			switch {
			case b >= 250:
				pts[j] = []float64{nan, math.Inf(1), math.Inf(-1), -1, -0.5, 0}[b-250]
			default:
				pts[j] = float64(b) / 25
			}
		}
		unit := pick(0.5, 1, 2)
		next()
		reqs[i] = Request{
			Curve: mrc.Curve{Unit: unit, M: pts},
			Min:   pick(0, 0.5, 1, 1.5, 2, 3, -1, nan),
			Step:  pick(0, 0.5, 1, 2, 0.75, -1, nan),
			Max:   pick(0, 1, 2, 4, 8, -1, nan, 0.5),
		}
	}
	return reqs
}

// tryAllocate runs alloc and returns its result or its panic message.
func tryAllocate(alloc func([]float64, float64, []Request) []float64, total float64, reqs []Request) (out []float64, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			panicked = fmt.Sprint(r)
		}
	}()
	return alloc(nil, total, reqs), ""
}

// requireBits fails unless got and want are equal float for float, bit for
// bit.
func requireBits(t *testing.T, got, want []float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d sizes, want %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: size %d is %v, want %v", label, i, got[i], want[i])
		}
	}
}

// allocateReference is AllocateInto without the CanGrow short-circuit:
// FuzzAllocateMinima's reference for inputs on which lookahead can grant.
// It makes the allocator's input checks, so that the two panic alike,
// including the refusal of a NaN total or Min.
func allocateReference(dst []float64, total float64, reqs []Request) []float64 {
	if len(reqs) == 0 {
		return dst
	}
	base := len(dst)
	need := base + len(reqs)
	if cap(dst) < need {
		grown := make([]float64, need) // alloc: ok — single growth, amortized away warm
		copy(grown, dst)
		dst = grown
	} else {
		dst = dst[:need]
		for i := base; i < need; i++ {
			dst[i] = 0
		}
	}
	sizes := dst[base:]
	remaining := total
	for i, r := range reqs {
		if !(r.Min >= 0) {
			panic(fmt.Sprintf("lookahead: negative Min for request %d", i))
		}
		if r.Max > 0 && r.Min > r.Max {
			panic(fmt.Sprintf("lookahead: request %d has Min %g above Max %g", i, r.Min, r.Max))
		}
		sizes[i] = r.Min
		remaining -= r.Min
	}
	if !(remaining >= -1e-6) {
		panic(fmt.Sprintf("lookahead: minimum allocations (%g) exceed total (%g)",
			total-remaining, total))
	}

	step := func(i int) float64 {
		if reqs[i].Step > 0 {
			return reqs[i].Step
		}
		return reqs[i].Curve.Unit
	}
	maxOf := func(i int) float64 {
		if reqs[i].Max > 0 {
			return reqs[i].Max
		}
		return reqs[i].Curve.MaxSize()
	}

	// Fast path: for convex curves single-step greedy is exactly optimal
	// (marginal utility is non-increasing), so the O(n·total²) lookahead
	// scan is unnecessary. The big epoch sweeps pass convex hulls, so this
	// is the common case.
	allConvex := true
	for i := range reqs {
		if !reqs[i].Curve.IsConvex(1e-12) {
			allConvex = false
			break
		}
	}
	if allConvex {
		// A request's marginal rate only changes when its own size grows, so
		// cache per-request steps, caps, and rates in pooled scratch and
		// re-evaluate just the winner each round: 2 curve Evals per grant
		// instead of 2n. The scan order and the rate arithmetic (including
		// the 1e-15 tie-break) are exactly the naive loop's, so the chosen
		// allocations are bit-identical.
		n := len(reqs)
		sp := scratchPool.Get().(*[]float64)
		if cap(*sp) < 3*n {
			*sp = make([]float64, 3*n)
		}
		scratch := (*sp)[:3*n]
		defer func() { scratchPool.Put(sp) }()
		steps, maxs, rates := scratch[:n], scratch[n:2*n], scratch[2*n:3*n]
		rate := func(i int) float64 {
			gain := reqs[i].Curve.Eval(sizes[i]) - reqs[i].Curve.Eval(sizes[i]+steps[i])
			return gain / steps[i]
		}
		for i := range reqs {
			steps[i] = step(i)
			maxs[i] = maxOf(i)
			rates[i] = rate(i)
		}
		for {
			best, bestRate := -1, 0.0
			for i := 0; i < n; i++ {
				if steps[i] > remaining+1e-9 || sizes[i]+steps[i] > maxs[i]+1e-9 {
					continue
				}
				if rates[i] > bestRate+1e-15 {
					best, bestRate = i, rates[i]
				}
			}
			if best < 0 || bestRate <= 0 {
				return dst
			}
			sizes[best] += steps[best]
			remaining -= steps[best]
			rates[best] = rate(best)
		}
	}

	for {
		bestApp, bestJump, bestRate := -1, 0.0, 0.0
		for i := range reqs {
			s := step(i)
			if s <= 0 {
				panic(fmt.Sprintf("lookahead: non-positive step for request %d", i))
			}
			cur := sizes[i]
			curMiss := reqs[i].Curve.Eval(cur)
			// Look ahead over 1..k steps for the best utility *rate*.
			for jump := s; jump <= remaining+1e-9 && cur+jump <= maxOf(i)+1e-9; jump += s {
				gain := curMiss - reqs[i].Curve.Eval(cur+jump)
				rate := gain / jump
				if rate > bestRate+1e-15 {
					bestApp, bestJump, bestRate = i, jump, rate
				}
			}
		}
		if bestApp < 0 || bestRate <= 0 {
			return dst
		}
		sizes[bestApp] += bestJump
		remaining -= bestJump
		if remaining < minStep(reqs, step) {
			return dst
		}
	}
}

// TestCanGrow pins CanGrow at the tolerance Allocate's grant loops apply,
// and Allocate's result on either side of it: the reference's when a step
// fits, the minima otherwise.
func TestCanGrow(t *testing.T) {
	c := mrc.New(1, []float64{4, 2, 1, 0.5, 0.25})
	cases := []struct {
		name  string
		total float64
		reqs  []Request
		want  bool
	}{
		{"a step fits", 3, []Request{{Curve: c, Min: 1, Step: 2}}, true},
		{"half a step left", 2, []Request{{Curve: c, Min: 1, Step: 2}}, false},
		{"short by less than the tolerance", 3 - 5e-10, []Request{{Curve: c, Min: 1, Step: 2}}, true},
		{"short by more than the tolerance", 3 - 1e-8, []Request{{Curve: c, Min: 1, Step: 2}}, false},
		{"step defaults to the unit", 1.5, []Request{{Curve: c, Min: 0.5}}, true},
		{"the unit step does not fit", 1.25, []Request{{Curve: mrc.New(2, []float64{4, 1}), Min: 0.5}}, false},
		{"one of two steps fits", 2, []Request{{Curve: c, Min: 0.5, Step: 2}, {Curve: c, Min: 0.5, Step: 1}}, true},
		{"neither step fits", 1.5, []Request{{Curve: c, Min: 0.5, Step: 2}, {Curve: c, Min: 0.5, Step: 1}}, false},
		{"a NaN step falls back to the unit", 2, []Request{{Curve: c, Min: 1, Step: math.NaN()}}, true},
	}
	for _, tc := range cases {
		if got := CanGrow(tc.total, tc.reqs); got != tc.want {
			t.Errorf("%s: CanGrow = %v, want %v", tc.name, got, tc.want)
			continue
		}
		want := allocateReference(nil, tc.total, tc.reqs)
		if !tc.want {
			want = want[:0]
			for _, r := range tc.reqs {
				want = append(want, r.Min)
			}
		}
		requireBits(t, Allocate(tc.total, tc.reqs), want, tc.name)
	}
	// With no step fitting, Allocate reads no curve: zero-value curves with
	// their steps set return the minima.
	requireBits(t, Allocate(1.5, []Request{{Min: 0.5, Step: 2}, {Min: 0.5, Step: 1}}), []float64{0.5, 0.5}, "zero-value curves")
	// A NaN total or Min leaves NaN after the minima, which CanGrow counts
	// as fitting; Allocate refuses it before either grant loop, so convex
	// (c) and non-convex curves fare alike.
	bumpy := mrc.New(1, []float64{4, 4, 0, 0, 0})
	for _, curve := range []mrc.Curve{c, bumpy} {
		for _, tc := range []struct {
			name     string
			total    float64
			min      float64
			panicked string
		}{
			{"a NaN total", math.NaN(), 1, "lookahead: minimum allocations (NaN) exceed total (NaN)"},
			{"a NaN Min", 4, math.NaN(), "lookahead: negative Min for request 0"},
		} {
			reqs := []Request{{Curve: curve, Min: tc.min, Step: 1}}
			if !CanGrow(tc.total, reqs) {
				t.Errorf("%s: CanGrow = false, want true", tc.name)
			}
			if got, p := tryAllocate(AllocateInto, tc.total, reqs); p != tc.panicked {
				t.Errorf("%s: Allocate = %v, panic %q; want panic %q", tc.name, got, p, tc.panicked)
			}
		}
	}
}
