// Package lookahead implements the Lookahead partitioning algorithm of
// utility-based cache partitioning (UCP, Qureshi & Patt [69]) plus the
// "slightly modified" variant JumanjiLookahead (Sec. VI-D) that constrains
// each VM's allocation to land on bank-granular boundaries.
//
// Lookahead greedily assigns capacity to whichever application currently has
// the highest marginal utility per unit of capacity, looking ahead across
// multi-step jumps so that performance cliffs (big utility after several
// units) are not starved by locally-flat curves.
package lookahead

import (
	"fmt"
	"sync"

	"jumanji/internal/mrc"
)

// scratchPool holds Allocate's convex-path per-request caches, reused across
// the epoch loop's thousands of calls.
var scratchPool = sync.Pool{New: func() any { return new([]float64) }}

// Request describes one contender for capacity.
type Request struct {
	// Curve is the miss curve; Curve.Unit is in bytes. Utility is read off
	// it unweighted, so callers scale it first (the placers multiply miss
	// ratios by access rates) for light and heavy applications to compete
	// fairly. Allocate reads no curve when CanGrow is false, so callers
	// that check CanGrow first may leave it the zero Curve then, provided
	// Step is set.
	Curve mrc.Curve
	// Min is the mandatory starting allocation in bytes (0 for none).
	Min float64
	// Step is the allocation granularity in bytes. Zero uses the curve's
	// unit. JumanjiLookahead passes the bank size here.
	Step float64
	// Max caps the allocation in bytes. Zero means the curve's full extent.
	Max float64
	// Convex states that Curve passes Curve.IsConvex(1e-12), the test that
	// picks Allocate's single-step fast path; Allocate then skips that test
	// for this request. A caller that keeps the verdict with its curve (the
	// placers' hull cache) sets it; false only costs the test.
	Convex bool
}

// Allocate distributes `total` bytes among the requests, returning the bytes
// given to each. Every request first receives its Min; remaining capacity is
// assigned by maximal marginal utility per byte with lookahead. Capacity
// that cannot be used (all requests at Max, or no positive utility and all
// steps exhausted) is left unallocated. Allocate panics if the mandatory
// minimum allocations alone exceed total, since callers size minima from the
// same budget, and on a NaN total or Min.
func Allocate(total float64, reqs []Request) []float64 {
	return AllocateInto(nil, total, reqs)
}

// AllocateInto is Allocate appending the per-request sizes to dst (pass
// dst[:0] to reuse its backing across epochs) and returning the extended
// slice. A warmed call allocates nothing.
func AllocateInto(dst []float64, total float64, reqs []Request) []float64 {
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
	if !CanGrow(total, reqs) {
		return dst
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
		if !reqs[i].Convex && !reqs[i].Curve.IsConvex(1e-12) {
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

// CanGrow reports whether Allocate(total, reqs) may grant anything beyond
// the minima: whether some request's step fits in what the minima leave of
// total, within the 1e-9 tolerance both of Allocate's grant loops apply. A
// NaN left over (a NaN total or Min) counts as fitting, and Allocate panics
// on it before either loop runs. When CanGrow is false Allocate returns the
// minima without reading any curve, so a caller whose curves are costly to
// build can skip them. A request's step is its Step, or its curve's Unit
// when Step is not positive.
func CanGrow(total float64, reqs []Request) bool {
	remaining := total
	for _, r := range reqs {
		remaining -= r.Min
	}
	for _, r := range reqs {
		step := r.Curve.Unit
		if r.Step > 0 {
			step = r.Step
		}
		if !(step > remaining+1e-9) {
			return true
		}
	}
	return false
}

func minStep(reqs []Request, step func(int) float64) float64 {
	m := step(0)
	for i := 1; i < len(reqs); i++ {
		if s := step(i); s < m {
			m = s
		}
	}
	return m
}
