// alloc-guarded: the Into variants are the epoch loop's curve transforms; new
// per-call heap allocation sites here are caught by cmd/allocvet and the
// TestAllocGuard* suite.

package mrc

import (
	"slices"
	"sort"
	"sync"
)

// pt is a hull vertex in (capacity-step, miss-rate) space.
type pt struct{ x, y float64 }

var hullPtsPool = sync.Pool{New: func() any { return new([]pt) }}

// CloneInto copies the curve into dst and returns a curve backed by dst.
// dst must have exactly len(c.M) elements. Passing the receiver's own M is
// harmless (the copy is a no-op and the result aliases it).
func (c Curve) CloneInto(dst []float64) Curve {
	if len(dst) != len(c.M) {
		panic("mrc: CloneInto dst length mismatch")
	}
	copy(dst, c.M)
	return Curve{Unit: c.Unit, M: dst}
}

// ScaleInto writes the curve scaled by f into dst and returns a curve backed
// by dst. dst must have exactly len(c.M) elements; f must be non-negative.
// dst may alias the receiver's M (each element is read before written).
func (c Curve) ScaleInto(dst []float64, f float64) Curve {
	if f < 0 {
		panic("mrc: negative scale factor")
	}
	if len(dst) != len(c.M) {
		panic("mrc: ScaleInto dst length mismatch")
	}
	for i, v := range c.M {
		dst[i] = v * f
	}
	return Curve{Unit: c.Unit, M: dst}
}

// ConvexHullInto computes the lower convex hull (see ConvexHull) into dst and
// returns a curve backed by the result. dst must have exactly len(c.M)
// elements. The transform runs monotone and resample passes in place, so the
// result must not share backing with the input: if dst is the receiver's own
// M, a fresh slice is allocated instead and the receiver stays intact — the
// returned curve never aliases the input.
func (c Curve) ConvexHullInto(dst []float64) Curve {
	n := len(c.M)
	if len(dst) != n {
		panic("mrc: ConvexHullInto dst length mismatch")
	}
	if n == 0 {
		return Curve{Unit: c.Unit, M: dst}
	}
	if &dst[0] == &c.M[0] {
		dst = make([]float64, n) // alloc: ok (src==dst fallback keeps the input intact)
	}
	// Monotone pass into dst: same recurrence as Monotone, private backing.
	dst[0] = c.M[0]
	for i := 1; i < n; i++ {
		dst[i] = c.M[i]
		if dst[i] > dst[i-1] {
			dst[i] = dst[i-1]
		}
	}
	out := Curve{Unit: c.Unit, M: dst}
	if n <= 2 {
		return out
	}
	// Andrew's monotone chain over points (i, M[i]), keeping the lower hull.
	// The vertex stack is pooled scratch — it reaches its high-water mark on
	// the first large curve and is reused for every hull afterwards.
	hp := hullPtsPool.Get().(*[]pt)
	hull := (*hp)[:0]
	for i := 0; i < n; i++ {
		p := pt{float64(i), dst[i]}
		for len(hull) >= 2 {
			a, b := hull[len(hull)-2], hull[len(hull)-1]
			// Remove b if it lies on or above segment a-p (non-convex turn).
			if (b.y-a.y)*(p.x-a.x) >= (p.y-a.y)*(b.x-a.x) {
				hull = hull[:len(hull)-1]
			} else {
				break
			}
		}
		hull = append(hull, p)
	}
	// Re-sample the hull back onto the original grid, writing over dst in
	// place: the hull vertices hold their own y values, so dst is no longer
	// read.
	resampleHull(dst, hull)
	*hp = hull
	hullPtsPool.Put(hp)
	return out
}

// resampleHull writes the piecewise-linear hull back onto the integer grid
// 0..len(dst)-1. Shared by ConvexHullInto and HullUpdater so both produce
// bitwise-identical output.
func resampleHull(dst []float64, hull []pt) {
	seg := 0
	for i := range dst {
		x := float64(i)
		for seg < len(hull)-2 && hull[seg+1].x <= x {
			seg++
		}
		a, b := hull[seg], hull[min(seg+1, len(hull)-1)]
		if a.x == b.x {
			dst[i] = a.y
			continue
		}
		t := (x - a.x) / (b.x - a.x)
		dst[i] = a.y + t*(b.y-a.y)
	}
}

// CombineInto is Combine with the result written into dst, which must have
// exactly (sum of input steps)+1 elements. Input hulls, the gains and the
// merge heap live in pooled scratch, so a warmed call allocates nothing. dst
// must not share backing with any input curve.
//
// The combined curve spends its capacity steps on the largest remaining
// per-step gains of all hulls, so it needs every hull's gains in one
// descending order. Convexity makes each hull's own gains a descending run,
// and CombineInto k-way merges those runs rather than sorting all the gains.
// Resampling a hull onto the grid can leave a gain an ulp above its
// predecessor, so each run is checked and repaired in place before the
// merge. Any descending order of the same gains yields the same curve bit
// for bit: equal gains have equal bits except ±0, and subtracting either
// from the running miss rate, which is never −0, gives the same result. So
// the merge reproduces the global sort exactly. Gains containing NaN (from
// NaN or infinite input points) have no descending order. For them
// CombineInto keeps the global sort: sort.Float64s over all gains, NaNs
// first, consumed back to front.
func CombineInto(dst []float64, curves ...Curve) Curve {
	if len(curves) == 0 {
		panic("mrc: Combine of no curves")
	}
	unit := curves[0].Unit
	totalSteps := 0
	for _, c := range curves {
		if c.Unit != unit {
			panic("mrc: Combine on mismatched units")
		}
		totalSteps += len(c.M) - 1
	}
	if len(dst) != totalSteps+1 {
		panic("mrc: CombineInto dst length mismatch")
	}
	// Gather each hull's per-step miss reduction into pooled scratch, one
	// run per hull — Combine runs once per VM per epoch, so the scratch is
	// reused across calls rather than reallocated.
	s := combinePool.Get().(*combineScratch)
	gains, heads := s.gains[:0], s.heads[:0]
	nan := false
	base := 0.0
	for _, c := range curves {
		if cap(s.hull) < len(c.M) {
			s.hull = make([]float64, len(c.M)) // alloc: ok (scratch growth, amortized to zero)
		}
		h := c.ConvexHullInto(s.hull[:len(c.M)])
		base += h.M[0]
		start := len(gains)
		for i := 1; i < len(h.M); i++ {
			g := h.M[i-1] - h.M[i]
			nan = nan || g != g
			gains = append(gains, g)
		}
		if len(gains) > start {
			heads = append(heads, runHead{next: start, end: len(gains)})
		}
	}
	dst[0] = base
	if nan {
		// Ascending sort (the specialized float64 path), consumed
		// back-to-front: descending order of values, NaNs last.
		sort.Float64s(gains)
		for i := range gains {
			combineStep(dst, i, gains[len(gains)-1-i])
		}
	} else {
		mergeRuns(dst, gains, heads)
	}
	s.gains, s.heads = gains, heads
	combinePool.Put(s)
	return Curve{Unit: unit, M: dst}
}

// combineStep spends capacity step i+1 on gain g.
func combineStep(dst []float64, i int, g float64) {
	dst[i+1] = dst[i] - g
	if dst[i+1] < 0 {
		dst[i+1] = 0 // guard against float drift
	}
}

// combineScratch is CombineInto's pooled working set.
type combineScratch struct {
	hull  []float64 // the hull of the curve being read
	gains []float64 // every hull's gains, one run per hull, back to back
	heads []runHead // the runs, then the merge heap over them
}

var combinePool = sync.Pool{New: func() any { return new(combineScratch) }}

// runHead is one gain run's unmerged remainder: g is its largest gain,
// gains[next:end] the rest.
type runHead struct {
	g         float64
	next, end int
}

// mergeRuns repairs each run in heads into descending order, then merges
// the runs largest gain first into dst[1:], every gain reducing the miss
// rate of the step before. gains must hold no NaN.
func mergeRuns(dst, gains []float64, heads []runHead) {
	for i := range heads {
		h := &heads[i]
		repairRun(gains[h.next:h.end])
		h.g = gains[h.next]
		h.next++
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		siftDown(heads, i)
	}
	i := 0
	for len(heads) > 1 {
		// Every other run's gains are at most the root's larger child, so
		// the top run keeps the lead for as long as its gains stay at or
		// above that.
		bound := heads[1].g
		if len(heads) > 2 && heads[2].g > bound {
			bound = heads[2].g
		}
		top := &heads[0]
		combineStep(dst, i, top.g)
		i++
		for top.next < top.end && gains[top.next] >= bound {
			combineStep(dst, i, gains[top.next])
			i++
			top.next++
		}
		if top.next < top.end {
			top.g = gains[top.next]
			top.next++
		} else {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		siftDown(heads, 0)
	}
	// The last run needs no more comparisons.
	if len(heads) == 1 {
		combineStep(dst, i, heads[0].g)
		i++
		for _, g := range gains[heads[0].next:heads[0].end] {
			combineStep(dst, i, g)
			i++
		}
	}
}

// repairRun sorts a nearly descending run into descending order. The
// resample's rounding leaves equal-slope gains an ulp or two apart, so an
// insertion sort, linear in the elements moved, usually finishes in a few
// moves per gain; a run that needs more than maxRepairMoves moves per gain is
// far from sorted and is handed to sort.Float64s instead.
func repairRun(run []float64) {
	budget := maxRepairMoves * len(run)
	for i := 1; i < len(run); i++ {
		v := run[i]
		j := i
		for j > 0 && run[j-1] < v {
			run[j] = run[j-1]
			j--
		}
		run[j] = v
		if budget -= i - j; budget < 0 {
			sort.Float64s(run)
			slices.Reverse(run)
			return
		}
	}
}

// maxRepairMoves bounds repairRun's insertion sort, in moves per gain, near
// where sort.Float64s's O(n log n) becomes cheaper.
const maxRepairMoves = 32

// siftDown restores the max-heap order (by g) of h below index i.
func siftDown(h []runHead, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h[r].g > h[c].g {
			c = r
		}
		if !(h[c].g > h[i].g) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
