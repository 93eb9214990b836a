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
// elements. The resample pass writes dst in place, so the result must not
// share backing with the input: if dst is the receiver's own M, a fresh
// slice is allocated instead and the receiver stays intact — the returned
// curve never aliases the input.
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
	out := Curve{Unit: c.Unit, M: dst}
	// Each point's monotone value follows Monotone's recurrence: it takes
	// the previous value when it is larger (a NaN point stays NaN, and the
	// point after it is kept as it is).
	m0, m1 := c.M[0], c.M[0]
	if n > 1 {
		if m1 = c.M[1]; m1 > m0 {
			m1 = m0
		}
	}
	if n <= 2 {
		// The hull of one or two points is their monotone curve.
		dst[0] = m0
		if n == 2 {
			dst[1] = m1
		}
		return out
	}
	// One pass feeds each monotone value straight into Andrew's monotone
	// chain over (i, M[i]), which keeps the lower hull. The stack's top two
	// vertices are kept in a and b as well, so the pop test reads no memory.
	// The stack is pooled scratch: it reaches its high-water mark on the
	// first large curve and is reused for every hull afterwards.
	hp := hullPtsPool.Get().(*[]pt)
	a, b := pt{0, m0}, pt{1, m1}
	hull := append((*hp)[:0], a, b)
	prev := m1
	for i := 2; i < n; i++ {
		y := c.M[i]
		if y > prev {
			y = prev
		}
		prev = y
		p := pt{float64(i), y}
		// Pop b while it lies on or above segment a-p (non-convex turn).
		for (b.y-a.y)*(p.x-a.x) >= (p.y-a.y)*(b.x-a.x) {
			hull = hull[:len(hull)-1]
			b = a
			if len(hull) < 2 {
				break
			}
			a = hull[len(hull)-2]
		}
		hull = append(hull, p)
		a, b = b, p
	}
	// Re-sample the hull back onto the original grid: the hull vertices
	// hold their own y values, so dst is written but never read.
	resampleHull(dst, hull)
	*hp = hull
	hullPtsPool.Put(hp)
	return out
}

// resampleHull writes the piecewise-linear hull back onto the integer grid
// 0..len(dst)-1, one segment at a time: the grid points from a segment's
// left vertex up to its right one take that segment's interpolation, and
// the last segment takes every point from its left vertex to the end of
// dst. The hull's x values are strictly increasing integers, its first at 0
// and its last at len(dst)-1, as the monotone chain leaves them.
func resampleHull(dst []float64, hull []pt) {
	last := len(hull) - 1
	if last == 0 {
		for i := range dst {
			dst[i] = hull[0].y
		}
		return
	}
	i := 0
	for k := 0; k < last; k++ {
		a, b := hull[k], hull[k+1]
		end := int(b.x)
		if k == last-1 {
			end = len(dst)
		}
		dx, dy := b.x-a.x, b.y-a.y
		for ; i < end; i++ {
			t := (float64(i) - a.x) / dx
			dst[i] = a.y + t*dy
		}
	}
}

// CombineHullsInto computes the combined miss curve of several applications
// sharing a pooled allocation that is optimally partitioned among them — the
// Whirlpool Appendix-B model the paper uses to form per-VM curves (Sec.
// VI-D): combined(S) = min over {s_i : sum s_i = S} of sum_i hull_i(s_i).
// The inputs must be convex hulls (ConvexHullInto outputs), for which the
// greedy marginal-utility construction is exactly optimal; hulling an app's
// curve also matches the paper's DRRIP approximation. All inputs must share
// a unit. The result, written into dst, has steps = sum of the inputs'
// steps, so dst must have exactly (sum of input steps)+1 elements, and it
// must not share backing with any input. A warmed call allocates nothing.
//
// The combined curve spends its capacity steps on the largest remaining
// per-step gains of all hulls, so it needs every hull's gains in one
// descending order. Convexity makes each hull's own gains a descending run,
// and the merge k-way merges those runs rather than sorting all the gains.
// Resampling a hull onto the grid can leave a gain an ulp above its
// predecessor, so each run is checked and repaired in place before the
// merge. Any descending order of the same gains yields the same curve bit
// for bit: equal gains have equal bits except ±0, and subtracting either
// from the running miss rate, which is never −0, gives the same result. So
// the merge reproduces the global sort exactly. Gains containing NaN (from
// NaN or infinite input points) have no descending order. For them the
// merge keeps the global sort: sort.Float64s over all gains, NaNs first,
// consumed back to front.
func CombineHullsInto(dst []float64, hulls ...Curve) Curve {
	if len(hulls) == 0 {
		panic("mrc: CombineHullsInto of no curves")
	}
	unit := hulls[0].Unit
	totalSteps := 0
	for _, h := range hulls {
		if h.Unit != unit {
			panic("mrc: CombineHullsInto on mismatched units")
		}
		totalSteps += len(h.M) - 1
	}
	if len(dst) != totalSteps+1 {
		panic("mrc: CombineHullsInto dst length mismatch")
	}
	// Gather each hull's per-step miss reduction into pooled scratch, one
	// run per hull — the placers combine once per VM per epoch, so the
	// scratch is reused across calls rather than reallocated.
	s := combinePool.Get().(*combineScratch)
	gains, heads := s.gains[:0], s.heads[:0]
	nan := false
	base := 0.0
	for _, h := range hulls {
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

// combineScratch is CombineHullsInto's pooled working set.
type combineScratch struct {
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
