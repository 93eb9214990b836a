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
		// At the left vertex i == a.x, so t below would be (+0)/dx, which
		// is +0 for the positive integer dx: the same bits without the
		// division, NaN and infinite dy included.
		dst[i] = a.y + 0*dy
		i++
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
// descending order. Convexity makes each hull's own gains a descending run
// (AppendGainRun), and the merge k-way merges those runs rather than
// sorting all the gains (MergeGainRuns). Any descending order of the same
// gains yields the same curve bit for bit: equal gains have equal bits
// except ±0, and subtracting either from the running miss rate, which is
// never −0, gives the same result. So the merge reproduces the global sort
// exactly. Gains containing NaN (from NaN or infinite input points) have no
// descending order. For them the merge keeps the global sort:
// sort.Float64s over all gains, NaNs first, consumed back to front.
func CombineHullsInto(dst []float64, hulls ...Curve) Curve {
	if len(hulls) == 0 {
		panic("mrc: CombineHullsInto of no curves")
	}
	// Gather and repair each hull's run into pooled scratch, back to back
	// in one backing sized up front — the placers combine once per VM per
	// epoch, so the scratch is reused across calls rather than reallocated.
	// A NaN leaves its hull's run empty, which sends the merge to the
	// global sort.
	s := combinePool.Get().(*combineScratch)
	gains := slices.Grow(s.gains[:0], max(0, combinedLen(hulls)-1))
	runs := s.runs[:0]
	for _, h := range hulls {
		start := len(gains)
		gains, _ = AppendGainRun(gains, h)
		runs = append(runs, gains[start:len(gains):len(gains)])
	}
	s.gains, s.runs = gains, runs
	out := mergeGainRuns(s, dst, hulls, runs)
	combinePool.Put(s)
	return out
}

// AppendGainRun appends hull h's per-step gains, M[i-1]−M[i], to dst in
// descending order and returns the extended slice and true. Convexity makes
// the gains descend already, but resampling a hull onto the grid can leave
// a gain an ulp above its predecessor, so the run is repaired in place. A
// NaN gain has no place in a descending order: then the run is not
// repaired, and AppendGainRun returns dst without it (its capacity kept)
// and false. The run depends on nothing but h's bits, so a caller that
// keeps h may keep its run for MergeGainRuns. dst grows at most once.
func AppendGainRun(dst []float64, h Curve) ([]float64, bool) {
	start := len(dst)
	dst = slices.Grow(dst, max(0, len(h.M)-1))
	nan := false
	for i := 1; i < len(h.M); i++ {
		g := h.M[i-1] - h.M[i]
		nan = nan || g != g
		dst = append(dst, g)
	}
	if nan {
		return dst[:start], false
	}
	repairRun(dst[start:])
	return dst, true
}

// MergeGainRuns is CombineHullsInto for callers that keep each hull's gain
// run: runs[k] must be hulls[k]'s run as AppendGainRun returned it, and
// len(runs) == len(hulls). A run shorter than its hull's steps (a run
// AppendGainRun declined for a NaN) sends the merge to the global sort over
// the hulls' own gains, as CombineHullsInto does on NaN. The result equals
// CombineHullsInto(dst, hulls...) bit for bit; dst follows its rules, and
// the runs are only read. A warmed call allocates nothing.
func MergeGainRuns(dst []float64, hulls []Curve, runs [][]float64) Curve {
	if len(hulls) == 0 {
		panic("mrc: MergeGainRuns of no curves")
	}
	s := combinePool.Get().(*combineScratch)
	out := mergeGainRuns(s, dst, hulls, runs)
	combinePool.Put(s)
	return out
}

// mergeGainRuns is MergeGainRuns on borrowed scratch. The NaN fallback
// gathers the hulls' gains into s.gains, so runs must not alias it unless
// they are read no more once that fallback is taken (CombineHullsInto's
// runs, which it replaces).
func mergeGainRuns(s *combineScratch, dst []float64, hulls []Curve, runs [][]float64) Curve {
	if len(runs) != len(hulls) {
		panic("mrc: MergeGainRuns needs one run per hull")
	}
	unit := hulls[0].Unit
	totalSteps := 0
	nan := false
	for k, h := range hulls {
		if h.Unit != unit {
			panic("mrc: CombineHullsInto on mismatched units")
		}
		totalSteps += len(h.M) - 1
		nan = nan || len(runs[k]) != len(h.M)-1
	}
	if len(dst) != totalSteps+1 {
		panic("mrc: CombineHullsInto dst length mismatch")
	}
	base := 0.0
	for _, h := range hulls {
		base += h.M[0]
	}
	dst[0] = base
	if nan {
		// The hulls' gains in hull order, as the global sort reads them:
		// an ascending sort (the specialized float64 path), consumed
		// back-to-front: descending order of values, NaNs last.
		gains := s.gains[:0]
		for _, h := range hulls {
			for i := 1; i < len(h.M); i++ {
				gains = append(gains, h.M[i-1]-h.M[i])
			}
		}
		s.gains = gains
		sort.Float64s(gains)
		m := base
		for i := range gains {
			m = combineStep(m, gains[len(gains)-1-i])
			dst[i+1] = m
		}
	} else {
		heads := s.heads[:0]
		for k, run := range runs {
			if len(run) > 0 {
				heads = append(heads, runHead{g: run[0], run: k, next: 1})
			}
		}
		mergeRuns(dst, runs, heads)
		s.heads = heads
	}
	return Curve{Unit: unit, M: dst}
}

// combineStep spends one capacity step on gain g: the miss rate m after
// the step before, less g, and never below 0 (a guard against float drift).
func combineStep(m, g float64) float64 {
	m -= g
	if m < 0 {
		m = 0
	}
	return m
}

// combineScratch is CombineHullsInto's and MergeGainRuns' pooled working
// set.
type combineScratch struct {
	gains []float64   // CombineHullsInto's runs back to back, or the fallback's gains
	runs  [][]float64 // CombineHullsInto's runs, one per hull
	heads []runHead   // the merge heap over the runs
}

var combinePool = sync.Pool{New: func() any { return new(combineScratch) }}

// runHead is the unmerged remainder of gain run runs[run]: g is its largest
// gain, runs[run][next:] the gains after it. It holds no pointer, so the
// heap's swaps need no GC write barrier.
type runHead struct {
	g         float64
	run, next int
}

// mergeRuns merges the descending runs that heads index in runs, largest
// gain first, into dst[1:], every gain reducing the miss rate of the step
// before, starting from dst[0]. The runs must hold no NaN.
func mergeRuns(dst []float64, runs [][]float64, heads []runHead) {
	for i := len(heads)/2 - 1; i >= 0; i-- {
		siftDown(heads, i)
	}
	m := dst[0]
	i := 1
	for len(heads) > 1 {
		// Every other run's gains are at most the root's larger child, so
		// the top run keeps the lead for as long as its gains stay at or
		// above that.
		bound := heads[1].g
		if len(heads) > 2 && heads[2].g > bound {
			bound = heads[2].g
		}
		top := &heads[0]
		m = combineStep(m, top.g)
		dst[i] = m
		i++
		run, k := runs[top.run], top.next
		for k < len(run) && run[k] >= bound {
			m = combineStep(m, run[k])
			dst[i] = m
			i++
			k++
		}
		if k < len(run) {
			top.g, top.next = run[k], k+1
		} else {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		siftDown(heads, 0)
	}
	// The last run needs no more comparisons.
	if len(heads) == 1 {
		m = combineStep(m, heads[0].g)
		dst[i] = m
		i++
		for _, g := range runs[heads[0].run][heads[0].next:] {
			m = combineStep(m, g)
			dst[i] = m
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
