// Package mrc implements miss-ratio curves (MRCs), the central data type the
// paper's allocation algorithms consume. A curve maps LLC capacity to the
// miss rate an application (or virtual cache) would incur at that capacity.
//
// The package provides the two curve transformations the paper relies on:
//
//   - Convex hulls: Jumanji approximates DRRIP's miss curve by taking the
//     convex hull of LRU's miss curve (Sec. IV-A, citing Talus).
//   - Combination: JumanjiPlacer computes a combined miss curve for each VM's
//     batch applications using the optimal-partitioning model of Whirlpool
//     (Sec. VI-D, citing [61, Appendix B]).
package mrc

import (
	"fmt"
	"math"
)

// Curve is a sampled miss curve. M[i] is the miss rate (conventionally misses
// per kilo-instruction) when the subject is allocated capacity i*Unit bytes.
// A valid curve has at least one point and non-negative entries. Miss curves
// need not be monotone (LRU curves are, but set conflicts can produce
// non-monotone measured curves); algorithms that require convexity take the
// hull first.
//
// Aliasing contract: Curve is a value type with reference semantics — the
// struct copies on assignment but M is shared backing. Methods returning a
// Curve therefore come in two flavors. Clone, Scale, Monotone, ConvexHull
// and Combine always return freshly allocated backing that aliases nothing.
// The *Into variants (CloneInto, ScaleInto, ConvexHullInto, CombineInto)
// write into caller-provided backing — typically from an Arena — and the
// returned curve aliases that backing. ConvexHullInto additionally guarantees
// its result never aliases its input: passing the receiver's own M as dst is
// detected and falls back to a fresh allocation (see
// TestConvexHullIntoNoAlias), so the input curve is never clobbered by the
// in-place monotone/resample passes.
type Curve struct {
	Unit float64   // bytes of capacity per step
	M    []float64 // miss rate at each multiple of Unit
}

// New returns a curve with the given unit and points. It panics if unit is
// non-positive, points is empty, or any point is negative, since curves are
// constructed by code (profilers, workload models), not external input.
func New(unit float64, points []float64) Curve {
	if unit <= 0 {
		panic(fmt.Sprintf("mrc: non-positive unit %v", unit))
	}
	if len(points) == 0 {
		panic("mrc: empty curve")
	}
	for i, p := range points {
		if p < 0 || math.IsNaN(p) {
			panic(fmt.Sprintf("mrc: invalid miss rate %v at point %d", p, i))
		}
	}
	m := make([]float64, len(points))
	copy(m, points)
	return Curve{Unit: unit, M: m}
}

// MaxSize returns the largest capacity the curve covers, in bytes.
func (c Curve) MaxSize() float64 {
	return float64(len(c.M)-1) * c.Unit
}

// Eval returns the miss rate at the given capacity in bytes, linearly
// interpolating between sample points and clamping outside the sampled range.
//
// Eval sits in the allocation algorithms' innermost loops (lookahead calls
// it per request per greedy step), so the clamp check runs before the
// int conversion and the conversion truncates directly: pos is known
// positive here, where truncation equals math.Floor without the
// float round-trip.
func (c Curve) Eval(size float64) float64 {
	if size <= 0 {
		return c.M[0]
	}
	pos := size / c.Unit
	last := len(c.M) - 1
	if pos >= float64(last) {
		return c.M[last]
	}
	lo := int(pos)
	frac := pos - float64(lo)
	return c.M[lo]*(1-frac) + c.M[lo+1]*frac
}

// Clone returns a deep copy of the curve. The copy never aliases the
// receiver's backing.
func (c Curve) Clone() Curve {
	return c.CloneInto(make([]float64, len(c.M)))
}

// Scale returns a copy of the curve with every miss rate multiplied by f.
// It panics if f is negative. The copy never aliases the receiver's backing.
func (c Curve) Scale(f float64) Curve {
	return c.ScaleInto(make([]float64, len(c.M)), f)
}

// Validate checks the curve invariants the allocation algorithms rely on:
// a positive unit, at least one point, and every point finite and
// non-negative. With requireMonotone it additionally demands the curve be
// non-increasing, up to a relative tolerance of 1e-9 per step — convex hulls
// are resampled through float arithmetic and may wiggle by an ulp, which is
// not corruption. New enforces the basic invariants at construction; Validate
// exists for the chaos invariant checkers, which must detect curves corrupted
// *after* construction.
func (c Curve) Validate(requireMonotone bool) error {
	if c.Unit <= 0 || math.IsNaN(c.Unit) {
		return fmt.Errorf("mrc: non-positive unit %v", c.Unit)
	}
	if len(c.M) == 0 {
		return fmt.Errorf("mrc: empty curve")
	}
	for i, p := range c.M {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return fmt.Errorf("mrc: non-finite miss rate %v at point %d", p, i)
		}
		if p < 0 {
			return fmt.Errorf("mrc: negative miss rate %v at point %d", p, i)
		}
	}
	if requireMonotone {
		for i := 1; i < len(c.M); i++ {
			tol := 1e-9 * math.Max(1, math.Abs(c.M[i-1]))
			if c.M[i] > c.M[i-1]+tol {
				return fmt.Errorf("mrc: curve not monotone: point %d rises %v -> %v", i, c.M[i-1], c.M[i])
			}
		}
	}
	return nil
}

// Monotone returns a copy of the curve forced to be non-increasing by
// propagating running minima left to right. Measured curves can wiggle due
// to sampling noise; allocation algorithms assume more capacity never hurts.
func (c Curve) Monotone() Curve {
	out := c.Clone()
	for i := 1; i < len(out.M); i++ {
		if out.M[i] > out.M[i-1] {
			out.M[i] = out.M[i-1]
		}
	}
	return out
}

// ConvexHull returns the lower convex hull of the curve: the largest convex
// function that is pointwise <= a monotone version of the curve at the sample
// points. Per Talus [7] this models a cache (or replacement policy like
// DRRIP) that removes performance cliffs; the paper uses it as DRRIP's miss
// curve (Sec. IV-A).
func (c Curve) ConvexHull() Curve {
	return c.ConvexHullInto(make([]float64, len(c.M)))
}

// IsConvex reports whether the curve is convex (discrete second differences
// all >= -eps) and non-increasing.
func (c Curve) IsConvex(eps float64) bool {
	for i := 1; i < len(c.M); i++ {
		if c.M[i] > c.M[i-1]+eps {
			return false
		}
	}
	for i := 2; i < len(c.M); i++ {
		d1 := c.M[i-1] - c.M[i-2]
		d2 := c.M[i] - c.M[i-1]
		if d2 < d1-eps {
			return false
		}
	}
	return true
}

// Add returns the pointwise sum of two curves sampled on the same grid.
// It panics on mismatched units or lengths; curves from the same profiler
// share a grid by construction.
func Add(a, b Curve) Curve {
	if a.Unit != b.Unit || len(a.M) != len(b.M) {
		panic("mrc: Add on mismatched curves")
	}
	m := make([]float64, len(a.M))
	for i := range m {
		m[i] = a.M[i] + b.M[i]
	}
	return Curve{Unit: a.Unit, M: m}
}

// Combine computes the combined miss curve of several applications sharing a
// pooled allocation that is optimally partitioned among them — the Whirlpool
// Appendix-B model the paper uses to form per-VM curves. combined(S) =
// min over {s_i : sum s_i = S} of sum_i curve_i(s_i).
//
// For convex curves the greedy marginal-utility construction is exactly
// optimal; Combine therefore takes the hull of each input first (which also
// matches the paper's DRRIP approximation). All inputs must share a unit.
// The result has steps = sum of the inputs' steps.
//
// The greedy construction spends each capacity step on the largest
// remaining per-step gain of any hull. Each hull's gains already form a
// descending run, so Combine merges the runs instead of sorting every gain
// (see CombineInto); the result is bitwise what a global sort gives. Gains
// containing NaN fall back to that global sort.
func Combine(curves ...Curve) Curve {
	if len(curves) == 0 {
		panic("mrc: Combine of no curves")
	}
	totalSteps := 0
	for _, c := range curves {
		totalSteps += len(c.M) - 1
	}
	return CombineInto(make([]float64, totalSteps+1), curves...)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
