// alloc-guarded: this file implements the epoch loop's curve storage; new
// per-call heap allocation sites here are caught by cmd/allocvet and the
// TestAllocGuard* suite.

package mrc

// Arena hands out []float64 backing from reusable slabs, so the epoch loop's
// curve temporaries (scaled curves, hulls, combined curves) stop hitting the
// heap.
//
// Lifetime rules:
//
//   - Every curve produced through an arena (Alloc, Curve, ConvexHull,
//     CombineHulls) is valid only until the next Reset of that arena.
//     Callers that need a curve to survive Reset must copy its points
//     first.
//   - Reset recycles all slabs without zeroing; the next Alloc hands out the
//     same memory. An arena therefore reaches a high-water mark once and
//     allocates nothing afterwards (the property TestAllocGuardArena pins).
//   - An Arena is not safe for concurrent use; give each goroutine its own
//     (the placers pool one per placement call).
//
// A nil *Arena is valid everywhere one is accepted: allocation falls back to
// plain make, so cold paths need no arena plumbing.
type Arena struct {
	slabs [][]float64
	slab  int // slab currently being filled
	off   int // used floats in that slab
}

// arenaSlabFloats is the minimum slab size. One slab comfortably holds all
// curve temporaries of a 20-app reconfiguration (~50k floats), so steady
// state touches a single slab.
const arenaSlabFloats = 64 * 1024

// Reset recycles every slab. Curves previously handed out become invalid
// (their backing will be reused) but keep their old contents until
// overwritten, so a use-after-Reset bug corrupts results rather than
// crashing — don't rely on either.
func (a *Arena) Reset() {
	a.slab, a.off = 0, 0
}

// Alloc returns a length-n slice backed by the arena. Contents are
// unspecified (recycled slabs are not zeroed); callers overwrite every
// element. A nil arena falls back to make. // alloc: ok (nil-arena fallback and slab growth)
func (a *Arena) Alloc(n int) []float64 {
	if a == nil {
		return make([]float64, n) // alloc: ok
	}
	for a.slab < len(a.slabs) {
		s := a.slabs[a.slab]
		if a.off+n <= len(s) {
			out := s[a.off : a.off+n : a.off+n]
			a.off += n
			return out
		}
		a.slab++
		a.off = 0
	}
	size := arenaSlabFloats
	if n > size {
		size = n
	}
	s := make([]float64, size) // alloc: ok (slab growth, amortized to zero)
	a.slabs = append(a.slabs, s)
	a.slab = len(a.slabs) - 1
	a.off = n
	return s[:n:n]
}

// Curve returns an uninitialized curve of n points backed by the arena.
func (a *Arena) Curve(unit float64, n int) Curve {
	return Curve{Unit: unit, M: a.Alloc(n)}
}

// ConvexHull is Curve.ConvexHull with the result backed by the arena.
func (a *Arena) ConvexHull(c Curve) Curve {
	return c.ConvexHullInto(a.Alloc(len(c.M)))
}

// CombineHulls is CombineHullsInto with the result backed by the arena.
func (a *Arena) CombineHulls(hulls ...Curve) Curve {
	return CombineHullsInto(a.Alloc(combinedLen(hulls)), hulls...)
}
