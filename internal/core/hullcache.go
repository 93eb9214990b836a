// alloc-guarded: the hull cache is read by every placement of the epoch
// loop; new per-call heap allocation sites here are caught by cmd/allocvet
// and the TestAllocGuard* suite.

package core

import (
	"math"

	"jumanji/internal/mrc"
)

// appHulls is an Input's per-app hull cache. Entry i holds the absolute
// miss-rate hull appHull last built for app i, in the entry's own backing,
// with the bits it was built from. A placement reuses the entry only while
// app i's MissRatio.Unit, AccessRate and every MissRatio.M point have those
// bits; otherwise it rebuilds the entry in place. The check compares bits,
// not pointers, so a caller may replace a curve, mutate it in place or
// change a rate between placements and the next placement still reads the
// hull of what the Input holds.
type appHulls struct {
	entries []hullEntry
}

// hullEntry is one app's cached hull and the input bits it was built from.
type hullEntry struct {
	built      bool
	unit, rate uint64    // Float64bits of MissRatio.Unit and AccessRate
	src        []float64 // a copy of MissRatio.M
	hull       []float64
}

// hullCache returns in's hull cache, creating it on first use. Placers that
// place copies of their Input (Jumanji's and Ideal Batch's shrink retries)
// call it on the Input they were given before copying, so the copies share
// the cache the caller keeps between placements.
func (in *Input) hullCache() *appHulls {
	if in.hulls == nil {
		in.hulls = new(appHulls) // alloc: ok (once per Input)
	}
	return in.hulls
}

// hull returns the convex hull of spec's absolute miss-rate curve
// (MissRatio.ScaleInto + ConvexHullInto, the scaled curve in arena), reusing
// entry app when spec still has the bits it was built from. The result
// aliases the entry: it stays valid until the entry is rebuilt, which only a
// later placement of an Input sharing the cache can do.
func (c *appHulls) hull(spec AppSpec, app AppID, arena *mrc.Arena) mrc.Curve {
	if int(app) >= len(c.entries) {
		if int(app) >= cap(c.entries) {
			c.entries = append(c.entries[:cap(c.entries)], make([]hullEntry, int(app)+1-cap(c.entries))...) // alloc: ok (growth path, once per app)
		}
		c.entries = c.entries[:app+1]
	}
	e := &c.entries[app]
	mr := spec.MissRatio
	unit, rate := math.Float64bits(mr.Unit), math.Float64bits(spec.AccessRate)
	if e.built && e.unit == unit && e.rate == rate && sameBits(e.src, mr.M) {
		return mrc.Curve{Unit: mr.Unit, M: e.hull}
	}
	e.built = false
	n := len(mr.M)
	if cap(e.src) < n {
		e.src = make([]float64, n)  // alloc: ok (growth path, once per app and curve length)
		e.hull = make([]float64, n) // alloc: ok (growth path, once per app and curve length)
	}
	e.src, e.hull = e.src[:n], e.hull[:n]
	copy(e.src, mr.M)
	h := mr.ScaleInto(arena.Alloc(n), spec.AccessRate).ConvexHullInto(e.hull)
	e.unit, e.rate, e.built = unit, rate, true
	return h
}

// sameBits reports whether a and b hold the same float64 bit patterns: NaN
// matches the same NaN, and −0 does not match +0.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
