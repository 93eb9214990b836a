// alloc-guarded: the hull cache is read by every placement of the epoch
// loop; new per-call heap allocation sites here are caught by cmd/allocvet
// and the TestAllocGuard* suite.

package core

import (
	"math"

	"jumanji/internal/mrc"
)

// appHulls is an Input's per-app hull cache. Entry i holds the absolute
// miss-rate hull appEntry last built for app i, in the entry's own backing,
// with the bits it was built from. A placement reuses the entry only while
// app i's MissRatio.Unit, AccessRate and every MissRatio.M point have those
// bits; otherwise it rebuilds the entry in place. The check compares bits,
// not pointers, so a caller may replace a curve, mutate it in place or
// change a rate between placements and the next placement still reads the
// hull of what the Input holds.
//
// An entry also keeps what placements derive from its hull alone: its gain
// run (mrc.AppendGainRun, the Whirlpool merge's input) and its
// IsConvex(1e-12) verdict (lookahead's fast-path test). Each is built on
// first use after the hull is built and dropped when the hull is rebuilt,
// so both stay fixed functions of the hull's bits.
type appHulls struct {
	entries []hullEntry
}

// hullEntry is one app's cached hull, the input bits it was built from, and
// the run and verdict derived from it.
type hullEntry struct {
	built      bool
	unit, rate uint64    // Float64bits of MissRatio.Unit and AccessRate
	src        []float64 // a copy of MissRatio.M
	hull       mrc.Curve

	hasRun    bool
	run       []float64 // AppendGainRun's run of hull; empty on a NaN gain
	hasConvex bool
	convex    bool // hull.IsConvex(1e-12)
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

// entry returns app's entry, its hull the convex hull of spec's absolute
// miss-rate curve (MissRatio.ScaleInto + ConvexHullInto, the scaled curve in
// arena): reused when spec still has the bits it was built from, else
// rebuilt in place. napps is the Input's app count: the first call sizes
// the entries for every app, so that no later call of the placement moves
// them. The entry stays valid, and its hull unchanged, until a later
// placement of an Input sharing the cache rebuilds it.
func (c *appHulls) entry(spec AppSpec, app AppID, napps int, arena *mrc.Arena) *hullEntry {
	if len(c.entries) < napps {
		if cap(c.entries) < napps {
			c.entries = append(c.entries[:cap(c.entries)], make([]hullEntry, napps-cap(c.entries))...) // alloc: ok (growth path, once per app)
		}
		c.entries = c.entries[:napps]
	}
	e := &c.entries[app]
	mr := spec.MissRatio
	unit, rate := math.Float64bits(mr.Unit), math.Float64bits(spec.AccessRate)
	if e.built && e.unit == unit && e.rate == rate && sameBits(e.src, mr.M) {
		return e
	}
	e.built, e.hasRun, e.hasConvex = false, false, false
	n := len(mr.M)
	if cap(e.src) < n {
		e.src = make([]float64, n)    // alloc: ok (growth path, once per app and curve length)
		e.hull.M = make([]float64, n) // alloc: ok (growth path, once per app and curve length)
	}
	e.src = e.src[:n]
	copy(e.src, mr.M)
	e.hull = mr.ScaleInto(arena.Alloc(n), spec.AccessRate).ConvexHullInto(e.hull.M[:n])
	e.unit, e.rate, e.built = unit, rate, true
	return e
}

// gainRun returns the hull's gain run as mrc.AppendGainRun builds it,
// building it on the first call after the hull was built. It is empty when
// a gain is NaN, which sends mrc.MergeGainRuns to its global sort.
func (e *hullEntry) gainRun() []float64 {
	if !e.hasRun {
		e.run, _ = mrc.AppendGainRun(e.run[:0], e.hull)
		e.hasRun = true
	}
	return e.run
}

// isConvex returns hull.IsConvex(1e-12), testing it on the first call after
// the hull was built.
func (e *hullEntry) isConvex() bool {
	if !e.hasConvex {
		e.convex = e.hull.IsConvex(1e-12)
		e.hasConvex = true
	}
	return e.convex
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
