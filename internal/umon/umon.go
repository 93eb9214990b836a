// Package umon implements utility monitors (UMONs), the hardware profilers
// Jumanji borrows from UCP/Jigsaw (Sec. IV-A): each virtual cache samples
// roughly 1% of its accesses into an auxiliary LRU tag directory, recording
// the stack-distance histogram from which software derives the VC's
// miss curve at any candidate allocation size.
package umon

import (
	"fmt"
	"math/bits"

	"jumanji/internal/mrc"
	"jumanji/internal/obs"
)

// Monitor profiles one virtual cache's accesses.
// Create with New; the zero value is not usable.
type Monitor struct {
	bucketLines  int    // lines of capacity per histogram bucket
	buckets      int    // number of capacity buckets tracked
	lineSize     uint64 // bytes per line
	samplePeriod uint64 // sample 1-in-N line addresses (by hash)

	// When lineSize and samplePeriod are powers of two, Access takes the
	// line index by shift and the sampling test by mask: lineShift is
	// log2(lineSize) and periodMask samplePeriod-1. pow2 says whether both
	// are.
	pow2       bool
	lineShift  uint
	periodMask uint64

	stack []uint64 // sampled tags in LRU order, most recent first
	hits  []uint64 // hits per stack-distance bucket
	colds uint64   // sampled accesses missing the whole stack

	// Accesses counts all accesses offered; Sampled counts those profiled.
	Accesses uint64
	Sampled  uint64

	// Optional registry metrics (nil when uninstrumented). Unlike the
	// fields above they are never halved by Age, so they report lifetime
	// totals.
	obsAccesses, obsSampled *obs.Counter
}

// Instrument registers lifetime access/sample counters under
// prefix.{accesses,sampled}. A nil registry leaves the monitor
// uninstrumented.
func (m *Monitor) Instrument(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	m.obsAccesses = reg.Counter(prefix + ".accesses")
	m.obsSampled = reg.Counter(prefix + ".sampled")
}

// New returns a monitor covering buckets × bucketLines lines of capacity
// with 1-in-samplePeriod address sampling. For the paper's 1% sampling use
// samplePeriod ≈ 64–128. It panics on non-positive parameters.
func New(bucketLines, buckets int, lineSize, samplePeriod uint64) *Monitor {
	if bucketLines <= 0 || buckets <= 0 || lineSize == 0 || samplePeriod == 0 {
		panic(fmt.Sprintf("umon: invalid config (%d, %d, %d, %d)",
			bucketLines, buckets, lineSize, samplePeriod))
	}
	return &Monitor{
		bucketLines:  bucketLines,
		buckets:      buckets,
		lineSize:     lineSize,
		samplePeriod: samplePeriod,
		pow2:         lineSize&(lineSize-1) == 0 && samplePeriod&(samplePeriod-1) == 0,
		lineShift:    uint(bits.TrailingZeros64(lineSize)),
		periodMask:   samplePeriod - 1,
		hits:         make([]uint64, buckets),
	}
}

// sampleHash decides which line addresses are sampled. Sampling by address
// hash (rather than every Nth access) keeps reuse structure intact, which is
// what makes set-sampled UMONs accurate.
func sampleHash(lineAddr uint64) uint64 {
	x := lineAddr
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// Access offers one access at addr to the profiler.
func (m *Monitor) Access(addr uint64) {
	m.Accesses++
	m.obsAccesses.Inc()
	var tag uint64
	if m.pow2 {
		tag = addr >> m.lineShift
		if sampleHash(tag)&m.periodMask != 0 {
			return
		}
	} else {
		tag = addr / m.lineSize
		if sampleHash(tag)%m.samplePeriod != 0 {
			return
		}
	}
	m.Sampled++
	m.obsSampled.Inc()
	// Find the tag's stack distance.
	for i, t := range m.stack {
		if t == tag {
			bucket := i / m.bucketLines
			if bucket >= m.buckets {
				bucket = m.buckets - 1
				m.colds++ // beyond monitored capacity: counts as a miss everywhere
			} else {
				m.hits[bucket]++
			}
			copy(m.stack[1:i+1], m.stack[:i])
			m.stack[0] = tag
			return
		}
	}
	m.colds++
	maxDepth := m.bucketLines * m.buckets
	if len(m.stack) < maxDepth {
		m.stack = append(m.stack, 0)
	}
	copy(m.stack[1:], m.stack)
	m.stack[0] = tag
}

// MissRatioCurve returns the estimated miss-ratio curve: M[i] is the miss
// ratio (misses per access, 0..1) at a capacity of i buckets. Capacities are
// scaled by the sampling: each sampled line stands for samplePeriod lines,
// so bucket i models capacity i × bucketLines × samplePeriod × lineSize
// bytes, which is the curve's Unit. With no sampled accesses the curve is
// flat 1 (pessimistic: everything misses).
func (m *Monitor) MissRatioCurve() mrc.Curve {
	unit := float64(m.bucketLines) * float64(m.samplePeriod) * float64(m.lineSize)
	points := make([]float64, m.buckets+1)
	if m.Sampled == 0 {
		for i := range points {
			points[i] = 1
		}
		return mrc.New(unit, points)
	}
	// misses(capacity=i buckets) = colds + hits at stack distance >= i.
	suffix := m.colds
	points[m.buckets] = float64(suffix) / float64(m.Sampled)
	for i := m.buckets - 1; i >= 0; i-- {
		suffix += m.hits[i]
		points[i] = float64(suffix) / float64(m.Sampled)
	}
	return mrc.New(unit, points)
}

// Age halves every counter, as hardware UMONs do periodically [69]: old
// behaviour decays exponentially instead of dominating the profile forever,
// so phase changes show up in the curve within a few aging periods.
func (m *Monitor) Age() {
	for i := range m.hits {
		m.hits[i] /= 2
	}
	m.colds /= 2
	m.Accesses /= 2
	m.Sampled = 0
	for _, h := range m.hits {
		m.Sampled += h
	}
	m.Sampled += m.colds
}
