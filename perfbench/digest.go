package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"jumanji/internal/driver"
	"jumanji/internal/system"
)

// digester folds simulated statistics into a SHA-256 digest. Floats enter
// by their bit patterns, so a digest matches only bit-identical outputs.
type digester struct {
	h   hash.Hash
	buf [8]byte
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digester) i64(v int64)   { d.u64(uint64(v)) }
func (d *digester) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digester) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digester) bool(b bool) {
	if b {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

func (d *digester) f64s(v []float64) {
	d.u64(uint64(len(v)))
	for _, x := range v {
		d.f64(x)
	}
}

// sum returns the digest as 16 hex digits.
func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:8]) }

// runResult folds every field of a system.Run result, timeline included.
func (d *digester) runResult(r *system.RunResult) {
	d.str(r.Design)
	d.u64(uint64(len(r.Apps)))
	for _, a := range r.Apps {
		d.str(a.Name)
		d.i64(int64(a.VM))
		d.bool(a.LatencyCritical)
		for _, v := range []float64{a.MeanIPC, a.IPCAlone, a.TailP95, a.Deadline, a.NormTail,
			a.MeanAllocMB, a.MeanHops, a.Vulnerability} {
			d.f64(v)
		}
	}
	for _, v := range []float64{r.BatchWeightedSpeedup, r.WorstNormTail, r.Vulnerability,
		r.Energy.L1, r.Energy.L2, r.Energy.LLC, r.Energy.NoC, r.Energy.Mem,
		r.TotalInstructions, r.ReconfigMoved} {
		d.f64(v)
	}
	d.u64(uint64(len(r.Timeline)))
	for _, s := range r.Timeline {
		d.i64(int64(s.Epoch))
		d.f64s(s.LatNorm)
		d.f64s(s.AllocMB)
		d.f64(s.Vulnerability)
	}
}

// epochStats folds every field of one detailed-simulator epoch.
func (d *digester) epochStats(s driver.EpochStats) {
	d.i64(int64(s.Epoch))
	d.i64(int64(s.Invalidated))
	d.u64(uint64(len(s.PerApp)))
	for _, a := range s.PerApp {
		for _, v := range []uint64{a.Accesses, a.L1Hits, a.L2Hits, a.LLCHits, a.MemLoads} {
			d.u64(v)
		}
		d.f64(a.AvgHops)
		d.f64(a.LLCMissRatio)
		d.f64(a.AllocBytes)
		d.i64(int64(a.BanksOccupied))
	}
}
