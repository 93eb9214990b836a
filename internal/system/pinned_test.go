package system

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"jumanji/internal/core"
	"jumanji/internal/topo"
)

// runDigester folds run results into an FNV-64a hash, floats by their bits,
// so a digest matches only bit-identical runs.
type runDigester struct {
	h   hash.Hash64
	buf [8]byte
}

func (d *runDigester) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *runDigester) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *runDigester) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d *runDigester) f64s(v []float64) {
	d.u64(uint64(len(v)))
	for _, x := range v {
		d.f64(x)
	}
}

// run folds every field of r, timeline included.
func (d *runDigester) run(r *RunResult) {
	d.str(r.Design)
	d.u64(uint64(len(r.Apps)))
	for _, a := range r.Apps {
		d.str(a.Name)
		d.u64(uint64(a.VM))
		if a.LatencyCritical {
			d.u64(1)
		} else {
			d.u64(0)
		}
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
		d.u64(uint64(s.Epoch))
		d.f64s(s.LatNorm)
		d.f64s(s.AllocMB)
		d.f64(s.Vulnerability)
	}
}

// TestPlacementsPinned pins whole runs of the placers to digests recorded
// before their curve code and unset options were simplified: the flat
// placers on the 5×4 xapian case study over three seeds (seeds 7 and 11
// accept trades, so the hulls TradePlacer reads steer its placements),
// TradePlacer's trade counters with them, and the sharded placers on
// DatacenterWorkload's 16×16 fleet, whose several regions make the region
// stage combine bank-sampled curves. Any change to what these placers or
// the runner compute moves a digest.
func TestPlacementsPinned(t *testing.T) {
	for _, c := range []struct {
		placer func() core.Placer
		want   uint64
	}{
		{func() core.Placer { return core.StaticPlacer{} }, 0xce56790980cf0206},
		{func() core.Placer { return core.JumanjiPlacer{} }, 0xa4b15ea9ed67c647},
		{func() core.Placer { return core.JumanjiPlacer{Insecure: true} }, 0x350d01c72b918fa3},
		{func() core.Placer { return core.IdealBatchPlacer{} }, 0xfae26652d886e45a},
		{func() core.Placer { return core.RawCurveJigsawPlacer{} }, 0x040e79288de408b1},
		{func() core.Placer { return &core.TradePlacer{} }, 0xf869890fd3b2f8d2},
	} {
		d := runDigester{h: fnv.New64a()}
		var name string
		for _, seed := range []int64{3, 7, 11} {
			cfg, wl := caseStudy(t, seed, true)
			p := c.placer()
			name = p.Name()
			d.run(Run(cfg, wl, p, 40, 15))
			if tp, ok := p.(*core.TradePlacer); ok {
				d.u64(uint64(tp.TradesAttempted))
				d.u64(uint64(tp.TradesAccepted))
				t.Logf("seed %d: %d of %d trades accepted", seed, tp.TradesAccepted, tp.TradesAttempted)
			}
		}
		if got := d.h.Sum64(); got != c.want {
			t.Errorf("%s: digest %#016x, pinned %#016x", name, got, c.want)
		}
	}

	cfg := DefaultConfig()
	cfg.Machine.Mesh = topo.NewMesh(16, 16)
	cfg.Seed = 5
	wl, err := DatacenterWorkload(cfg.Machine, rand.New(rand.NewSource(5)), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		inner core.ScratchPlacer
		want  uint64
	}{
		{core.JumanjiPlacer{}, 0xa21ad41f56c23f1a},
		{core.JigsawPlacer{}, 0x39a30b6ad98d1684},
	} {
		d := runDigester{h: fnv.New64a()}
		d.run(Run(cfg, wl, core.ShardedPlacer{Inner: c.inner}, 16, 6))
		if got := d.h.Sum64(); got != c.want {
			t.Errorf("sharded %s: digest %#016x, pinned %#016x", c.inner.Name(), got, c.want)
		}
	}
}
