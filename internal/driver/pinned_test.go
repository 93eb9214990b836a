package driver

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"jumanji/internal/core"
	"jumanji/internal/topo"
)

// replayDigest runs cfg for the given epochs and hashes everything the
// detailed simulator reports: every EpochStats field (floats by their
// bits), then the hierarchy's TotalStats and both invalidation counters.
func replayDigest(t *testing.T, cfg Config, epochs int) uint64 {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for e := 0; e < epochs; e++ {
		st := d.RunEpoch()
		put(uint64(st.Epoch))
		put(uint64(st.Invalidated))
		put(uint64(len(st.PerApp)))
		for _, s := range st.PerApp {
			put(s.Accesses)
			put(s.L1Hits)
			put(s.L2Hits)
			put(s.LLCHits)
			put(s.MemLoads)
			put(math.Float64bits(s.AvgHops))
			put(math.Float64bits(s.LLCMissRatio))
			put(math.Float64bits(s.AllocBytes))
			put(uint64(s.BanksOccupied))
		}
	}
	hier := d.Hierarchy()
	tot := hier.TotalStats()
	put(tot.Accesses)
	put(tot.L1Hits)
	put(tot.L2Hits)
	put(tot.LLCHits)
	put(tot.MemLoads)
	put(tot.HopsTotal)
	put(hier.Invalidations)
	put(hier.WritebackInvals)
	return h.Sum64()
}

// TestValidationReplayPinned pins the detailed simulator's outputs for
// cmd/validate's workload, three epochs under each placer it offers, to
// digests recorded before the hierarchy's coherence probed one set instead
// of walking whole private caches. Any change to what the hierarchy, the
// banks, the UMONs or the placers do on this workload moves a digest.
func TestValidationReplayPinned(t *testing.T) {
	for _, c := range []struct {
		placer core.Placer
		want   uint64
	}{
		{core.JumanjiPlacer{}, 0x3a6f0c94adf427d1},
		{core.JigsawPlacer{}, 0x30d5a02352b50280},
	} {
		if got := replayDigest(t, StandardValidationConfig(c.placer), 3); got != c.want {
			t.Errorf("%s: replay digest %#016x, pinned %#016x", c.placer.Name(), got, c.want)
		}
	}
}

// TestNewRefusesMoreThan32Tiles: the hierarchy's directory has one sharer
// bit per core, so a 6×6 machine is refused before anything is built.
func TestNewRefusesMoreThan32Tiles(t *testing.T) {
	m := core.Machine{Mesh: topo.NewMesh(6, 6), BankBytes: 256 << 10, WaysPerBank: 8}
	_, err := New(Config{Machine: m, Placer: core.JigsawPlacer{}, Apps: []App{wsApp("a", 0, 0, 512, 1)}})
	if err == nil {
		t.Fatal("New accepted a 36-tile machine")
	}
	m.Mesh = topo.NewMesh(4, 8)
	if _, err := New(Config{Machine: m, Placer: core.JigsawPlacer{}, Apps: []App{wsApp("a", 0, 31, 512, 1)}}); err != nil {
		t.Fatalf("New refused a 32-tile machine: %v", err)
	}
}

// BenchmarkDriverEpoch is one warm RunEpoch of cmd/validate's workload:
// placement from the UMON curves, the VTB install and the replay of every
// app's accesses through the hierarchy. The cold first epoch, which fills
// the caches from empty, runs before the timer starts.
func BenchmarkDriverEpoch(b *testing.B) {
	for _, c := range []struct {
		name   string
		placer core.Placer
	}{{"jumanji", core.JumanjiPlacer{}}, {"jigsaw", core.JigsawPlacer{}}} {
		b.Run(c.name, func(b *testing.B) {
			d, err := New(StandardValidationConfig(c.placer))
			if err != nil {
				b.Fatal(err)
			}
			d.RunEpoch()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.RunEpoch()
			}
		})
	}
}
