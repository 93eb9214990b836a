package cache

import (
	"testing"

	"jumanji/internal/bank"
	"jumanji/internal/obs"
	"jumanji/internal/topo"
	"jumanji/internal/vtb"
)

func testConfig() Config {
	mesh := topo.NewMesh(2, 2)
	return Config{
		Mesh:     mesh,
		L1:       bank.Config{Sets: 4, Ways: 2, LineSize: 64, Policy: bank.LRU},
		L2:       bank.Config{Sets: 8, Ways: 2, LineSize: 64, Policy: bank.LRU},
		LLCBank:  bank.Config{Sets: 16, Ways: 4, LineSize: 64, Policy: bank.LRU},
		LineSize: 64,
	}
}

func newTestHierarchy() *Hierarchy {
	h := New(testConfig())
	// Route everything to bank 0 by default for deterministic tests.
	h.VTB().SetDefaultVC(0)
	h.VTB().Install(0, vtb.SingleBank(0))
	return h
}

func TestAccessLevels(t *testing.T) {
	h := newTestHierarchy()
	// Cold: memory. Then LLC+L2+L1 all hold it: L1 hit.
	out := h.Access(0, 0x1000, 0)
	if out.Level != LevelMemory {
		t.Errorf("first access level = %v, want Memory", out.Level)
	}
	out = h.Access(0, 0x1000, 0)
	if out.Level != LevelL1 {
		t.Errorf("second access level = %v, want L1", out.Level)
	}
	st := h.StatsFor(0)
	if st.Accesses != 2 || st.L1Hits != 1 || st.MemLoads != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestL2HitAfterL1Eviction(t *testing.T) {
	h := newTestHierarchy()
	// L1 is 4 sets × 2 ways. Fill one L1 set (set index bits 6..7) with
	// three lines mapping to the same L1 set to evict the first.
	base := uint64(0x10000)
	conflict := 4 * 64 // stride of one L1 set round
	h.Access(0, base, 0)
	h.Access(0, base+uint64(conflict), 0)
	h.Access(0, base+uint64(2*conflict), 0)
	out := h.Access(0, base, 0)
	if out.Level != LevelL2 {
		t.Errorf("level = %v, want L2 (L1 evicted, L2 retains)", out.Level)
	}
}

func TestLLCHitFromOtherCore(t *testing.T) {
	h := newTestHierarchy()
	h.Access(0, 0x2000, 0)
	out := h.Access(1, 0x2000, 0)
	if out.Level != LevelLLC {
		t.Errorf("other core's access = %v, want LLC", out.Level)
	}
}

func TestHopsAccounting(t *testing.T) {
	h := newTestHierarchy()
	h.VTB().Install(0, vtb.SingleBank(3)) // bank 3 is 2 hops from core 0 on 2x2
	out := h.Access(0, 0x3000, 0)
	if out.Hops != 2 || out.Bank != 3 {
		t.Errorf("outcome = %+v, want 2 hops to bank 3", out)
	}
	if st := h.StatsFor(0); st.HopsTotal != 4 { // round trip
		t.Errorf("HopsTotal = %d, want 4", st.HopsTotal)
	}
}

func TestWriteInvalidatesOtherSharers(t *testing.T) {
	h := newTestHierarchy()
	h.Access(0, 0x4000, 0)
	h.Access(1, 0x4000, 0)
	// Both cores now hold the line privately.
	if out := h.Access(1, 0x4000, 0); out.Level != LevelL1 {
		t.Fatalf("setup: core 1 should hit L1, got %v", out.Level)
	}
	h.Write(0, 0x4000, 0)
	// Core 1's private copies must be gone: next read goes to the LLC.
	out := h.Access(1, 0x4000, 0)
	if out.Level != LevelLLC {
		t.Errorf("after write, core 1 access = %v, want LLC", out.Level)
	}
	if h.WritebackInvals == 0 {
		t.Error("write should have recorded sharer invalidations")
	}
}

func TestInclusionBackInvalidation(t *testing.T) {
	h := newTestHierarchy()
	// LLC bank 0 is 16 sets × 4 ways = 64 lines. Blow it out with a big
	// scan from core 1 and check core 0's early line left its privates too.
	first := uint64(0)
	h.Access(0, first, 0)
	for i := uint64(1); i < 200; i++ {
		h.Access(1, i*64*16, 0) // same LLC set as first (stride = sets*line)
	}
	out := h.Access(0, first, 0)
	if out.Level != LevelMemory {
		t.Errorf("after LLC eviction, access = %v, want Memory (inclusion)", out.Level)
	}
	if h.Invalidations == 0 {
		t.Error("back-invalidations not counted")
	}
}

func TestInstallPlacementInvalidatesMovedLines(t *testing.T) {
	h := newTestHierarchy()
	// Distinct LLC sets so nothing self-evicts before the walk.
	addrs := []uint64{0x0, 0x40, 0x80, 0xc0, 0x100}
	for _, a := range addrs {
		h.Access(0, a, 0)
	}
	// Move VC 0 entirely from bank 0 to bank 1: all its lines must leave
	// bank 0.
	n := h.InstallPlacement(0, vtb.SingleBank(1))
	if n != len(addrs) {
		t.Errorf("InstallPlacement invalidated %d LLC lines, want %d", n, len(addrs))
	}
	// Accesses now miss (data "moved"), landing in bank 1.
	out := h.Access(0, addrs[0], 0)
	if out.Level != LevelMemory || out.Bank != 1 {
		t.Errorf("after move: %+v, want Memory via bank 1", out)
	}
}

func TestInstallPlacementFirstTimeNoWalk(t *testing.T) {
	h := New(testConfig())
	h.VTB().SetDefaultVC(0)
	if n := h.InstallPlacement(0, vtb.SingleBank(0)); n != 0 {
		t.Errorf("first install invalidated %d lines", n)
	}
}

func TestInstallPlacementIdenticalNoWalk(t *testing.T) {
	h := newTestHierarchy()
	h.Access(0, 0x1000, 0)
	if n := h.InstallPlacement(0, vtb.SingleBank(0)); n != 0 {
		t.Errorf("identical reinstall invalidated %d lines", n)
	}
	if out := h.Access(0, 0x1000, 0); out.Level != LevelL1 {
		t.Errorf("line should be undisturbed, got %v", out.Level)
	}
}

func TestFlushBank(t *testing.T) {
	h := newTestHierarchy()
	h.Access(0, 0x1000, 0)
	h.Access(0, 0x2000, 0)
	if n := h.FlushBank(0); n != 2 {
		t.Errorf("FlushBank = %d, want 2", n)
	}
	if out := h.Access(0, 0x1000, 0); out.Level != LevelMemory {
		t.Errorf("after flush: %v, want Memory (privates flushed too)", out.Level)
	}
}

func TestUnmappedAddressesStripeAcrossBanks(t *testing.T) {
	h := New(testConfig()) // no default VC, no mappings
	seen := map[topo.TileID]bool{}
	for i := uint64(0); i < 16; i++ {
		out := h.Access(0, i*64, 0)
		seen[out.Bank] = true
	}
	if len(seen) != 4 {
		t.Errorf("unmapped fallback used %d banks, want 4 (S-NUCA striping)", len(seen))
	}
}

func TestTotalStats(t *testing.T) {
	h := newTestHierarchy()
	h.Access(0, 0x1000, 0)
	h.Access(1, 0x2000, 0)
	tot := h.TotalStats()
	if tot.Accesses != 2 || tot.MemLoads != 2 {
		t.Errorf("TotalStats = %+v", tot)
	}
}

func TestLevelString(t *testing.T) {
	for _, l := range []Level{LevelL1, LevelL2, LevelLLC, LevelMemory, Level(9)} {
		if l.String() == "" {
			t.Errorf("Level(%d).String empty", int(l))
		}
	}
}

// TestFlushBankKeepsInclusionForStripedData pins FlushBank's inclusion on
// data no VC maps: S-NUCA striping homes line 0x40 in bank 1, and flushing
// that bank must take core 0's private copies and its directory entry with
// it, counting both invalidations in Invalidations and cache.invalidations.
func TestFlushBankKeepsInclusionForStripedData(t *testing.T) {
	h := New(testConfig()) // no VC mapped
	reg := obs.NewRegistry()
	h.Instrument(reg)
	if out := h.Access(0, 0x40, 0); out.Bank != 1 {
		t.Fatalf("0x40 striped to bank %d, want 1", out.Bank)
	}
	if n := h.FlushBank(1); n != 1 {
		t.Fatalf("FlushBank(1) = %d, want 1", n)
	}
	if sharers, ok := h.dir.lookup(0x40); ok {
		t.Errorf("directory still lists sharers %b for 0x40 after its bank was flushed", sharers)
	}
	if h.Invalidations != 2 {
		t.Errorf("Invalidations = %d, want 2 (core 0's L1 and L2 copies)", h.Invalidations)
	}
	if v := reg.Counter("cache.invalidations").Value(); v != 2 {
		t.Errorf("cache.invalidations = %d, want 2", v)
	}
	if out := h.Access(0, 0x40, 0); out.Level != LevelMemory {
		t.Errorf("read after the flush: %v, want Memory (the L1 and L2 copies must be gone)", out.Level)
	}
}
