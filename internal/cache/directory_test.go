package cache

import (
	"maps"
	"math/rand"
	"testing"

	"jumanji/internal/bank"
	"jumanji/internal/topo"
	"jumanji/internal/vtb"
)

// lookup returns line's sharers and whether the directory has an entry.
func (d *directory) lookup(line uint64) (uint32, bool) {
	if i := d.find(line); i >= 0 {
		return d.slots[i].sharers, true
	}
	return 0, false
}

// entries copies the directory into a map, for whole-directory
// comparisons.
func (d *directory) entries() map[uint64]uint32 {
	m := make(map[uint64]uint32, d.n)
	for _, s := range d.slots {
		if s.used {
			m[s.line] = s.sharers
		}
	}
	return m
}

// TestDirectoryMatchesMap runs the hierarchy's three directory operations
// (mark a sharer; overwrite an entry's sharers, as a write does; remove an
// entry, as back-invalidation does) on the table and on a Go map, at
// random over 6,000 line addresses, so the table grows from 64 slots to
// 8,192 and its probe runs collide and wrap. After every operation both
// must hold the same entries, the table's count must match, and every
// entry must be found from its home without crossing an empty slot.
func TestDirectoryMatchesMap(t *testing.T) {
	d := newDirectory(0)
	want := map[uint64]uint32{}
	rng := rand.New(rand.NewSource(1))
	const universe = 6000
	grows := 0
	for step := 0; step < 60000; step++ {
		la := uint64(rng.Intn(universe)) * 64
		size := len(d.slots)
		switch r := rng.Intn(8); {
		case r < 5: // the trace fills faster than it evicts until the table is large
			core := rng.Intn(maxCores)
			d.mark(la, core)
			want[la] |= 1 << uint(core)
		case r < 6:
			writer := uint32(1) << uint(rng.Intn(maxCores))
			if i := d.find(la); i >= 0 {
				d.slots[i].sharers &= writer
			}
			if s, ok := want[la]; ok {
				want[la] = s & writer
			}
		default:
			if i := d.find(la); i >= 0 {
				d.remove(i)
			}
			delete(want, la)
		}
		if len(d.slots) != size {
			grows++
		}
		if d.n != len(want) {
			t.Fatalf("step %d: table holds %d entries, map %d", step, d.n, len(want))
		}
		if step%97 == 0 || len(d.slots) != size {
			if !maps.Equal(d.entries(), want) {
				t.Fatalf("step %d: entries differ from the map's", step)
			}
			for la, s := range want {
				if got, ok := d.lookup(la); !ok || got != s {
					t.Fatalf("step %d: lookup(%#x) = %#x, %v; map has %#x", step, la, got, ok, s)
				}
			}
		}
	}
	if !maps.Equal(d.entries(), want) {
		t.Fatal("entries differ from the map's at the end")
	}
	if grows < 7 {
		t.Fatalf("table grew %d times, want 7 (64 to 8,192 slots)", grows)
	}
}

// TestPrivateHoldersAreSharers pins the inclusion invariant that lets an L2
// hit skip the directory: after every step of a random four-core
// read/write trace, with placement changes and bank flushes interleaved,
// every core holding a line in its L1 or L2 is a sharer of that line, and
// every line the directory names is held by some LLC bank. It also runs the
// trace on a second hierarchy that marks the core a sharer on every L2 hit,
// as the access path did before, and both must hold the same directory and
// outcomes after every step.
func TestPrivateHoldersAreSharers(t *testing.T) {
	cfg := testConfig()
	h, marking := New(cfg), New(cfg)
	const linesPerRegion = 128
	regions := []uint64{0x100000, 0x200000, 0x300000, 0x900000}
	for vc, base := range regions[:3] {
		for _, x := range []*Hierarchy{h, marking} {
			x.VTB().MapRange(base, linesPerRegion*cfg.LineSize, vtb.VCID(vc))
			x.VTB().Install(vtb.VCID(vc), vtb.SingleBank(topo.TileID(vc)))
		}
	}
	var lines []uint64
	for _, base := range regions {
		for i := uint64(0); i < linesPerRegion; i++ {
			lines = append(lines, base+i*cfg.LineSize)
		}
	}
	placements := []vtb.Descriptor{
		vtb.SingleBank(0), vtb.SingleBank(3),
		vtb.Striped([]topo.TileID{0, 1}), vtb.Striped([]topo.TileID{0, 1, 2, 3}),
	}

	rng := rand.New(rand.NewSource(2))
	var l2Hits, held int
	for step := 0; step < 4000; step++ {
		switch r := rng.Intn(150); {
		case r == 0:
			vc, d := vtb.VCID(rng.Intn(3)), placements[rng.Intn(len(placements))]
			h.InstallPlacement(vc, d)
			marking.InstallPlacement(vc, d)
		case r == 1:
			b := topo.TileID(rng.Intn(cfg.Mesh.Tiles()))
			h.FlushBank(b)
			marking.FlushBank(b)
		default:
			core := rng.Intn(cfg.Mesh.Tiles())
			// Three accesses in four go to the core's own 12 hot lines,
			// spread over the regions and a core's cache sets: three to an
			// L1 set of two ways, at most two to an L2 set of two, so L2
			// hits are common.
			la := lines[rng.Intn(len(lines))]
			if rng.Intn(4) != 0 {
				k := rng.Intn(12)
				la = regions[k%4] + uint64(16*core+k)*cfg.LineSize
			}
			addr := la + uint64(rng.Intn(int(cfg.LineSize)))
			part := bank.PartitionID(rng.Intn(2))
			var got, want Outcome
			if rng.Intn(4) == 0 {
				got, want = h.Write(core, addr, part), marking.Write(core, addr, part)
			} else {
				got, want = h.Access(core, addr, part), marking.Access(core, addr, part)
			}
			if want.Level == LevelL2 {
				marking.dir.mark(la, core)
				l2Hits++
			}
			if got != want {
				t.Fatalf("step %d: core %d %#x: outcome %+v, marking hierarchy %+v", step, core, addr, got, want)
			}
		}

		for c := range h.l1 {
			for _, la := range lines {
				if !h.l1[c].Probe(la) && !h.l2[c].Probe(la) {
					continue
				}
				held++
				if sharers, _ := h.dir.lookup(la); sharers&(1<<uint(c)) == 0 {
					t.Fatalf("step %d: core %d holds %#x privately but is not a sharer (%#b)", step, c, la, sharers)
				}
			}
		}
		entries := h.dir.entries()
		if !maps.Equal(entries, marking.dir.entries()) {
			t.Fatalf("step %d: directory differs from the one marked on L2 hits", step)
		}
		// Inclusion: a line leaves the directory when it leaves the LLC.
		for la := range entries {
			inLLC := false
			for _, b := range h.llc {
				inLLC = inLLC || b.Probe(la)
			}
			if !inLLC {
				t.Fatalf("step %d: directory names %#x, which no LLC bank holds", step, la)
			}
		}
	}
	if l2Hits < 500 {
		t.Fatalf("trace reached %d L2 hits, want at least 500", l2Hits)
	}
	t.Logf("%d L2 hits, %d private copies checked", l2Hits, held)
}
