package cache

import (
	"maps"
	"math/rand"
	"testing"

	"jumanji/internal/bank"
	"jumanji/internal/topo"
	"jumanji/internal/vtb"
)

// walkRef is a hierarchy driven with the coherence it had before
// Bank.Invalidate: back-invalidation and write-invalidation walk each
// sharer's whole L1 and L2 for the one line. It counts the cases a trace
// reaches, so that a comparison against it cannot pass on a trace that
// never reaches them.
type walkRef struct {
	h            *Hierarchy
	backDropped  int // private lines dropped because their line left the LLC
	writeDropped int // private lines dropped by another core's write
	absent       int // sharer visits that found the line in neither cache
}

func newWalkRef(cfg Config) *walkRef {
	r := &walkRef{h: New(cfg)}
	for _, b := range r.h.llc {
		b.OnEvict = func(la uint64, _ bank.PartitionID) { r.backInvalidate(la) }
	}
	return r
}

// walkDrop invalidates la in b by walking b's whole array.
func walkDrop(b *bank.Bank, la uint64) int {
	return b.InvalidateWhere(func(a uint64) bool { return a == la })
}

func (r *walkRef) dropPrivate(c int, la uint64) int {
	n := walkDrop(r.h.l1[c], la) + walkDrop(r.h.l2[c], la)
	if n == 0 {
		r.absent++
	}
	return n
}

func (r *walkRef) backInvalidate(la uint64) {
	h := r.h
	i := h.dir.find(la)
	if i < 0 {
		return
	}
	sharers := h.dir.slots[i].sharers
	for c := 0; c < len(h.l1); c++ {
		if sharers&(1<<uint(c)) == 0 {
			continue
		}
		n := r.dropPrivate(c, la)
		r.backDropped += n
		h.Invalidations += uint64(n)
		h.obsInvals.Add(uint64(n))
	}
	h.dir.remove(i)
}

func (r *walkRef) invalidateOtherSharers(la uint64, writer int) {
	h := r.h
	i := h.dir.find(la)
	if i < 0 {
		return
	}
	sharers := h.dir.slots[i].sharers
	for c := 0; c < len(h.l1); c++ {
		if c == writer || sharers&(1<<uint(c)) == 0 {
			continue
		}
		n := r.dropPrivate(c, la)
		r.writeDropped += n
		if n > 0 {
			h.WritebackInvals += uint64(n)
		}
	}
	h.dir.slots[i].sharers = sharers & (1 << uint(writer))
}

// Write drops the other sharers' copies by walking before the hierarchy's
// own write runs; that leaves only the writer in the sharer vector, so the
// hierarchy's one-set probes find nothing more to drop.
func (r *walkRef) Write(core int, addr uint64, part bank.PartitionID) Outcome {
	r.invalidateOtherSharers(r.h.lineAddr(addr), core)
	return r.h.Write(core, addr, part)
}

// TestCoherenceMatchesWalkReference pins the one-set coherence probes to
// the whole-array walks they replace. A random four-core read/write trace
// over three virtual caches and unmapped (striped) data runs on testConfig
// against both, with placement changes and bank flushes interleaved, and
// after every step the two must agree on the step's outcome, every core's
// stats, both invalidation counters, the directory, and every bank's
// lines: each L1, L2 and LLC bank's stats and the owner of every line
// address the trace can touch, which are the only lines a bank can hold.
func TestCoherenceMatchesWalkReference(t *testing.T) {
	cfg := testConfig()
	h, ref := New(cfg), newWalkRef(cfg)
	const linesPerRegion = 128 // two pages: twice an LLC bank's 64 lines
	regions := []uint64{0x100000, 0x200000, 0x300000, 0x900000}
	for vc, base := range regions[:3] {
		for _, x := range []*Hierarchy{h, ref.h} {
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
		vtb.SingleBank(0), vtb.SingleBank(1), vtb.SingleBank(2), vtb.SingleBank(3),
		vtb.Striped([]topo.TileID{0, 1}), vtb.Striped([]topo.TileID{0, 1, 2, 3}),
	}
	banks := func(x *Hierarchy) []*bank.Bank {
		return append(append(append([]*bank.Bank(nil), x.l1...), x.l2...), x.llc...)
	}
	hBanks, refBanks := banks(h), banks(ref.h)

	rng := rand.New(rand.NewSource(1))
	const steps = 3000
	for step := 0; step < steps; step++ {
		switch r := rng.Intn(200); {
		case r == 0:
			vc, d := vtb.VCID(rng.Intn(3)), placements[rng.Intn(len(placements))]
			if got, want := h.InstallPlacement(vc, d), ref.h.InstallPlacement(vc, d); got != want {
				t.Fatalf("step %d: InstallPlacement(%d) = %d, reference %d", step, vc, got, want)
			}
		case r == 1:
			b := topo.TileID(rng.Intn(cfg.Mesh.Tiles()))
			if got, want := h.FlushBank(b), ref.h.FlushBank(b); got != want {
				t.Fatalf("step %d: FlushBank(%d) = %d, reference %d", step, b, got, want)
			}
		default:
			core := rng.Intn(cfg.Mesh.Tiles())
			addr := lines[rng.Intn(len(lines))] + uint64(rng.Intn(int(cfg.LineSize)))
			part := bank.PartitionID(rng.Intn(2))
			var got, want Outcome
			if rng.Intn(4) == 0 {
				got, want = h.Write(core, addr, part), ref.Write(core, addr, part)
			} else {
				got, want = h.Access(core, addr, part), ref.h.Access(core, addr, part)
			}
			if got != want {
				t.Fatalf("step %d: core %d %#x: outcome %+v, reference %+v", step, core, addr, got, want)
			}
		}

		for c := range h.stats {
			if h.StatsFor(c) != ref.h.StatsFor(c) {
				t.Fatalf("step %d: core %d stats %+v, reference %+v", step, c, h.StatsFor(c), ref.h.StatsFor(c))
			}
		}
		if h.Invalidations != ref.h.Invalidations || h.WritebackInvals != ref.h.WritebackInvals {
			t.Fatalf("step %d: invalidations %d/%d, reference %d/%d", step,
				h.Invalidations, h.WritebackInvals, ref.h.Invalidations, ref.h.WritebackInvals)
		}
		if !maps.Equal(h.dir.entries(), ref.h.dir.entries()) {
			t.Fatalf("step %d: directories differ", step)
		}
		for i, b := range hBanks {
			rb := refBanks[i]
			if b.TotalStats() != rb.TotalStats() {
				t.Fatalf("step %d: bank %d stats %+v, reference %+v", step, i, b.TotalStats(), rb.TotalStats())
			}
			for _, la := range lines {
				p, ok := b.OwnerOf(la)
				rp, rok := rb.OwnerOf(la)
				if p != rp || ok != rok {
					t.Fatalf("step %d: bank %d line %#x: held %v by %d, reference %v by %d", step, i, la, ok, p, rok, rp)
				}
			}
		}
	}
	if ref.backDropped == 0 || ref.writeDropped == 0 || ref.absent == 0 {
		t.Fatalf("trace missed a case: %d back-invalidated, %d write-invalidated, %d absent probes",
			ref.backDropped, ref.writeDropped, ref.absent)
	}
	t.Logf("%d back-invalidated, %d write-invalidated, %d absent probes", ref.backDropped, ref.writeDropped, ref.absent)
}

// TestNewRefusesMoreThan32Tiles: the directory's sharer vector has one bit
// per core, so a 6×6 mesh's cores 32 to 35 would escape inclusion.
func TestNewRefusesMoreThan32Tiles(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a 36-tile mesh")
		}
	}()
	cfg := testConfig()
	cfg.Mesh = topo.NewMesh(6, 6)
	New(cfg)
}

// TestBackInvalidationReachesCore31: on a full 32-tile mesh, the last
// core's private copy leaves its L1 and L2 when its line leaves the LLC.
func TestBackInvalidationReachesCore31(t *testing.T) {
	cfg := testConfig()
	cfg.Mesh = topo.NewMesh(4, 8)
	h := New(cfg)
	h.VTB().SetDefaultVC(0)
	h.VTB().Install(0, vtb.SingleBank(0))
	const first = uint64(0)
	h.Access(31, first, 0)
	if sharers, _ := h.dir.lookup(first); !h.l1[31].Probe(first) || sharers != 1<<31 {
		t.Fatalf("setup: core 31 should hold the line and be its only sharer (directory %#x)", sharers)
	}
	for i := uint64(1); i < 200; i++ {
		h.Access(0, i*64*16, 0) // same LLC set as first (stride = sets*line)
	}
	if h.l1[31].Probe(first) || h.l2[31].Probe(first) {
		t.Error("core 31 still holds a line that left the LLC")
	}
	if out := h.Access(31, first, 0); out.Level != LevelMemory {
		t.Errorf("core 31's access after the LLC eviction = %v, want Memory", out.Level)
	}
	if h.Invalidations == 0 {
		t.Error("no back-invalidation counted")
	}
}
