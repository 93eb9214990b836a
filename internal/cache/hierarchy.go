// Package cache assembles the full memory hierarchy of Table II: per-core
// split L1s and private L2s, an inclusive LLC distributed into banks routed
// by virtual-cache placement descriptors, a MESI-style sharer directory, and
// the background invalidation walks that keep the hierarchy coherent when
// software changes data placement (Sec. IV-A).
//
// This is the functional (untimed) hierarchy, used by the detailed
// experiments and integration tests; latency is accounted analytically from
// hop counts and level hit statistics, and the event-driven TimedLLC adds
// port and NoC contention for the attack demonstrations.
package cache

import (
	"fmt"

	"jumanji/internal/bank"
	"jumanji/internal/obs"
	"jumanji/internal/topo"
	"jumanji/internal/vtb"
)

// Config sizes the hierarchy. Defaults follow Table II.
type Config struct {
	Mesh     topo.Mesh
	L1       bank.Config // per-core L1 data cache
	L2       bank.Config // per-core private L2
	LLCBank  bank.Config // one per tile
	LineSize uint64
}

// DefaultConfig returns the Table II hierarchy for the given mesh:
// 32 KB 8-way L1s, 128 KB 8-way L2s, 1 MB 32-way DRRIP LLC banks, 64 B lines.
func DefaultConfig(mesh topo.Mesh) Config {
	return Config{
		Mesh:     mesh,
		L1:       bank.Config{Sets: 64, Ways: 8, LineSize: 64, Policy: bank.LRU},
		L2:       bank.Config{Sets: 256, Ways: 8, LineSize: 64, Policy: bank.LRU},
		LLCBank:  bank.Config{Sets: 512, Ways: 32, LineSize: 64, Policy: bank.DRRIP},
		LineSize: 64,
	}
}

// Level identifies where an access was satisfied.
type Level int

// Hierarchy levels from fastest to slowest.
const (
	LevelL1 Level = iota
	LevelL2
	LevelLLC
	LevelMemory
)

func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelLLC:
		return "LLC"
	case LevelMemory:
		return "Memory"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Outcome describes one access's journey through the hierarchy.
type Outcome struct {
	Level Level       // level that satisfied the access
	Bank  topo.TileID // LLC bank consulted (valid for LLC and Memory levels)
	Hops  int         // one-way NoC hops to that bank (0 for L1/L2 hits)
}

// Stats counts accesses per level for one core.
type Stats struct {
	Accesses  uint64
	L1Hits    uint64
	L2Hits    uint64
	LLCHits   uint64
	MemLoads  uint64
	HopsTotal uint64 // sum of round-trip hops for LLC traversals
}

// Hierarchy is the functional multi-level cache system.
type Hierarchy struct {
	cfg   Config
	l1    []*bank.Bank
	l2    []*bank.Bank
	llc   []*bank.Bank
	vtb   *vtb.VTB // shared OS view: page table + VC descriptors
	stats []Stats

	// dir tracks which cores may hold a copy of each cached line (MESI
	// sharer set; bit i = core i, so at most maxCores cores). Inclusive:
	// a line leaves the directory when a fill evicts it from the LLC or
	// FlushBank or InstallPlacement's walk drops it.
	dir directory

	// striped holds the VCs accessed while they had no descriptor, whose
	// lines S-NUCA striping homed (stripeHome) until their first
	// InstallPlacement. Nil until such an access.
	striped map[vtb.VCID]bool

	// Invalidations counts back-invalidations sent to private caches
	// (inclusion victims plus placement-change walks).
	Invalidations uint64
	// WritebackInvals counts sharer invalidations caused by writes.
	WritebackInvals uint64

	// Optional registry metrics (nil when uninstrumented).
	obsL1Hits, obsL2Hits, obsLLCHits *obs.Counter
	obsMemLoads, obsInvals           *obs.Counter
}

// Instrument registers per-level hit counters (cache.{l1,l2,llc}.hits,
// cache.mem.loads, cache.invalidations) and per-bank counters
// (bank.<i>.{hits,misses,evictions}) for every LLC bank. The per-bank miss
// counters summed over banks equal cache.mem.loads by construction —
// cmd/validate cross-checks that invariant end to end.
func (h *Hierarchy) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	h.obsL1Hits = reg.Counter("cache.l1.hits")
	h.obsL2Hits = reg.Counter("cache.l2.hits")
	h.obsLLCHits = reg.Counter("cache.llc.hits")
	h.obsMemLoads = reg.Counter("cache.mem.loads")
	h.obsInvals = reg.Counter("cache.invalidations")
	for i := range h.llc {
		h.llc[i].Instrument(reg, fmt.Sprintf("bank.%d", i))
	}
}

// maxCores is the most cores the directory's sharer vector can name.
const maxCores = 32

// New builds a hierarchy with one L1+L2 per tile and one LLC bank per tile.
// It panics above maxCores tiles, where a core's sharer bit would not fit
// the directory and its private copies would escape inclusion (mesh sizes
// are programmer-chosen, as bank geometries are).
func New(cfg Config) *Hierarchy {
	n := cfg.Mesh.Tiles()
	if n > maxCores {
		panic(fmt.Sprintf("cache: %d tiles exceed the directory's %d-core sharer vector", n, maxCores))
	}
	h := &Hierarchy{
		cfg:   cfg,
		l1:    make([]*bank.Bank, n),
		l2:    make([]*bank.Bank, n),
		llc:   make([]*bank.Bank, n),
		vtb:   vtb.New(),
		stats: make([]Stats, n),
		dir:   newDirectory(n * cfg.LLCBank.Sets * cfg.LLCBank.Ways),
	}
	for i := 0; i < n; i++ {
		h.l1[i] = bank.New(cfg.L1)
		h.l2[i] = bank.New(cfg.L2)
		h.llc[i] = bank.New(cfg.LLCBank)
		i := i
		h.llc[i].OnEvict = func(lineAddr uint64, _ bank.PartitionID) {
			h.backInvalidate(lineAddr)
		}
	}
	return h
}

// VTB returns the shared OS placement state (page table and descriptors).
func (h *Hierarchy) VTB() *vtb.VTB { return h.vtb }

// LLCBank returns LLC bank b for direct configuration (way masks etc).
func (h *Hierarchy) LLCBank(b topo.TileID) *bank.Bank { return h.llc[b] }

// StatsFor returns core c's access statistics.
func (h *Hierarchy) StatsFor(core int) Stats { return h.stats[core] }

// TotalStats sums statistics over all cores.
func (h *Hierarchy) TotalStats() Stats {
	var t Stats
	for _, s := range h.stats {
		t.Accesses += s.Accesses
		t.L1Hits += s.L1Hits
		t.L2Hits += s.L2Hits
		t.LLCHits += s.LLCHits
		t.MemLoads += s.MemLoads
		t.HopsTotal += s.HopsTotal
	}
	return t
}

func (h *Hierarchy) lineAddr(addr uint64) uint64 {
	return addr &^ (h.cfg.LineSize - 1)
}

// Access performs a read by core on addr under LLC partition part.
// The partition is the way-partition the LLC design assigned to the
// accessing application within the target bank.
func (h *Hierarchy) Access(core int, addr uint64, part bank.PartitionID) Outcome {
	return h.access(core, addr, part, false)
}

// Write performs a write, invalidating other cores' private copies (MESI:
// the writer gains exclusive ownership).
func (h *Hierarchy) Write(core int, addr uint64, part bank.PartitionID) Outcome {
	return h.access(core, addr, part, true)
}

func (h *Hierarchy) access(core int, addr uint64, part bank.PartitionID, write bool) Outcome {
	st := &h.stats[core]
	st.Accesses++
	la := h.lineAddr(addr)

	if write {
		h.invalidateOtherSharers(la, core)
	}
	l1Access := h.l1[core].Access
	if write {
		l1Access = h.l1[core].AccessWrite
	}
	if l1Access(la, 0) {
		st.L1Hits++
		h.obsL1Hits.Inc()
		return Outcome{Level: LevelL1}
	}
	// An L2 hit needs no directory update: the core is already a sharer.
	// L1 and L2 fill only below, where the LLC step marks the core, and
	// every clear of the core's bit drops its copies in the same call
	// (TestPrivateHoldersAreSharers).
	if h.l2[core].Access(la, 0) {
		st.L2Hits++
		h.obsL2Hits.Inc()
		return Outcome{Level: LevelL2}
	}

	_, bankID, ok := h.vtb.Lookup(la)
	if !ok {
		// Unmapped data falls back to S-NUCA striping by address hash so
		// the hierarchy still functions before placement runs.
		bankID = h.stripeHome(la)
		if vc, mapped := h.vtb.VCFor(la); mapped && !h.striped[vc] {
			if h.striped == nil {
				h.striped = make(map[vtb.VCID]bool)
			}
			h.striped[vc] = true
		}
	}
	hops := h.cfg.Mesh.Hops(topo.TileID(core), bankID)
	st.HopsTotal += uint64(2 * hops)

	hit := h.llc[bankID].Access(la, part)
	h.dir.mark(la, core)
	if hit {
		st.LLCHits++
		h.obsLLCHits.Inc()
		return Outcome{Level: LevelLLC, Bank: bankID, Hops: hops}
	}
	st.MemLoads++
	h.obsMemLoads.Inc()
	return Outcome{Level: LevelMemory, Bank: bankID, Hops: hops}
}

// stripeHome is the bank S-NUCA striping homes line la in: the fallback
// for data whose VC has no descriptor.
func (h *Hierarchy) stripeHome(la uint64) topo.TileID {
	return topo.TileID(la / h.cfg.LineSize % uint64(h.cfg.Mesh.Tiles()))
}

// invalidateOtherSharers implements the write-invalidate half of MESI:
// all private copies except the writer's are dropped. Like the hardware, it
// probes the line's one set in each sharer's L1 and L2.
func (h *Hierarchy) invalidateOtherSharers(la uint64, writer int) {
	i := h.dir.find(la)
	if i < 0 {
		return
	}
	// Private caches do not call back into the directory, so slot i holds
	// la's entry throughout.
	sharers := h.dir.slots[i].sharers
	for c := 0; c < len(h.l1); c++ {
		if c == writer || sharers&(1<<uint(c)) == 0 {
			continue
		}
		n := h.l1[c].Invalidate(la) + h.l2[c].Invalidate(la)
		if n > 0 {
			h.WritebackInvals += uint64(n)
		}
	}
	h.dir.slots[i].sharers = sharers & (1 << uint(writer))
}

// backInvalidate enforces inclusion: when a line leaves the LLC, every
// private copy is dropped, probing the line's one set in each sharer's L1
// and L2.
func (h *Hierarchy) backInvalidate(la uint64) {
	i := h.dir.find(la)
	if i < 0 {
		return
	}
	sharers := h.dir.slots[i].sharers
	for c := 0; c < len(h.l1); c++ {
		if sharers&(1<<uint(c)) == 0 {
			continue
		}
		n := h.l1[c].Invalidate(la) + h.l2[c].Invalidate(la)
		h.Invalidations += uint64(n)
		h.obsInvals.Add(uint64(n))
	}
	h.dir.remove(i)
}

// InstallPlacement installs a new placement descriptor for vc and performs
// the background coherence walk: lines of vc whose home moved to a different
// bank are invalidated from their old banks and, by inclusion,
// back-invalidated from their sharers' private caches, as FlushBank does.
// A VC's old homes are its old descriptor's banks, or before its first
// descriptor the stripe homes its accesses fell back to; a first install
// walks only if the VC was accessed without a descriptor. It returns the
// number of LLC lines invalidated.
func (h *Hierarchy) InstallPlacement(vcID vtb.VCID, d vtb.Descriptor) int {
	old, had := h.vtb.Descriptor(vcID)
	h.vtb.Install(vcID, d)
	if !had {
		if !h.striped[vcID] {
			return 0
		}
		delete(h.striped, vcID)
		return h.dropMoved(vcID, nil, &d)
	}
	moved, _ := vtb.MovedLines(old, &d)
	if len(moved) == 0 {
		return 0
	}
	return h.dropMoved(vcID, old, &d)
}

// dropMoved invalidates, from every LLC bank, the lines of vc that the bank
// holds as their old home (old's bank, or the stripe home for a nil old)
// but d does not home there, with their private copies and directory
// entries (backInvalidate). It returns the number of LLC lines invalidated.
func (h *Hierarchy) dropMoved(vcID vtb.VCID, old, d *vtb.Descriptor) int {
	total := 0
	for bid := range h.llc {
		bid := topo.TileID(bid)
		n := h.llc[bid].InvalidateWhere(func(lineAddr uint64) bool {
			vc, found := h.vtb.VCFor(lineAddr)
			if !found || vc != vcID {
				return false
			}
			// The line must live in its old home (elsewhere, the
			// reconstructed address aliases another VC's line), and that
			// bank must no longer be its home.
			home := h.stripeHome(lineAddr)
			if old != nil {
				home = old.BankFor(lineAddr)
			}
			if home != bid || d.BankFor(lineAddr) == bid {
				return false
			}
			h.backInvalidate(lineAddr)
			return true
		})
		total += n
	}
	return total
}

// FlushBank drops all lines in LLC bank b (and their private copies),
// returning the LLC line count. Jumanji flushes banks shared across VMs on
// context switch when VMs outnumber banks (Sec. IV-B). Inclusion carries the
// flush to the private caches: each line of b is back-invalidated from its
// sharers and leaves the directory before it is dropped, whichever VC maps
// it or whether S-NUCA striping homed it in b.
func (h *Hierarchy) FlushBank(b topo.TileID) int {
	return h.llc[b].InvalidateWhere(func(la uint64) bool {
		h.backInvalidate(la)
		return true
	})
}
