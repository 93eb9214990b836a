// Package bank implements a single set-associative LLC cache bank with the
// three features the paper's security analysis hinges on (Fig. 10):
//
//  1. shared cache sets — enabling conflict attacks, defended by
//     way-partitioning (an Intel CAT model using per-partition way masks);
//  2. limited bank ports with FIFO queueing — enabling the LLC port attack
//     demonstrated in Sec. VI-B;
//  3. adaptive replacement (DRRIP with set-dueling) whose shared PSEL state
//     leaks performance across partitions (Sec. VI-C, Fig. 12).
//
// The functional array (sets, ways, tags, replacement state) is independent
// of timing; TimedBank wraps a Bank with a sim.Server to model port
// occupancy and queueing delay.
package bank

import (
	"fmt"
	"math/bits"
	"math/rand"

	"jumanji/internal/obs"
)

// PartitionID identifies a way-partition within a bank. In the full system a
// partition corresponds to one application (or one VM) as configured by the
// LLC design in use. PartitionNone marks unpartitioned lines.
type PartitionID int

// PartitionNone is the partition of lines inserted without a way mask
// restriction (unpartitioned designs, or apps sharing leftover ways).
const PartitionNone PartitionID = -1

// Policy selects the replacement policy for a bank.
type Policy int

// Replacement policies. DRRIP set-duels between SRRIP and BRRIP using shared
// PSEL counters, as in Jaleel et al. [30].
const (
	LRU Policy = iota
	SRRIP
	BRRIP
	DRRIP
)

func (p Policy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case SRRIP:
		return "SRRIP"
	case BRRIP:
		return "BRRIP"
	case DRRIP:
		return "DRRIP"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Config describes a cache bank. The paper's banks are 1 MB, 32-way,
// 64 B lines (Table II): 512 sets.
type Config struct {
	Sets     int    // number of sets; must be a power of two
	Ways     int    // associativity; at most 64 (way masks are uint64)
	LineSize uint64 // bytes per line
	Policy   Policy
	Seed     int64 // randomness for BRRIP's infrequent near insertions
}

// DefaultConfig returns the Table II bank: 1 MB, 32-way, 64 B lines, DRRIP.
func DefaultConfig() Config {
	return Config{Sets: 512, Ways: 32, LineSize: 64, Policy: DRRIP}
}

// line is one cache line's bookkeeping.
type line struct {
	tag   uint64
	valid bool
	dirty bool
	part  PartitionID
	rrpv  uint8  // RRIP re-reference prediction value (0..maxRRPV)
	used  uint64 // LRU timestamp
}

const (
	maxRRPV        = 3 // 2-bit RRIP
	brripFarChance = 32
	pselBits       = 10
	pselMax        = 1<<pselBits - 1
	// Leader sets for set-dueling: every 32nd set leads SRRIP, offset 16
	// leads BRRIP (a standard static mapping).
	duelPeriod = 32
)

// Stats aggregates per-partition access counts.
type Stats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// Writebacks counts evictions of dirty lines — traffic to the next
	// level of the hierarchy.
	Writebacks uint64
}

// Bank is a set-associative cache bank. Create with New; the zero value is
// not usable.
type Bank struct {
	cfg      Config
	sets     [][]line
	masks    map[PartitionID]uint64
	stats    map[PartitionID]*Stats
	psel     int // set-dueling selector: high means BRRIP is winning
	clock    uint64
	rng      *rand.Rand
	setShift uint // log2(LineSize): the offset bits below the set index
	setBits  uint // log2(Sets): the set-index width below the tag
	setMask  uint64

	// OnEvict, if set, is called with the reconstructed base address and
	// owner of every valid line evicted by a fill. An inclusive hierarchy
	// uses it to back-invalidate private-cache copies.
	OnEvict func(lineAddr uint64, p PartitionID)

	// Optional registry metrics (nil when uninstrumented; obs metrics
	// no-op on nil receivers, so the hot path pays one nil check).
	obsHits, obsMisses, obsEvictions *obs.Counter
}

// Instrument registers the bank's hit/miss/eviction counters under
// prefix.{hits,misses,evictions}. A nil registry leaves the bank
// uninstrumented.
func (b *Bank) Instrument(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	b.obsHits = reg.Counter(prefix + ".hits")
	b.obsMisses = reg.Counter(prefix + ".misses")
	b.obsEvictions = reg.Counter(prefix + ".evictions")
}

// New constructs a bank. It panics on invalid configuration (sizes are
// programmer-chosen constants, not runtime input).
func New(cfg Config) *Bank {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic(fmt.Sprintf("bank: sets %d must be a positive power of two", cfg.Sets))
	}
	if cfg.Ways <= 0 || cfg.Ways > 64 {
		panic(fmt.Sprintf("bank: ways %d out of range (1..64)", cfg.Ways))
	}
	if cfg.LineSize == 0 || cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic(fmt.Sprintf("bank: line size %d must be a positive power of two", cfg.LineSize))
	}
	b := &Bank{
		cfg:   cfg,
		sets:  make([][]line, cfg.Sets),
		masks: make(map[PartitionID]uint64),
		stats: make(map[PartitionID]*Stats),
		psel:  pselMax / 2,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	for i := range b.sets {
		b.sets[i] = make([]line, cfg.Ways)
	}
	b.setShift = uint(bits.TrailingZeros64(cfg.LineSize))
	b.setBits = uint(bits.TrailingZeros64(uint64(cfg.Sets)))
	b.setMask = uint64(cfg.Sets - 1)
	return b
}

// Config returns the bank's configuration.
func (b *Bank) Config() Config { return b.cfg }

// SizeBytes returns the bank's capacity in bytes.
func (b *Bank) SizeBytes() uint64 {
	return uint64(b.cfg.Sets) * uint64(b.cfg.Ways) * b.cfg.LineSize
}

// SetWayMask restricts partition p to the ways set in mask (bit i = way i),
// modeling Intel CAT. A zero mask removes the restriction. Masks of
// different partitions may overlap (CAT allows it), though secure designs
// configure them disjoint. Bits beyond the bank's associativity are ignored.
func (b *Bank) SetWayMask(p PartitionID, mask uint64) {
	mask &= (uint64(1) << uint(b.cfg.Ways)) - 1
	if mask == 0 {
		delete(b.masks, p)
		return
	}
	b.masks[p] = mask
}

// WayMask returns the way mask for p, or the full mask if unrestricted.
func (b *Bank) WayMask(p PartitionID) uint64 {
	if m, ok := b.masks[p]; ok {
		return m
	}
	return (uint64(1) << uint(b.cfg.Ways)) - 1
}

// StatsFor returns a snapshot of partition p's counters.
func (b *Bank) StatsFor(p PartitionID) Stats {
	if s, ok := b.stats[p]; ok {
		return *s
	}
	return Stats{}
}

// TotalStats returns counters summed over all partitions.
func (b *Bank) TotalStats() Stats {
	var t Stats
	for _, s := range b.stats {
		t.Accesses += s.Accesses
		t.Hits += s.Hits
		t.Misses += s.Misses
		t.Evictions += s.Evictions
		t.Writebacks += s.Writebacks
	}
	return t
}

// CurrentPolicy returns the replacement policy the bank would apply to a
// follower set right now (for DRRIP this reflects the PSEL winner).
func (b *Bank) CurrentPolicy() Policy {
	if b.cfg.Policy != DRRIP {
		return b.cfg.Policy
	}
	if b.psel > pselMax/2 {
		return BRRIP
	}
	return SRRIP
}

// setIndex maps an address to its set.
func (b *Bank) setIndex(addr uint64) int {
	return int((addr >> b.setShift) & b.setMask)
}

func (b *Bank) tag(addr uint64) uint64 {
	return addr >> b.setShift >> b.setBits
}

// lineAddr reconstructs the base address of the line with tag in set si.
func (b *Bank) lineAddr(tag uint64, si int) uint64 {
	return ((tag << b.setBits) | uint64(si)) << b.setShift
}

// Access looks up addr on behalf of partition p, filling on a miss.
// It returns whether the access hit. Misses evict a victim chosen within
// p's way mask according to the replacement policy.
func (b *Bank) Access(addr uint64, p PartitionID) bool {
	return b.access(addr, p, false)
}

// AccessWrite is Access for a store: the line is marked dirty, and its
// eventual eviction counts as a writeback (traffic to the next level).
func (b *Bank) AccessWrite(addr uint64, p PartitionID) bool {
	return b.access(addr, p, true)
}

func (b *Bank) access(addr uint64, p PartitionID, write bool) bool {
	b.clock++
	st := b.statsFor(p)
	st.Accesses++

	si := b.setIndex(addr)
	tag := b.tag(addr)
	set := b.sets[si]

	for w := range set {
		if set[w].valid && set[w].tag == tag {
			st.Hits++
			b.obsHits.Inc()
			b.onHit(&set[w])
			if write {
				set[w].dirty = true
			}
			return true
		}
	}
	st.Misses++
	b.obsMisses.Inc()
	b.updateDueling(si)
	b.fill(si, tag, p, write)
	return false
}

// Probe reports whether addr is present without updating any state.
// Attackers cannot use Probe (a real cache access always updates
// replacement state); it exists for tests and invariant checks.
func (b *Bank) Probe(addr uint64) bool {
	si := b.setIndex(addr)
	tag := b.tag(addr)
	for _, l := range b.sets[si] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// OwnerOf returns the partition holding addr and whether it is cached.
func (b *Bank) OwnerOf(addr uint64) (PartitionID, bool) {
	si := b.setIndex(addr)
	tag := b.tag(addr)
	for _, l := range b.sets[si] {
		if l.valid && l.tag == tag {
			return l.part, true
		}
	}
	return PartitionNone, false
}

func (b *Bank) statsFor(p PartitionID) *Stats {
	s, ok := b.stats[p]
	if !ok {
		s = &Stats{}
		b.stats[p] = s
	}
	return s
}

func (b *Bank) onHit(l *line) {
	l.used = b.clock
	l.rrpv = 0 // RRIP promotes on hit
}

// policyForSet returns the insertion policy for a set, honoring DRRIP's
// leader sets: SRRIP leaders and BRRIP leaders are fixed; followers use the
// PSEL winner.
func (b *Bank) policyForSet(si int) Policy {
	switch b.cfg.Policy {
	case DRRIP:
		switch si % duelPeriod {
		case 0:
			return SRRIP
		case duelPeriod / 2:
			return BRRIP
		default:
			return b.CurrentPolicy()
		}
	default:
		return b.cfg.Policy
	}
}

// updateDueling adjusts PSEL on misses in leader sets: a miss in an SRRIP
// leader suggests SRRIP is doing badly (vote toward BRRIP) and vice versa.
// The counters are bank-global and therefore shared across partitions —
// the performance leakage of Sec. VI-C.
func (b *Bank) updateDueling(si int) {
	if b.cfg.Policy != DRRIP {
		return
	}
	switch si % duelPeriod {
	case 0: // SRRIP leader missed
		if b.psel < pselMax {
			b.psel++
		}
	case duelPeriod / 2: // BRRIP leader missed
		if b.psel > 0 {
			b.psel--
		}
	}
}

func (b *Bank) fill(si int, tag uint64, p PartitionID, write bool) {
	set := b.sets[si]
	mask := b.WayMask(p)
	victim := b.findVictim(set, mask)
	if set[victim].valid {
		vst := b.statsFor(set[victim].part)
		vst.Evictions++
		b.obsEvictions.Inc()
		if set[victim].dirty {
			vst.Writebacks++
		}
		if b.OnEvict != nil {
			b.OnEvict(b.lineAddr(set[victim].tag, si), set[victim].part)
		}
	}
	set[victim] = line{
		tag:   tag,
		valid: true,
		dirty: write,
		part:  p,
		used:  b.clock,
		rrpv:  b.insertionRRPV(si),
	}
}

func (b *Bank) insertionRRPV(si int) uint8 {
	switch b.policyForSet(si) {
	case SRRIP:
		return maxRRPV - 1 // long re-reference interval
	case BRRIP:
		// Mostly distant (maxRRPV), occasionally long, per BRRIP.
		if b.rng.Intn(brripFarChance) == 0 {
			return maxRRPV - 1
		}
		return maxRRPV
	default: // LRU keeps rrpv unused
		return 0
	}
}

// findVictim picks a victim way within mask. Invalid allowed ways win first.
// For LRU the least-recently-used allowed line is chosen; for RRIP policies
// the first allowed line at maxRRPV, aging allowed lines until one appears.
func (b *Bank) findVictim(set []line, mask uint64) int {
	first := -1
	for w := range set {
		if mask&(1<<uint(w)) == 0 {
			continue
		}
		if first < 0 {
			first = w
		}
		if !set[w].valid {
			return w
		}
	}
	if first < 0 {
		panic("bank: empty way mask at fill")
	}
	if b.cfg.Policy == LRU {
		victim, oldest := first, ^uint64(0)
		for w := range set {
			if mask&(1<<uint(w)) == 0 {
				continue
			}
			if set[w].used < oldest {
				oldest = set[w].used
				victim = w
			}
		}
		return victim
	}
	for {
		for w := range set {
			if mask&(1<<uint(w)) == 0 {
				continue
			}
			if set[w].rrpv >= maxRRPV {
				return w
			}
		}
		for w := range set {
			if mask&(1<<uint(w)) != 0 && set[w].rrpv < maxRRPV {
				set[w].rrpv++
			}
		}
	}
}

// InvalidateWhere walks every valid line and invalidates those whose
// reconstructed base address, ((tag << setBits) | set) << setShift,
// satisfies pred, returning the count. This models the background
// invalidation walk Jigsaw's hardware performs when data placement changes
// (Sec. IV-A "Coherence").
func (b *Bank) InvalidateWhere(pred func(lineAddr uint64) bool) int {
	n := 0
	for si := range b.sets {
		for w := range b.sets[si] {
			l := &b.sets[si][w]
			if !l.valid {
				continue
			}
			if pred(b.lineAddr(l.tag, si)) {
				l.valid = false
				n++
			}
		}
	}
	return n
}

// Invalidate drops the line whose base address is lineAddr and returns the
// number of lines dropped: 0 or 1, since a set holds a tag at most once.
// It probes only lineAddr's set, where InvalidateWhere walks the whole
// array, and it agrees with InvalidateWhere(func(a uint64) bool { return a
// == lineAddr }) on every input: an address not aligned to LineSize is no
// line's base address and drops nothing. An inclusive hierarchy uses it to
// invalidate one line in a sharer's private caches.
func (b *Bank) Invalidate(lineAddr uint64) int {
	if lineAddr&(b.cfg.LineSize-1) != 0 {
		return 0
	}
	tag := b.tag(lineAddr)
	set := b.sets[b.setIndex(lineAddr)]
	n := 0
	for w := range set {
		if set[w].valid && set[w].tag == tag {
			set[w].valid = false
			n++
		}
	}
	return n
}

// OccupancyOf returns the number of valid lines owned by partition p.
func (b *Bank) OccupancyOf(p PartitionID) int {
	n := 0
	for si := range b.sets {
		for w := range b.sets[si] {
			if b.sets[si][w].valid && b.sets[si][w].part == p {
				n++
			}
		}
	}
	return n
}
