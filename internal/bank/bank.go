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
// LLC design in use. PartitionNone marks unpartitioned lines. A partition is
// PartitionNone or non-negative: banks keep per-partition state in slices
// indexed from PartitionNone and panic on anything below it, as New does on
// a bad geometry (partitions are programmer-chosen).
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

// line is one cache line's bookkeeping. The words come first and the bytes
// last, so a line packs into 32 bytes.
type line struct {
	tag   uint64
	used  uint64 // LRU timestamp
	part  PartitionID
	valid bool
	dirty bool
	rrpv  uint8 // RRIP re-reference prediction value (0..maxRRPV)
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
	cfg Config
	// lines holds the sets one after another: set si is
	// lines[si*Ways : (si+1)*Ways].
	lines []line
	// masks and stats are indexed by slot(p), so PartitionNone's entries
	// come first; both grow to the largest partition seen. A zero mask
	// leaves its partition unrestricted.
	masks    []uint64
	stats    []Stats
	fullMask uint64 // every way of the bank
	psel     int    // set-dueling selector: high means BRRIP is winning
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
		cfg:      cfg,
		lines:    make([]line, cfg.Sets*cfg.Ways),
		fullMask: (uint64(1) << uint(cfg.Ways)) - 1,
		psel:     pselMax / 2,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
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
	i := slot(p)
	mask &= b.fullMask
	if i >= len(b.masks) {
		if mask == 0 {
			return
		}
		b.masks = append(b.masks, make([]uint64, i+1-len(b.masks))...)
	}
	b.masks[i] = mask
}

// WayMask returns the way mask for p, or the full mask if unrestricted.
func (b *Bank) WayMask(p PartitionID) uint64 {
	if i := slot(p); i < len(b.masks) && b.masks[i] != 0 {
		return b.masks[i]
	}
	return b.fullMask
}

// StatsFor returns a snapshot of partition p's counters.
func (b *Bank) StatsFor(p PartitionID) Stats {
	if i := slot(p); i < len(b.stats) {
		return b.stats[i]
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

// set returns set si's ways.
func (b *Bank) set(si int) []line {
	i := si * b.cfg.Ways
	return b.lines[i : i+b.cfg.Ways : i+b.cfg.Ways]
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
	set := b.set(si)

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
	for _, l := range b.set(si) {
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
	for _, l := range b.set(si) {
		if l.valid && l.tag == tag {
			return l.part, true
		}
	}
	return PartitionNone, false
}

// slot is p's index into masks and stats. It panics on a partition below
// PartitionNone.
func slot(p PartitionID) int {
	if p < PartitionNone {
		panic(fmt.Sprintf("bank: partition %d is below PartitionNone", p))
	}
	return int(p) + 1
}

// statsFor returns p's counters, growing stats to hold them. The pointer
// is good until the next call that grows stats.
func (b *Bank) statsFor(p PartitionID) *Stats {
	i := slot(p)
	if i >= len(b.stats) {
		b.stats = append(b.stats, make([]Stats, i+1-len(b.stats))...)
	}
	return &b.stats[i]
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
	set := b.set(si)
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

// findVictim picks a victim way within mask, in one pass over the allowed
// ways. The first invalid allowed way wins. Otherwise LRU takes the first
// allowed line with the oldest timestamp, and the RRIP policies the first
// allowed line with the largest RRPV, after aging every allowed line by the
// gap between that RRPV and maxRRPV: where aging all allowed lines by one,
// pass after pass, until one reaches maxRRPV would stop (RRPVs never
// exceed maxRRPV).
func (b *Bank) findVictim(set []line, mask uint64) int {
	if mask == 0 {
		panic("bank: empty way mask at fill")
	}
	victim := bits.TrailingZeros64(mask)
	if b.cfg.Policy == LRU {
		oldest := ^uint64(0)
		for m := mask; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			if !set[w].valid {
				return w
			}
			if set[w].used < oldest {
				oldest = set[w].used
				victim = w
			}
		}
		return victim
	}
	var most uint8
	for m := mask; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if !set[w].valid {
			return w
		}
		if set[w].rrpv > most {
			most = set[w].rrpv
			victim = w
		}
	}
	if gap := maxRRPV - most; gap != 0 {
		for m := mask; m != 0; m &= m - 1 {
			set[bits.TrailingZeros64(m)].rrpv += gap
		}
	}
	return victim
}

// InvalidateWhere walks every valid line and invalidates those whose
// reconstructed base address, ((tag << setBits) | set) << setShift,
// satisfies pred, returning the count. This models the background
// invalidation walk Jigsaw's hardware performs when data placement changes
// (Sec. IV-A "Coherence").
func (b *Bank) InvalidateWhere(pred func(lineAddr uint64) bool) int {
	n := 0
	for si := 0; si < b.cfg.Sets; si++ {
		set := b.set(si)
		for w := range set {
			l := &set[w]
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
	set := b.set(b.setIndex(lineAddr))
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
	slot(p) // panics on a partition below PartitionNone
	n := 0
	for _, l := range b.lines {
		if l.valid && l.part == p {
			n++
		}
	}
	return n
}
