package bank

import "fmt"

// VantageBank approximates Vantage partitioning [73] — the fine-grained,
// associativity-preserving mechanism Jigsaw's original evaluation used
// before the paper switched to way-partitioning "to better reflect
// production systems" (Sec. IV-A). Unlike way masks, Vantage gives each
// partition a capacity *quota* enforced by victim selection over the whole
// set: an inserting partition steals from whichever partition is most over
// its quota, so partitions keep the bank's full associativity regardless of
// how many there are.
//
// This implementation captures Vantage's two essential properties for the
// paper's arguments — capacity isolation and no associativity loss — with
// quota-aware victim selection instead of the original's managed/unmanaged
// regions and aperture control.
type VantageBank struct {
	*Bank
	quotas    map[PartitionID]int // lines each partition may hold
	occupancy map[PartitionID]int
}

// NewVantage wraps a bank configuration with Vantage-style partitioning.
// The embedded Bank must not be given way masks.
func NewVantage(cfg Config) *VantageBank {
	v := &VantageBank{
		Bank:      New(cfg),
		quotas:    make(map[PartitionID]int),
		occupancy: make(map[PartitionID]int),
	}
	return v
}

// SetQuota assigns partition p a capacity quota in lines. A zero quota
// removes the partition's reservation (it becomes best-effort).
func (v *VantageBank) SetQuota(p PartitionID, lines int) {
	if lines < 0 {
		panic(fmt.Sprintf("bank: negative Vantage quota %d", lines))
	}
	if lines == 0 {
		delete(v.quotas, p)
		return
	}
	v.quotas[p] = lines
}

// Quota returns p's quota in lines (0 = none).
func (v *VantageBank) Quota(p PartitionID) int { return v.quotas[p] }

// Access looks up addr for partition p, filling on a miss with
// quota-aware victim selection.
func (v *VantageBank) Access(addr uint64, p PartitionID) bool {
	v.clock++
	st := v.statsFor(p)
	st.Accesses++

	si := v.setIndex(addr)
	tag := v.tag(addr)
	set := v.sets[si]
	for w := range set {
		if set[w].valid && set[w].tag == tag {
			st.Hits++
			v.onHit(&set[w])
			return true
		}
	}
	st.Misses++
	v.updateDueling(si)
	v.fill(si, tag, p)
	return false
}

// fill inserts with Vantage victim selection: invalid ways first; then a
// line of the most-over-quota partition (including the inserter if it is
// over); the policy's aging applies within the candidate subset.
func (v *VantageBank) fill(si int, tag uint64, p PartitionID) {
	set := v.sets[si]
	victim := v.findVantageVictim(set, p)
	if set[victim].valid {
		v.statsFor(set[victim].part).Evictions++
		v.occupancy[set[victim].part]--
		if v.OnEvict != nil {
			v.OnEvict(v.lineAddr(set[victim].tag, si), set[victim].part)
		}
	}
	set[victim] = line{tag: tag, valid: true, part: p, used: v.clock, rrpv: v.insertionRRPV(si)}
	v.occupancy[p]++
}

// overQuota returns how many lines partition q holds beyond its quota
// (partitions without quotas are always considered over by their full
// occupancy, so reserved partitions steal from best-effort ones first).
func (v *VantageBank) overQuota(q PartitionID) int {
	occ := v.occupancy[q]
	quota, has := v.quotas[q]
	if !has {
		return occ
	}
	return occ - quota
}

func (v *VantageBank) findVantageVictim(set []line, inserter PartitionID) int {
	// Invalid lines first: the bank is not full yet.
	for w := range set {
		if !set[w].valid {
			return w
		}
	}
	// Choose the donor partition present in this set with the largest
	// quota overshoot; fall back to the inserter's own lines, then to the
	// globally most-over partition even if absent from this set... which
	// cannot be evicted from here, so finally any line (graceful best
	// effort, like Vantage's unmanaged region).
	donor := PartitionID(-2)
	best := -1 << 62
	seen := map[PartitionID]bool{}
	for w := range set {
		q := set[w].part
		if seen[q] {
			continue
		}
		seen[q] = true
		if over := v.overQuota(q); over > best {
			best = over
			donor = q
		}
	}
	if over := v.overQuota(inserter); seen[inserter] && over >= best {
		donor = inserter
	}
	// Among the donor's lines in this set, apply the replacement policy.
	if v.cfg.Policy == LRU {
		victim, oldest := -1, ^uint64(0)
		for w := range set {
			if set[w].part == donor && set[w].used < oldest {
				oldest = set[w].used
				victim = w
			}
		}
		return victim
	}
	for {
		for w := range set {
			if set[w].part == donor && set[w].rrpv >= maxRRPV {
				return w
			}
		}
		for w := range set {
			if set[w].part == donor && set[w].rrpv < maxRRPV {
				set[w].rrpv++
			}
		}
	}
}

// OccupancyLines returns p's current line count (O(1), maintained).
func (v *VantageBank) OccupancyLines(p PartitionID) int { return v.occupancy[p] }
