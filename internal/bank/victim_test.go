package bank

import (
	"math/rand"
	"slices"
	"testing"
)

// agingVictim is findVictim as it was before the one-pass RRIP search:
// LRU takes the first allowed line with the oldest timestamp; RRIP policies
// look for the first allowed line at maxRRPV and, while there is none, age
// every allowed line by one and look again.
func agingVictim(policy Policy, set []line, mask uint64) int {
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
	if policy == LRU {
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

// TestFindVictimMatchesAgingLoop pins the one-pass victim search to the
// aging loop it replaces. For every policy and associativity from 1 to 64
// ways, random sets under random way masks (single ways, full masks and
// anything between) go through both, and both must pick the same way and
// leave every line, its RRPV included, the same. Sets are mostly full, so
// the search reaches the timestamp and RRPV comparisons, and their RRPVs
// are often all below maxRRPV, so the RRIP policies must age; the test
// fails if a policy never reaches a case.
func TestFindVictimMatchesAgingLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, pol := range []Policy{LRU, SRRIP, BRRIP, DRRIP} {
		for _, ways := range []int{1, 2, 3, 8, 16, 32, 64} {
			b := New(Config{Sets: 1, Ways: ways, LineSize: 64, Policy: pol})
			var invalid, compared, aged int
			for trial := 0; trial < 3000; trial++ {
				var mask uint64
				switch rng.Intn(3) {
				case 0:
					mask = b.fullMask
				case 1:
					mask = 1 << uint(rng.Intn(ways))
				default:
					for mask == 0 {
						mask = rng.Uint64() & b.fullMask
					}
				}
				full := rng.Intn(4) != 0
				topRRPV := maxRRPV
				if rng.Intn(2) == 0 {
					topRRPV = maxRRPV - 1
				}
				set := make([]line, ways)
				for w := range set {
					set[w] = line{
						tag:   rng.Uint64(),
						used:  uint64(rng.Intn(2 * ways)), // ties happen
						part:  PartitionID(rng.Intn(4)) - 1,
						valid: full || rng.Intn(4) != 0,
						dirty: rng.Intn(2) == 0,
						rrpv:  uint8(rng.Intn(topRRPV + 1)),
					}
				}
				ref := slices.Clone(set)
				got := b.findVictim(set, mask)
				want := agingVictim(pol, ref, mask)
				if got != want {
					t.Fatalf("%v/%d ways trial %d mask %#x: victim %d, aging loop %d", pol, ways, trial, mask, got, want)
				}
				if !slices.Equal(set, ref) {
					t.Fatalf("%v/%d ways trial %d mask %#x: lines %+v, aging loop %+v", pol, ways, trial, mask, set, ref)
				}
				switch {
				case !set[got].valid:
					invalid++
				case pol != LRU && set[got].rrpv == maxRRPV && topRRPV < maxRRPV:
					aged++
				default:
					compared++
				}
			}
			if invalid == 0 || compared == 0 || (pol != LRU && aged == 0) {
				t.Fatalf("%v/%d ways: %d invalid victims, %d compared, %d aged", pol, ways, invalid, compared, aged)
			}
		}
	}
}
