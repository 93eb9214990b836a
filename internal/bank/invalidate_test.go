package bank

import (
	"math/rand"
	"slices"
	"testing"
)

// sameLines reports whether two banks hold identical line arrays: every
// way's tag, valid and dirty bits, owner and replacement state.
func sameLines(a, b *Bank) bool {
	return slices.Equal(a.lines, b.lines)
}

// TestInvalidateMatchesWalk pins Invalidate, which probes one set, to the
// whole-array walk it replaces in the hierarchy's coherence,
// InvalidateWhere(func(a) bool { return a == x }). For every policy at the
// hierarchy's L1, L2 and LLC geometries, two banks take the same random
// partitioned fills; then one invalidates each probe address with
// Invalidate and the other with the walk, and after every probe both must
// have returned the same count and hold identical lines. The probes are
// lines present in the bank, absent addresses, addresses in a present
// line's set under another tag, addresses inside a present line but not
// aligned to it, and lines already dropped.
func TestInvalidateMatchesWalk(t *testing.T) {
	geometries := []struct {
		name       string
		sets, ways int
	}{{"L1", 64, 8}, {"L2", 256, 8}, {"LLC", 512, 32}}
	const probesPerKind = 24
	for _, pol := range []Policy{LRU, SRRIP, BRRIP, DRRIP} {
		for gi, g := range geometries {
			cfg := Config{Sets: g.sets, Ways: g.ways, LineSize: 64, Policy: pol, Seed: int64(gi) + 1}
			probe, walk := New(cfg), New(cfg)
			// Four partitions on disjoint way masks, plus unmasked fills.
			quarter := uint64(1)<<uint(g.ways/4) - 1
			for p := 0; p < 4; p++ {
				probe.SetWayMask(PartitionID(p), quarter<<uint(p*g.ways/4))
				walk.SetWayMask(PartitionID(p), quarter<<uint(p*g.ways/4))
			}
			// Fills cover twice the bank's lines, so sets overflow and evict.
			rng := rand.New(rand.NewSource(int64(pol)*100 + int64(gi)))
			span := int64(2 * g.sets * g.ways)
			var filled []uint64
			for i := 0; i < 3*g.sets*g.ways; i++ {
				a := uint64(rng.Int63n(span)) * cfg.LineSize
				p := PartitionID(rng.Intn(5)) - 1 // PartitionNone..3
				if rng.Intn(4) == 0 {
					probe.AccessWrite(a, p)
					walk.AccessWrite(a, p)
				} else {
					probe.Access(a, p)
					walk.Access(a, p)
				}
				filled = append(filled, a)
			}
			if !sameLines(probe, walk) {
				t.Fatalf("%v/%s: identical fills left different lines", pol, g.name)
			}

			var present, sameSet, absent, unaligned []uint64
			seen := map[uint64]bool{}
			for _, a := range filled {
				if len(present) == probesPerKind {
					break
				}
				if seen[a] || !probe.Probe(a) {
					continue
				}
				seen[a] = true
				present = append(present, a)
				// The same set under the nearest tags the bank does not hold.
				for k := uint64(1); ; k++ {
					other := a + k*uint64(g.sets)*cfg.LineSize
					if !probe.Probe(other) {
						sameSet = append(sameSet, other)
						break
					}
				}
				off := []uint64{1, cfg.LineSize / 2, cfg.LineSize - 1}[len(present)%3]
				unaligned = append(unaligned, a+off)
			}
			for len(absent) < probesPerKind {
				// Never filled: beyond the fill span, or with high tag bits.
				a := uint64(span+rng.Int63n(span)) * cfg.LineSize
				if len(absent)%2 == 1 {
					a |= 1 << 63
				}
				absent = append(absent, a)
			}
			if len(present) < probesPerKind || len(sameSet) < probesPerKind {
				t.Fatalf("%v/%s: only %d present lines to probe", pol, g.name, len(present))
			}

			// Present lines go after the kinds that share their sets, and
			// then again: a dropped line's tag stays in its invalid way.
			kinds := []struct {
				name  string
				addrs []uint64
				want  int // lines each probe must drop
			}{
				{"unaligned", unaligned, 0},
				{"same set, other tag", sameSet, 0},
				{"absent", absent, 0},
				{"present", present, 1},
				{"already dropped", present, 0},
			}
			for _, k := range kinds {
				for _, x := range k.addrs {
					got := probe.Invalidate(x)
					want := walk.InvalidateWhere(func(a uint64) bool { return a == x })
					if got != want {
						t.Fatalf("%v/%s %s %#x: Invalidate = %d, walk = %d", pol, g.name, k.name, x, got, want)
					}
					if got != k.want {
						t.Fatalf("%v/%s %s %#x: dropped %d lines, want %d", pol, g.name, k.name, x, got, k.want)
					}
					if !sameLines(probe, walk) {
						t.Fatalf("%v/%s %s %#x: lines differ from the walk's", pol, g.name, k.name, x)
					}
				}
			}
		}
	}
}
