package topo

import (
	"testing"
)

// bigMeshes are the rectangular and large topologies the scaling work targets
// (ISSUE 8): a non-square small mesh plus the 8×8 and 16×16 datacenter parts.
func bigMeshes() []Mesh {
	return []Mesh{NewMesh(3, 5), NewMesh(8, 8), NewMesh(16, 16)}
}

// refHops is the brute-force reference distance: walk the route one step at a
// time using only Coord arithmetic, counting steps. It shares no code with
// Hops (which subtracts coordinates directly).
func refHops(m Mesh, a, b TileID) int {
	pa, pb := m.Coord(a), m.Coord(b)
	steps := 0
	for pa.X != pb.X {
		pa.X += sign(pb.X - pa.X)
		steps++
	}
	for pa.Y != pb.Y {
		pa.Y += sign(pb.Y - pa.Y)
		steps++
	}
	return steps
}

func TestHopsMatchesBruteForceOnBigMeshes(t *testing.T) {
	for _, m := range bigMeshes() {
		for a := 0; a < m.Tiles(); a++ {
			for b := 0; b < m.Tiles(); b++ {
				ta, tb := TileID(a), TileID(b)
				want := refHops(m, ta, tb)
				if got := m.Hops(ta, tb); got != want {
					t.Fatalf("%dx%d: Hops(%d,%d) = %d, want %d", m.W, m.H, a, b, got, want)
				}
				if m.Hops(ta, tb) != m.Hops(tb, ta) {
					t.Fatalf("%dx%d: Hops(%d,%d) not symmetric", m.W, m.H, a, b)
				}
				if route := m.RouteAppend(nil, ta, tb); len(route)-1 != want {
					t.Fatalf("%dx%d: Route(%d,%d) has %d hops, want %d", m.W, m.H, a, b, len(route)-1, want)
				}
			}
		}
	}
}

// refBanksByDistance is a brute-force (selection sort) reference for the
// memoized distance ordering, keyed by (refHops, id).
func refBanksByDistance(m Mesh, from TileID) []TileID {
	banks := make([]TileID, m.Tiles())
	for i := range banks {
		banks[i] = TileID(i)
	}
	for i := 0; i < len(banks); i++ {
		best := i
		for j := i + 1; j < len(banks); j++ {
			dj, db := refHops(m, from, banks[j]), refHops(m, from, banks[best])
			if dj < db || (dj == db && banks[j] < banks[best]) {
				best = j
			}
		}
		banks[i], banks[best] = banks[best], banks[i]
	}
	return banks
}

func TestBanksByDistanceViewMatchesBruteForceOnBigMeshes(t *testing.T) {
	for _, m := range bigMeshes() {
		for from := 0; from < m.Tiles(); from++ {
			want := refBanksByDistance(m, TileID(from))
			got := m.BanksByDistanceView(TileID(from))
			if len(got) != len(want) {
				t.Fatalf("%dx%d: view from %d has %d entries, want %d", m.W, m.H, from, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%dx%d: view from %d differs at %d: got %d, want %d (the (hops,id) key is a total order, so the permutation must be unique)",
						m.W, m.H, from, i, got[i], want[i])
				}
			}
		}
	}
}

// TestRouteAppendMatchesRoute checks that routing into a reused buffer
// gives the same path as routing into a fresh one.
func TestRouteAppendMatchesRoute(t *testing.T) {
	var buf []TileID
	for _, m := range bigMeshes() {
		for a := 0; a < m.Tiles(); a += 3 {
			for b := 0; b < m.Tiles(); b += 5 {
				want := m.RouteAppend(nil, TileID(a), TileID(b))
				buf = m.RouteAppend(buf[:0], TileID(a), TileID(b))
				if len(buf) != len(want) {
					t.Fatalf("%dx%d: RouteAppend(%d,%d) length %d, want %d", m.W, m.H, a, b, len(buf), len(want))
				}
				for i := range want {
					if buf[i] != want[i] {
						t.Fatalf("%dx%d: RouteAppend(%d,%d)[%d] = %d, want %d", m.W, m.H, a, b, i, buf[i], want[i])
					}
				}
			}
		}
	}
}

// TestAllocGuardRoute pins the zero-allocation contract of RouteAppend: with
// a warmed buffer, routing allocates nothing (the property internal/noc's
// per-message path relies on).
func TestAllocGuardRoute(t *testing.T) {
	m := NewMesh(16, 16)
	buf := m.RouteAppend(nil, 0, TileID(m.Tiles()-1)) // warm to the diameter
	allocs := testing.AllocsPerRun(200, func() {
		for b := 0; b < m.Tiles(); b += 7 {
			buf = m.RouteAppend(buf[:0], 3, TileID(b))
		}
	})
	if allocs != 0 {
		t.Errorf("RouteAppend with warmed buffer allocated %v times per sweep, want 0", allocs)
	}
}
