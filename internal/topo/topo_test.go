package topo

import (
	"testing"
	"testing/quick"
)

func TestMeshBasics(t *testing.T) {
	m := NewMesh(5, 4)
	if m.Tiles() != 20 {
		t.Fatalf("Tiles = %d, want 20", m.Tiles())
	}
	if got := m.Coord(0); got != (Point{0, 0}) {
		t.Errorf("Coord(0) = %+v", got)
	}
	if got := m.Coord(19); got != (Point{4, 3}) {
		t.Errorf("Coord(19) = %+v", got)
	}
	if got := m.ID(Point{2, 1}); got != 7 {
		t.Errorf("ID(2,1) = %d, want 7", got)
	}
}

func TestNewMeshPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMesh(0, 4) should panic")
		}
	}()
	NewMesh(0, 4)
}

func TestHops(t *testing.T) {
	m := NewMesh(5, 4)
	tests := []struct {
		a, b TileID
		want int
	}{
		{0, 0, 0},
		{0, 4, 4},
		{0, 19, 7},
		{7, 7, 0},
		{5, 6, 1},
	}
	for _, tt := range tests {
		if got := m.Hops(tt.a, tt.b); got != tt.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
		if got := m.Hops(tt.b, tt.a); got != tt.want {
			t.Errorf("Hops(%d,%d) (reversed) = %d, want %d", tt.b, tt.a, got, tt.want)
		}
	}
}

func TestHopsPropertyMatchesRouteLength(t *testing.T) {
	m := NewMesh(5, 4)
	f := func(ar, br uint8) bool {
		a := TileID(int(ar) % m.Tiles())
		b := TileID(int(br) % m.Tiles())
		route := m.RouteAppend(nil, a, b)
		return len(route)-1 == m.Hops(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRouteEndpointsAndAdjacency(t *testing.T) {
	m := NewMesh(5, 4)
	route := m.RouteAppend(nil, 0, 19)
	if route[0] != 0 || route[len(route)-1] != 19 {
		t.Fatalf("Route endpoints wrong: %v", route)
	}
	for i := 1; i < len(route); i++ {
		if m.Hops(route[i-1], route[i]) != 1 {
			t.Fatalf("Route step %d not adjacent: %v", i, route)
		}
	}
	// X-Y routing goes X first: from (0,0) to (4,3) the second tile is (1,0)=1.
	if route[1] != 1 {
		t.Errorf("X-Y routing should move in X first, got second tile %d", route[1])
	}
}

func TestBanksByDistance(t *testing.T) {
	m := NewMesh(5, 4)
	banks := m.BanksByDistanceView(0)
	if len(banks) != 20 {
		t.Fatalf("BanksByDistance returned %d banks", len(banks))
	}
	if banks[0] != 0 {
		t.Errorf("closest bank to 0 should be 0, got %d", banks[0])
	}
	// Distances must be non-decreasing.
	for i := 1; i < len(banks); i++ {
		if m.Hops(0, banks[i]) < m.Hops(0, banks[i-1]) {
			t.Fatalf("BanksByDistance not sorted at index %d", i)
		}
	}
	// Must be a permutation.
	seen := make(map[TileID]bool)
	for _, b := range banks {
		if seen[b] {
			t.Fatalf("duplicate bank %d", b)
		}
		seen[b] = true
	}
}

func TestBanksByDistancePermutationProperty(t *testing.T) {
	m := NewMesh(5, 4)
	f := func(fr uint8) bool {
		from := TileID(int(fr) % m.Tiles())
		banks := m.BanksByDistanceView(from)
		if len(banks) != m.Tiles() {
			return false
		}
		seen := make(map[TileID]bool, len(banks))
		prev := -1
		for _, b := range banks {
			if seen[b] {
				return false
			}
			seen[b] = true
			d := m.Hops(from, b)
			if d < prev {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCorners(t *testing.T) {
	m := NewMesh(5, 4)
	c := m.Corners()
	want := [4]TileID{0, 4, 15, 19}
	if c != want {
		t.Errorf("Corners = %v, want %v", c, want)
	}
}

// TestBanksByDistanceViewMatches pins the memoized view to the sorting path:
// same permutation from every source tile.
func TestBanksByDistanceViewMatches(t *testing.T) {
	m := NewMesh(5, 4)
	for from := 0; from < m.Tiles(); from++ {
		view := m.BanksByDistanceView(TileID(from))
		// Reference: re-sort from scratch on a table-less mesh.
		ref := (&Mesh{W: 5, H: 4}).BanksByDistanceView(TileID(from))
		if len(view) != len(ref) {
			t.Fatalf("from %d: view has %d banks, want %d", from, len(view), len(ref))
		}
		for i := range ref {
			if view[i] != ref[i] {
				t.Fatalf("from %d index %d: view %d, want %d", from, i, view[i], ref[i])
			}
		}
	}
}

// TestBanksByDistanceViewZeroValue checks the fallback for meshes built
// without NewMesh (zero value or struct literal): still correct, just slow.
func TestBanksByDistanceViewZeroValue(t *testing.T) {
	m := &Mesh{W: 3, H: 3}
	banks := m.BanksByDistanceView(4)
	if len(banks) != 9 || banks[0] != 4 {
		t.Fatalf("zero-value view = %v", banks)
	}
}

func TestAllocGuardBanksByDistanceView(t *testing.T) {
	m := NewMesh(8, 8)
	var sink TileID
	allocs := testing.AllocsPerRun(200, func() {
		for from := 0; from < m.Tiles(); from++ {
			row := m.BanksByDistanceView(TileID(from))
			sink = row[len(row)-1]
		}
	})
	_ = sink
	if allocs != 0 {
		t.Errorf("BanksByDistanceView allocated %v times per sweep, want 0", allocs)
	}
}

// BenchmarkBanksByDistance compares the memoized view against the
// sort-per-call path it replaced (the epoch loop asks for an ordering per
// placed app per reconfiguration).
func BenchmarkBanksByDistance(b *testing.B) {
	m := NewMesh(8, 8)
	b.Run("view", func(b *testing.B) {
		var sink TileID
		for i := 0; i < b.N; i++ {
			row := m.BanksByDistanceView(TileID(i % m.Tiles()))
			sink = row[0]
		}
		_ = sink
	})
	b.Run("sort", func(b *testing.B) {
		un := &Mesh{W: 8, H: 8} // table-less: sorts every call
		var sink TileID
		for i := 0; i < b.N; i++ {
			row := un.BanksByDistanceView(TileID(i % un.Tiles()))
			sink = row[0]
		}
		_ = sink
	})
}
