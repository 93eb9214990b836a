// Package topo models the tiled-multicore floorplan used by the Jumanji
// evaluation: a W×H mesh of tiles, each holding one core and one LLC bank
// (Fig. 3 and Table II of the paper describe the default 5×4, 20-tile chip).
//
// Placement algorithms are topology-agnostic in the paper's sense: they only
// consume distances provided here (bank orderings by hop count), so a
// different Topology implementation slots in without touching the placers.
package topo

import "fmt"

// TileID identifies a tile; cores and LLC banks are co-located per tile,
// so TileID doubles as both a core ID and a bank ID.
type TileID int

// Point is a tile coordinate on the mesh.
type Point struct {
	X, Y int
}

// Mesh is a W×H grid of tiles with X-Y dimension-ordered routing.
// Tile IDs are assigned row-major: tile (x, y) has ID y*W + x.
//
// Meshes built by NewMesh carry a memoized distance-ordering table (tab);
// a zero-value Mesh literal still works, falling back to computing orderings
// on demand. The table is behind a pointer so Mesh stays a cheap copyable
// value.
type Mesh struct {
	W, H int
	tab  *distTable
}

// distTable memoizes, for every source tile, all tile IDs sorted by hop
// distance (ties by ID). Rows are built once at NewMesh and only ever read
// afterwards; BanksByDistanceView hands them out as shared read-only views.
type distTable struct {
	order [][]TileID // order[from] = tiles sorted by distance from `from`
}

// NewMesh returns a mesh of the given dimensions.
// It panics if either dimension is non-positive.
func NewMesh(w, h int) Mesh {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("topo: invalid mesh %dx%d", w, h))
	}
	m := Mesh{W: w, H: h}
	n := m.Tiles()
	tab := &distTable{order: make([][]TileID, n)}
	flat := make([]TileID, n*n) // one backing array for all rows
	start := make([]int, w+h)   // sortBanksByDistance's buckets, shared by the rows
	for from := 0; from < n; from++ {
		row := flat[from*n : (from+1)*n : (from+1)*n]
		m.sortBanksByDistance(row, TileID(from), start)
		tab.order[from] = row
	}
	m.tab = tab
	return m
}

// Tiles returns the number of tiles in the mesh.
func (m Mesh) Tiles() int { return m.W * m.H }

// Coord returns the coordinates of tile id.
// It panics if id is out of range.
func (m Mesh) Coord(id TileID) Point {
	m.check(id)
	return Point{X: int(id) % m.W, Y: int(id) / m.W}
}

// ID returns the tile at point p. It panics if p is outside the mesh.
func (m Mesh) ID(p Point) TileID {
	if p.X < 0 || p.X >= m.W || p.Y < 0 || p.Y >= m.H {
		panic(fmt.Sprintf("topo: point %+v outside %dx%d mesh", p, m.W, m.H))
	}
	return TileID(p.Y*m.W + p.X)
}

func (m Mesh) check(id TileID) {
	if id < 0 || int(id) >= m.Tiles() {
		panic(fmt.Sprintf("topo: tile %d outside %dx%d mesh", id, m.W, m.H))
	}
}

// Hops returns the number of network hops between two tiles under X-Y
// routing, i.e. their Manhattan distance. A tile is 0 hops from itself
// (local bank accesses do not traverse the network).
func (m Mesh) Hops(a, b TileID) int {
	pa, pb := m.Coord(a), m.Coord(b)
	return abs(pa.X-pb.X) + abs(pa.Y-pb.Y)
}

// RouteAppend appends the sequence of tiles a flit visits travelling from a
// to b under X-Y dimension-ordered routing, including both endpoints, to dst
// (pass dst[:0] to reuse its backing across messages) and returns the
// extended slice. Once dst has grown to the mesh's diameter it is never
// regrown, so a warmed buffer makes routing allocation-free
// (TestAllocGuardRoute).
func (m Mesh) RouteAppend(dst []TileID, a, b TileID) []TileID {
	pa, pb := m.Coord(a), m.Coord(b)
	dst = append(dst, a)
	cur := pa
	for cur.X != pb.X {
		cur.X += sign(pb.X - cur.X)
		dst = append(dst, m.ID(cur))
	}
	for cur.Y != pb.Y {
		cur.Y += sign(pb.Y - cur.Y)
		dst = append(dst, m.ID(cur))
	}
	return dst
}

// BanksByDistanceView returns all tile IDs ordered by hop distance from tile
// `from`, closest first. Ties are broken by tile ID so the ordering is
// deterministic; this is the sortBanksByDistance step of Listing 2. Meshes
// built by NewMesh return a shared row of the memoized table, computed once
// at construction. The caller must treat the slice as read-only — mutating
// it corrupts every future caller's ordering. Zero-value meshes fall back to
// allocating a fresh sorted slice.
func (m Mesh) BanksByDistanceView(from TileID) []TileID {
	m.check(from)
	if m.tab != nil {
		return m.tab.order[from]
	}
	banks := make([]TileID, m.Tiles())
	m.sortBanksByDistance(banks, from, nil)
	return banks
}

// sortBanksByDistance fills banks (length Tiles()) with all tile IDs ordered
// by hop distance from `from`, ties by ID, by a counting sort over hop
// distances: the tiles at each distance are counted, the counts give each
// distance's first slot, and a scan of the IDs in ascending order drops each
// into its distance's next slot, which leaves every distance's tiles in ID
// order. start is scratch of at least W+H elements; nil allocates it.
func (m Mesh) sortBanksByDistance(banks []TileID, from TileID, start []int) {
	f := m.Coord(from)
	if start == nil {
		start = make([]int, m.W+m.H)
	}
	// start[d+1] counts the tiles d hops away; the prefix sum then turns
	// start[d] into the first slot of distance d.
	start = start[:m.W+m.H]
	clear(start)
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			start[abs(x-f.X)+abs(y-f.Y)+1]++
		}
	}
	for d := 1; d < len(start); d++ {
		start[d] += start[d-1]
	}
	id := TileID(0)
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			d := abs(x-f.X) + abs(y-f.Y)
			banks[start[d]] = id
			start[d]++
			id++
		}
	}
}

// Corners returns the four corner tiles of the mesh in the order
// top-left, top-right, bottom-left, bottom-right. The paper pins memory
// controllers and latency-critical applications at chip corners.
func (m Mesh) Corners() [4]TileID {
	return [4]TileID{
		m.ID(Point{0, 0}),
		m.ID(Point{m.W - 1, 0}),
		m.ID(Point{0, m.H - 1}),
		m.ID(Point{m.W - 1, m.H - 1}),
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func sign(x int) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}
