package topo

import (
	"slices"
	"sort"
	"testing"
)

// sortBanksByDistanceRef is the comparison sort NewMesh built each row with
// before its counting pass: every tile ID sorted by (hops from `from`, ID).
func sortBanksByDistanceRef(m Mesh, from TileID) []TileID {
	banks := make([]TileID, m.Tiles())
	for i := range banks {
		banks[i] = TileID(i)
	}
	sort.Slice(banks, func(i, j int) bool {
		di, dj := m.Hops(from, banks[i]), m.Hops(from, banks[j])
		if di != dj {
			return di < dj
		}
		return banks[i] < banks[j]
	})
	return banks
}

// TestBanksByDistanceMatchesSort pins NewMesh's counting-sort rows, and the
// zero-value mesh's fallback, to the sort-based reference on every mesh from
// 1×1 to 16×16, on 32×32, and on 1×N and N×1 strips.
func TestBanksByDistanceMatchesSort(t *testing.T) {
	var dims [][2]int
	for w := 1; w <= 16; w++ {
		for h := 1; h <= 16; h++ {
			dims = append(dims, [2]int{w, h})
		}
	}
	dims = append(dims, [2]int{32, 32}, [2]int{1, 40}, [2]int{40, 1}, [2]int{1, 64}, [2]int{64, 1})
	for _, d := range dims {
		m := NewMesh(d[0], d[1])
		bare := Mesh{W: d[0], H: d[1]}
		for from := TileID(0); int(from) < m.Tiles(); from++ {
			want := sortBanksByDistanceRef(m, from)
			for name, got := range map[string][]TileID{
				"table":    m.BanksByDistanceView(from),
				"fallback": bare.BanksByDistanceView(from),
			} {
				if !slices.Equal(got, want) {
					t.Fatalf("%dx%d from %d (%s): %v, want %v", d[0], d[1], from, name, got, want)
				}
			}
		}
	}
}
