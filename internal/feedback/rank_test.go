package feedback

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// upperNearestRankBySort is upperNearestRank as it was: sort the window,
// then index the ceil(p%)-th order statistic.
func upperNearestRankBySort(xs []float64, p float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// checkUpperNearestRank compares upperNearestRank on a copy of xs with the
// sort-based reference, bit for bit, NaN payloads and the signs of zeros
// included.
func checkUpperNearestRank(t *testing.T, xs []float64, p float64) {
	t.Helper()
	want := upperNearestRankBySort(xs, p)
	got := upperNearestRank(append([]float64(nil), xs...), p)
	if math.Float64bits(got) == math.Float64bits(want) {
		return
	}
	t.Fatalf("upperNearestRank(p=%v) over %d values = %v (%#x), sort gives %v (%#x)\n  xs %v",
		p, len(xs), got, math.Float64bits(got), want, math.Float64bits(want), xs)
}

// TestUpperNearestRankMatchesSort pins the in-place selection to the sort
// on windows holding NaN, ±0, ±Inf and duplicates, at the rank edges (p at
// 0, just above a rank boundary, the controller's 95 and 99, 100 and past
// it) and on window lengths from 1 to the controllers' intervals.
func TestUpperNearestRankMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	special := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1, 1}
	ps := []float64{0, 1e-9, 5, 50, 95, 99, 99.99, 100, 150}
	for _, n := range []int{1, 2, 3, 7, 20, 100, 101, 1000} {
		for trial := 0; trial < 6; trial++ {
			xs := make([]float64, n)
			for i := range xs {
				switch trial {
				case 0:
					xs[i] = 1e5 * rng.ExpFloat64()
				case 1:
					xs[i] = float64(rng.Intn(3)) // duplicates and +0
				default:
					xs[i] = rng.NormFloat64()
					if rng.Intn(4) == 0 {
						xs[i] = special[rng.Intn(len(special))]
					}
				}
			}
			for _, p := range ps {
				checkUpperNearestRank(t, xs, p)
			}
			for k := 1; k <= n; k++ {
				checkUpperNearestRank(t, xs, 100*float64(k)/float64(n))
			}
		}
	}
}

// FuzzUpperNearestRank checks upperNearestRank against the sort on
// arbitrary float64 bit patterns (every NaN payload, ±0, ±Inf, subnormals)
// and percentiles folded into [0, 100].
func FuzzUpperNearestRank(f *testing.F) {
	enc := func(xs ...float64) []byte {
		b := make([]byte, 8*len(xs))
		for i, x := range xs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
		}
		return b
	}
	f.Add(enc(3, 1, 2), 95.0)
	f.Add(enc(5, 5, 5, 1, 9, 9), 50.0)
	f.Add(enc(0, math.Copysign(0, -1), 1, 0, -1), 60.0)
	f.Add(enc(math.NaN(), 2, math.Inf(-1), 7, math.Inf(1)), 99.0)
	f.Add(enc(4, 8, 15, 16, 23, 42), 100.0)
	f.Add(enc(4, 8, 15, 16, 23, 42), 0.0)
	f.Fuzz(func(t *testing.T, data []byte, p float64) {
		if len(data) < 8 {
			return
		}
		xs := make([]float64, len(data)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		p = math.Abs(p)
		if p > 100 {
			p = math.Mod(p, 100)
		}
		if !(p >= 0 && p <= 100) {
			return // NaN or ±Inf before folding
		}
		checkUpperNearestRank(t, xs, p)
	})
}
