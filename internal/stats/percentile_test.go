package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// percentileBySort is the reference Percentile: sort a copy, then
// interpolate between the closest ranks.
func percentileBySort(xs []float64, p float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// sameBits reports whether a and b have equal bits, any NaN matching NaN.
func sameBits(a, b float64) bool {
	if a != a && b != b {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// checkPercentile compares Percentile with the sort-based reference at p
// and checks it left xs as it found it.
func checkPercentile(t *testing.T, name string, xs []float64, p float64) {
	t.Helper()
	before := append([]float64(nil), xs...)
	got, want := Percentile(xs, p), percentileBySort(xs, p)
	if !sameBits(got, want) {
		t.Fatalf("%s (n=%d) p=%v: Percentile = %v (%#x), sort gives %v (%#x)",
			name, len(xs), p, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	for i := range xs {
		if !sameBits(xs[i], before[i]) {
			t.Fatalf("%s (n=%d) p=%v: Percentile reordered its input at %d", name, len(xs), p, i)
		}
	}
}

// TestPercentileMatchesSort pins Percentile's selection bitwise to the sort
// on lengths 1 to 5,000 and the values whose sorted order is delicate:
// duplicates, ±0, NaN, ±Inf and subnormals.
func TestPercentileMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	special := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1050}
	gens := []struct {
		name string
		gen  func(i, n int) float64
	}{
		{"uniform", func(int, int) float64 { return rng.Float64() }},
		{"latency-like", func(int, int) float64 { return 1e5 * rng.ExpFloat64() }},
		{"signed", func(int, int) float64 { return rng.NormFloat64() }},
		{"few-distinct", func(int, int) float64 { return float64(rng.Intn(4)) + 0.5 }},
		{"all-equal", func(int, int) float64 { return 3.25 }},
		{"ascending", func(i, _ int) float64 { return float64(i) + 1 }},
		{"descending", func(i, n int) float64 { return float64(n - i) }},
		{"organ-pipe", func(i, n int) float64 { return float64(min(i, n-i)) + 1 }},
		{"subnormal", func(int, int) float64 { return float64(rng.Intn(50)+1) * math.SmallestNonzeroFloat64 }},
		{"special", func(int, int) float64 { return special[rng.Intn(len(special))] }},
		{"mostly-special", func(int, int) float64 {
			if rng.Intn(3) == 0 {
				return special[rng.Intn(len(special))]
			}
			return rng.NormFloat64()
		}},
		{"signed-zeros", func(int, int) float64 {
			if rng.Intn(2) == 0 {
				return math.Copysign(0, -1)
			}
			return float64(rng.Intn(3))
		}},
	}
	ps := []float64{0, 50, 95, 99.9, 100, 25, 1e-9, 100 - 1e-9}
	for _, n := range []int{1, 2, 3, 4, 5, 7, 16, 33, 100, 257, 1000, 4000, 4096, 5000} {
		for _, g := range gens {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = g.gen(i, n)
			}
			for _, p := range ps {
				checkPercentile(t, g.name, xs, p)
			}
			for k := 0; k < 4; k++ {
				checkPercentile(t, g.name, xs, 100*rng.Float64())
			}
		}
	}
}

// FuzzPercentile checks Percentile bitwise against the sort on arbitrary
// float64 bit patterns (every NaN payload, ±0, ±Inf, subnormals) and
// percentiles folded into [0, 100].
func FuzzPercentile(f *testing.F) {
	enc := func(xs ...float64) []byte {
		b := make([]byte, 8*len(xs))
		for i, x := range xs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
		}
		return b
	}
	f.Add(enc(3, 1, 2), 50.0)
	f.Add(enc(5, 5, 5, 1, 9, 9), 95.0)
	f.Add(enc(0, math.Copysign(0, -1), 1, 0, -1), 50.0)
	f.Add(enc(math.NaN(), 2, math.Inf(-1), 7, math.Inf(1)), 99.9)
	f.Add(enc(math.SmallestNonzeroFloat64, 0x1p-1040, 1), 0.0)
	f.Add(enc(4, 8, 15, 16, 23, 42), 100.0)
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
		checkPercentile(t, "fuzz", xs, p)
	})
}

// BenchmarkPercentile is one p95 over 4,096 latency-like samples, the size
// of a latency-critical app's isolation run.
//
//	go test -run '^$' -bench Percentile -benchmem -cpu 1 ./internal/stats
func BenchmarkPercentile(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = 1e5 * rng.ExpFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = Percentile(xs, 95)
	}
}

var benchSink float64
