package trace

import (
	"testing"
)

func TestSequentialCycles(t *testing.T) {
	g := NewSequential(0x1000, 256, 64)
	want := []uint64{0x1000, 0x1040, 0x1080, 0x10c0, 0x1000}
	for i, w := range want {
		if got := g.Next(); got != w {
			t.Errorf("access %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestSequentialPanics(t *testing.T) {
	assertPanics(t, func() { NewSequential(0, 0, 64) })
	assertPanics(t, func() { NewSequential(0, 64, 0) })
}

func TestWorkingSetStaysInRange(t *testing.T) {
	g := NewWorkingSet(0x4000, 32, 64, 1)
	seen := map[uint64]bool{}
	for i := 0; i < 10000; i++ {
		a := g.Next()
		if a < 0x4000 || a >= 0x4000+32*64 {
			t.Fatalf("address %#x out of range", a)
		}
		if a%64 != 0 {
			t.Fatalf("address %#x not line-aligned", a)
		}
		seen[a] = true
	}
	if len(seen) != 32 {
		t.Errorf("visited %d distinct lines, want 32", len(seen))
	}
}

func TestZipfSkew(t *testing.T) {
	g := NewZipf(0, 1024, 64, 1.5, 7)
	counts := map[uint64]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		counts[g.Next()]++
	}
	// The hottest line should dominate: well above the uniform share.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < n/20 {
		t.Errorf("hottest line has %d/%d accesses; Zipf skew missing", max, n)
	}
	assertPanics(t, func() { NewZipf(0, 10, 64, 1.0, 1) })
}

func TestPointerChaseIsSingleCycle(t *testing.T) {
	const lines = 64
	g := NewPointerChase(0, lines, 64, 3)
	seen := map[uint64]bool{}
	for i := 0; i < lines; i++ {
		a := g.Next()
		if seen[a] {
			t.Fatalf("revisited %#x after %d steps: not a single cycle", a, i)
		}
		seen[a] = true
	}
	// The next access restarts the cycle.
	first := func() uint64 { g2 := NewPointerChase(0, lines, 64, 3); return g2.Next() }()
	if got := g.Next(); got != first {
		t.Errorf("cycle does not close: %#x vs %#x", got, first)
	}
}

func TestOracle(t *testing.T) {
	seq := NewSequential(0, 1<<20, 64)
	if r, ok := MissRatioOracle(seq, 2<<20); !ok || r != 0 {
		t.Errorf("big cache on scan: %v %v", r, ok)
	}
	if r, ok := MissRatioOracle(seq, 1<<10); !ok || r != 1 {
		t.Errorf("small cache on scan: %v %v", r, ok)
	}
	ws := NewWorkingSet(0, 1024, 64, 1)
	if r, ok := MissRatioOracle(ws, 32*1024); !ok || r != 0.5 {
		t.Errorf("half-capacity working set: %v %v", r, ok)
	}
}

// TestOracleDeclinesStochasticGenerators pins the oracle's honesty: Zipf has
// no closed-form LRU miss ratio, so it must return ok=false for it at any
// capacity rather than a plausible-looking number.
func TestOracleDeclinesStochasticGenerators(t *testing.T) {
	zipf := NewZipf(0, 4096, 64, 1.4, 1)
	for _, capBytes := range []uint64{1, 64 << 10, 1 << 30} {
		if _, ok := MissRatioOracle(zipf, capBytes); ok {
			t.Errorf("oracle claimed to cover Zipf at capacity %d", capBytes)
		}
	}
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}
