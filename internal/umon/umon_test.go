package umon

import (
	"math/rand"
	"slices"
	"testing"
)

func TestNewPanics(t *testing.T) {
	cases := [][4]int{
		{0, 4, 64, 1},
		{4, 0, 64, 1},
		{4, 4, 0, 1},
		{4, 4, 64, 0},
	}
	for i, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			New(c[0], c[1], uint64(c[2]), uint64(c[3]))
		}()
	}
}

func TestEmptyMonitorPessimisticCurve(t *testing.T) {
	m := New(4, 8, 64, 1)
	c := m.MissRatioCurve()
	for i, v := range c.M {
		if v != 1 {
			t.Errorf("empty curve M[%d] = %v, want 1", i, v)
		}
	}
}

func TestWorkingSetCliff(t *testing.T) {
	// Cycle over 32 lines with full sampling. With capacity >= 32 lines
	// everything (after cold misses) hits; below, LRU on a cyclic scan
	// misses everything.
	m := New(8, 16, 64, 1) // buckets of 8 lines, up to 128 lines
	const ws = 32
	for round := 0; round < 50; round++ {
		for i := uint64(0); i < ws; i++ {
			m.Access(i * 64)
		}
	}
	c := m.MissRatioCurve()
	// Bucket index ws/8 = 4 is the cliff: at capacity >= 4 buckets the scan fits.
	if got := c.M[4]; got > 0.05 {
		t.Errorf("miss ratio at working-set capacity = %v, want ~0 (cold only)", got)
	}
	if got := c.M[3]; got < 0.9 {
		t.Errorf("miss ratio below working set = %v, want ~1 (LRU cyclic thrash)", got)
	}
}

func TestCurveMonotone(t *testing.T) {
	m := New(2, 32, 64, 1)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20000; i++ {
		m.Access(uint64(rng.Intn(100)) * 64)
	}
	c := m.MissRatioCurve()
	for i := 1; i < len(c.M); i++ {
		if c.M[i] > c.M[i-1]+1e-12 {
			t.Fatalf("curve not monotone at %d: %v > %v", i, c.M[i], c.M[i-1])
		}
	}
	if c.M[0] != 1 {
		t.Errorf("miss ratio at zero capacity = %v, want 1", c.M[0])
	}
}

func TestSamplingScalesUnit(t *testing.T) {
	m := New(4, 8, 64, 16)
	if got := m.MissRatioCurve().Unit; got != 4*16*64 {
		t.Errorf("Unit = %v, want %v", got, 4*16*64)
	}
}

func TestSamplingSelectsSubset(t *testing.T) {
	m := New(4, 8, 64, 64)
	for i := uint64(0); i < 100000; i++ {
		m.Access(i * 64)
	}
	if m.Sampled == 0 {
		t.Fatal("nothing sampled")
	}
	rate := float64(m.Sampled) / float64(m.Accesses)
	if rate < 0.005 || rate > 0.05 {
		t.Errorf("sampling rate %v not near 1/64", rate)
	}
}

func TestSamplingDeterministicPerAddress(t *testing.T) {
	// The same address stream must sample identically across monitors so
	// profiles are reproducible.
	m1 := New(4, 8, 64, 8)
	m2 := New(4, 8, 64, 8)
	for i := uint64(0); i < 1000; i++ {
		addr := (i * 2654435761) % 4096 * 64
		m1.Access(addr)
		m2.Access(addr)
	}
	if m1.Sampled != m2.Sampled || m1.colds != m2.colds {
		t.Error("sampling not deterministic")
	}
}

func TestRepeatedSingleLineAllHits(t *testing.T) {
	m := New(1, 4, 64, 1)
	for i := 0; i < 100; i++ {
		m.Access(0)
	}
	c := m.MissRatioCurve()
	// One cold miss out of 100 accesses at any non-zero capacity.
	if c.M[1] != 0.01 {
		t.Errorf("M[1] = %v, want 0.01", c.M[1])
	}
}

func TestAgeDecaysOldBehaviour(t *testing.T) {
	m := New(4, 8, 64, 1)
	// Phase 1: wide working set (64 lines) profiled heavily.
	for r := 0; r < 50; r++ {
		for i := uint64(0); i < 64; i++ {
			m.Access(i * 64)
		}
	}
	wideMiss := m.MissRatioCurve().Eval(16 * 64)
	// Phase change: tiny working set. With aging, the curve converges to
	// the new phase within a few periods.
	for period := 0; period < 8; period++ {
		m.Age()
		for r := 0; r < 400; r++ {
			m.Access(0)
		}
	}
	narrowMiss := m.MissRatioCurve().Eval(16 * 64)
	if narrowMiss >= wideMiss/2 {
		t.Errorf("curve did not track the phase change: %v -> %v", wideMiss, narrowMiss)
	}
}

func TestAgeHalvesCounts(t *testing.T) {
	m := New(4, 8, 64, 1)
	for i := 0; i < 100; i++ {
		m.Access(0)
	}
	before := m.Sampled
	m.Age()
	if m.Sampled > before/2+1 {
		t.Errorf("Sampled = %d after aging %d", m.Sampled, before)
	}
	// Curve still valid (monotone, in [0,1]).
	c := m.MissRatioCurve()
	for i, v := range c.M {
		if v < 0 || v > 1 {
			t.Fatalf("M[%d] = %v out of range after aging", i, v)
		}
	}
}

// TestShiftMaskMatchesDivision pins Access's shift-and-mask path to the
// division it stands for: at power-of-two line sizes and periods, a
// monitor built by New and a copy made to take the division path see the
// same random addresses, aligned or not, and must end in the same state.
// A line size or period that is not a power of two takes the division path.
func TestShiftMaskMatchesDivision(t *testing.T) {
	for _, c := range []struct{ line, period uint64 }{{64, 1}, {64, 8}, {64, 64}, {32, 128}} {
		fast, div := New(4, 16, c.line, c.period), New(4, 16, c.line, c.period)
		if !fast.pow2 {
			t.Fatalf("line %d, period %d: New did not take the shift-and-mask path", c.line, c.period)
		}
		div.pow2 = false
		rng := rand.New(rand.NewSource(int64(c.period)))
		for i := 0; i < 20000; i++ {
			addr := uint64(rng.Intn(512))*c.line + uint64(rng.Intn(int(c.line)))
			if i%5 == 0 {
				addr = rng.Uint64()
			}
			fast.Access(addr)
			div.Access(addr)
		}
		if fast.Sampled == 0 || fast.Sampled != div.Sampled || fast.colds != div.colds ||
			!slices.Equal(fast.stack, div.stack) || !slices.Equal(fast.hits, div.hits) {
			t.Fatalf("line %d, period %d: shift-and-mask state differs from division's (%d vs %d sampled)",
				c.line, c.period, fast.Sampled, div.Sampled)
		}
	}
	for _, c := range []struct{ line, period uint64 }{{48, 8}, {64, 10}} {
		if New(4, 16, c.line, c.period).pow2 {
			t.Errorf("line %d, period %d took the shift-and-mask path", c.line, c.period)
		}
	}
}
