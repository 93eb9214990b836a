package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) < 1e-9
}

func TestPercentileSingle(t *testing.T) {
	if got := Percentile([]float64{42}, 95); got != 42 {
		t.Errorf("Percentile of single element = %v, want 42", got)
	}
}

func TestPercentileKnownValues(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1},
		{25, 2},
		{50, 3},
		{75, 4},
		{100, 5},
		{95, 4.8},
	}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); !almostEqual(got, tt.want) {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestPercentileDoesNotReorderInput(t *testing.T) {
	xs := []float64{5, 1, 3}
	Percentile(xs, 50)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Errorf("Percentile reordered its input: %v", xs)
	}
}

func TestPercentilePanics(t *testing.T) {
	assertPanics(t, "empty", func() { Percentile(nil, 50) })
	assertPanics(t, "negative p", func() { Percentile([]float64{1}, -1) })
	assertPanics(t, "p>100", func() { Percentile([]float64{1}, 101) })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestPercentileBounds(t *testing.T) {
	// Property: any percentile lies within [min, max].
	f := func(raw []float64, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p := float64(pRaw) / 255 * 100
		got := Percentile(xs, p)
		return got >= Min(xs)-1e-9 && got <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentileMonotoneInP(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 100; p += 2.5 {
		v := Percentile(xs, p)
		if v < prev {
			t.Fatalf("Percentile not monotone: p=%v gives %v < %v", p, v, prev)
		}
		prev = v
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{2, 4, 6}); !almostEqual(got, 4) {
		t.Errorf("Mean = %v, want 4", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
}

func TestGmean(t *testing.T) {
	if got := Gmean([]float64{1, 4}); !almostEqual(got, 2) {
		t.Errorf("Gmean{1,4} = %v, want 2", got)
	}
	if got := Gmean([]float64{3, 3, 3}); !almostEqual(got, 3) {
		t.Errorf("Gmean{3,3,3} = %v, want 3", got)
	}
	assertPanics(t, "non-positive", func() { Gmean([]float64{1, 0}) })
}

func TestGmeanLeArithmeticMean(t *testing.T) {
	// Property: AM-GM inequality.
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			x = math.Abs(x)
			if x > 1e-12 && x < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		return Gmean(xs) <= Mean(xs)*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	b := Summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	if b.Min != 1 || b.Max != 9 || b.Median != 5 || b.N != 9 {
		t.Errorf("Summarize basic fields wrong: %+v", b)
	}
	if b.Q1 != 3 || b.Q3 != 7 {
		t.Errorf("Summarize quartiles = %v, %v; want 3, 7", b.Q1, b.Q3)
	}
	if b.String() == "" {
		t.Error("BoxPlot.String is empty")
	}
}

func TestSummarizeOrdering(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		b := Summarize(xs)
		return b.Min <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 {
		t.Errorf("Min = %v", Min(xs))
	}
	if Max(xs) != 7 {
		t.Errorf("Max = %v", Max(xs))
	}
}
