package mrc

import (
	"math"
	"math/rand"
	"testing"
)

// benchCurve builds a realistic convex-ish miss curve of n points: a decaying
// exponential with sampling noise, the shape UMON profiles produce.
func benchCurve(rng *rand.Rand, n int) Curve {
	pts := make([]float64, n)
	for i := range pts {
		pts[i] = 40*math.Exp(-float64(i)/float64(n/4+1)) + rng.Float64()*0.5
	}
	return New(64*1024, pts)
}

// BenchmarkMRCEval exercises the allocation algorithms' innermost call:
// lookahead evaluates curves twice per greedy grant, thousands of times per
// epoch. The figure to watch is ns/op of a single interpolated lookup.
func BenchmarkMRCEval(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := benchCurve(rng, 512).ConvexHull()
	max := c.MaxSize()
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Sweep positions so the branch predictor sees the real mix of
		// in-range, clamped-low, and clamped-high lookups.
		sink += c.Eval(float64(i%700) / 700 * 1.1 * max)
	}
	_ = sink
}

// BenchmarkMRCAdd measures the pointwise sum used when pooling app curves.
func BenchmarkMRCAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x, y := benchCurve(rng, 256), benchCurve(rng, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Add(x, y)
	}
}

// BenchmarkMRCHull measures a full from-scratch convex hull (monotone pass,
// Andrew chain, grid resample) into a reused destination — what every
// placement recomputation pays per curve without the incremental updater.
func BenchmarkMRCHull(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	c := benchCurve(rng, 512)
	dst := make([]float64, len(c.M))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ConvexHullInto(dst)
	}
}

// BenchmarkMRCHullIncremental measures HullUpdater.Update when a handful of
// points changed since the previous epoch — the epoch loop's common case.
// Compare against BenchmarkMRCHull for the incremental win.
func BenchmarkMRCHullIncremental(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	c := benchCurve(rng, 512)
	var u HullUpdater
	u.Update(c)
	// Pre-generate small perturbations near the tail so the timed loop does
	// no RNG work: flip between two versions of the last few points.
	alt := append([]float64(nil), c.M...)
	for j := len(alt) - 4; j < len(alt); j++ {
		alt[j] *= 0.999
	}
	orig := append([]float64(nil), c.M...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			copy(c.M, alt)
		} else {
			copy(c.M, orig)
		}
		u.Update(c)
	}
}

// BenchmarkMRCCombine measures the Whirlpool per-VM curve combination
// (one call per VM per epoch), including the pooled-scratch reuse path.
func BenchmarkMRCCombine(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	curves := make([]Curve, 4)
	for i := range curves {
		curves[i] = benchCurve(rng, 128)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Combine(curves...)
	}
}

// BenchmarkMRCCombineFleet is BenchmarkMRCCombine at the 16×16 fleet shape:
// VM-Part combines each VM's four batch curves on the way-stripe grid,
// 4,096 points each (16 ways × 256 banks), once per VM per epoch.
func BenchmarkMRCCombineFleet(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	curves := make([]Curve, 4)
	for i := range curves {
		curves[i] = benchCurve(rng, 4096)
	}
	dst := make([]float64, 4*4095+1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CombineInto(dst, curves...)
	}
}
