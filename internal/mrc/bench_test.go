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

// BenchmarkMRCHull measures a full from-scratch convex hull (monotone pass,
// Andrew chain, grid resample) into a reused destination — what a placement
// pays for each app whose curve or access rate changed.
func BenchmarkMRCHull(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	c := benchCurve(rng, 512)
	dst := make([]float64, len(c.M))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ConvexHullInto(dst)
	}
}

// hullBacking returns one hull slot per curve, each with backing of its
// curve's length for ConvexHullInto to fill.
func hullBacking(curves []Curve) []Curve {
	hulls := make([]Curve, len(curves))
	for i, c := range curves {
		hulls[i].M = make([]float64, len(c.M))
	}
	return hulls
}

// BenchmarkMRCCombine measures the Whirlpool per-VM curve combination
// (one call per VM per epoch) as the placers build it: each curve's hull,
// then the merge of their gains into a freshly allocated curve, with the
// pooled scratch reused.
func BenchmarkMRCCombine(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	curves := make([]Curve, 4)
	for i := range curves {
		curves[i] = benchCurve(rng, 128)
	}
	hulls := hullBacking(curves)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, c := range curves {
			hulls[j] = c.ConvexHullInto(hulls[j].M)
		}
		CombineHullsInto(make([]float64, combinedLen(hulls)), hulls...)
	}
}

// BenchmarkMRCCombineFleet is BenchmarkMRCCombine at fleet size: four
// curves of 4,096 points each. On a 16×16 mesh with the default 32 ways an
// app's curve has 8,193 points (one per way of the 256 banks, plus zero),
// so a VM's four batch curves combine into 32,769 points: twice this
// benchmark's inputs. VM-Part builds that combine only when its lookahead
// can grant beyond the per-VM minima, which at 16×16 it usually cannot.
func BenchmarkMRCCombineFleet(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	curves := make([]Curve, 4)
	for i := range curves {
		curves[i] = benchCurve(rng, 4096)
	}
	hulls := hullBacking(curves)
	dst := make([]float64, 4*4095+1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, c := range curves {
			hulls[j] = c.ConvexHullInto(hulls[j].M)
		}
		CombineHullsInto(dst, hulls...)
	}
}
