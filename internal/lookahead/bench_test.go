package lookahead

import (
	"math"
	"math/rand"
	"testing"

	"jumanji/internal/mrc"
)

// benchRequests builds n contenders with convex hulled curves — the shape
// every epoch sweep passes, so the benchmark exercises the convex fast path
// with its cached marginal rates and pooled scratch. Each request carries
// its curve's convexity verdict, as the placers pass their cached hulls.
func benchRequests(rng *rand.Rand, n, points int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		pts := make([]float64, points)
		for j := range pts {
			pts[j] = 30*math.Exp(-float64(j)/float64(points/4+1)) + rng.Float64()
		}
		// Scaled by an access rate, as the placers pass their hulls.
		h := mrc.New(64*1024, pts).ConvexHull()
		h = h.ScaleInto(h.M, 0.5+rng.Float64())
		reqs[i] = Request{Curve: h, Convex: h.IsConvex(1e-12)}
	}
	return reqs
}

// BenchmarkLookaheadAllocate measures one partitioning decision at the scale
// the simulator makes per design per epoch (16 contenders, 128-point
// curves). The parallel experiment engine hammers this from every worker, so
// allocations here multiply across the whole run.
func BenchmarkLookaheadAllocate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	reqs := benchRequests(rng, 16, 128)
	total := 0.75 * 16 * 127 * 64 * 1024
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Allocate(total, reqs)
	}
}

// BenchmarkLookaheadAllocateNonConvex pins the slow lookahead path (raw
// curves with cliffs) so a regression there is visible separately.
func BenchmarkLookaheadAllocateNonConvex(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	reqs := benchRequests(rng, 4, 32)
	for i := range reqs {
		// Re-introduce a cliff so IsConvex fails and the jump scan runs.
		m := reqs[i].Curve.M
		m[len(m)/2] = m[0]
		reqs[i].Convex = reqs[i].Curve.IsConvex(1e-12)
	}
	total := 0.5 * 4 * 31 * 64 * 1024
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Allocate(total, reqs)
	}
}
