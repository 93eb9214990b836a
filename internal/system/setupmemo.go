package system

import (
	"math"
	"sync"

	"jumanji/internal/mrc"
	"jumanji/internal/tailbench"
	"jumanji/internal/workload"
)

// Run set-up is memoized at two scopes, by the bits of exactly the inputs
// each value is computed from, so a hit returns what a fresh build would:
//
//   - A profile's hulled miss curve depends on the profile fields its
//     MissRatio reads and on the curve grid. Those recur across cells,
//     experiments and passes, and their number is bounded by the profiles
//     and grids in use, so one process-wide memo holds them (curveMemo),
//     capped at curveMemoMaxFloats.
//   - A latency-critical app's deadline (isolatedP95) depends on the cell's
//     seed, so a process-wide memo would grow with every cell a long-lived
//     process runs. BuildVMWorkload and DatacenterWorkload give each
//     Workload its own (Workload.calib): every design run of the cell shares
//     it, and it is dropped with the cell.

// curveMemoMaxFloats caps the points of the hulls curveMemo retains: 2^21
// float64s, 16 MiB. The 21 profiles' curves on Fig. 19's four meshes take
// about 0.34 M of them, and on a 32×32 mesh, the largest a spec accepts,
// about 0.69 M.
const curveMemoMaxFloats = 1 << 21

// syncMemo is a mutex-guarded memo shared by concurrent runs. get builds a
// missing value outside the lock and then keeps whichever value for the key
// was stored first, so concurrent callers get one value per key and no
// caller holds the lock through a build. With a positive limit, the
// retained values' weights sum to at most limit: a value that would pass it
// empties the memo first, and one heavier than limit is returned unkept.
// The map is allocated on the first store.
type syncMemo[K comparable, V any] struct {
	mu     sync.Mutex
	m      map[K]V
	held   int
	limit  int
	weight func(V) int
}

func (s *syncMemo[K, V]) get(k K, build func() V) V {
	s.mu.Lock()
	v, ok := s.m[k]
	s.mu.Unlock()
	if ok {
		return v
	}
	v = build()
	w := 0
	if s.limit > 0 {
		w = s.weight(v)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.m[k]; ok {
		return old
	}
	if s.limit > 0 {
		if w > s.limit {
			return v
		}
		if s.held+w > s.limit {
			s.m, s.held = nil, 0
		}
	}
	if s.m == nil {
		s.m = make(map[K]V)
	}
	s.m[k] = v
	s.held += w
	return v
}

// curveKey identifies a hulled miss curve: whose MissRatio built it (lc
// for tailbench.Profile, shape otherwise), the bits of the profile fields
// that MissRatio reads, and the grid.
type curveKey struct {
	lc              bool
	shape           workload.CurveShape
	ws, floor, unit uint64
	points          int
}

var curveMemo = syncMemo[curveKey, mrc.Curve]{
	limit:  curveMemoMaxFloats,
	weight: func(c mrc.Curve) int { return len(c.M) },
}

// batchHull returns p's convex-hulled miss curve on the grid (unit, points).
func batchHull(p workload.Profile, unit float64, points int) mrc.Curve {
	k := curveKey{shape: p.Shape, ws: math.Float64bits(p.WS), floor: math.Float64bits(p.Floor),
		unit: math.Float64bits(unit), points: points}
	return curveMemo.get(k, func() mrc.Curve { return p.MissRatio(unit, points).ConvexHull() })
}

// lcHull returns p's convex-hulled miss curve on the grid (unit, points).
func lcHull(p tailbench.Profile, unit float64, points int) mrc.Curve {
	k := curveKey{lc: true, ws: math.Float64bits(p.WS), floor: math.Float64bits(p.Floor),
		unit: math.Float64bits(unit), points: points}
	return curveMemo.get(k, func() mrc.Curve { return p.MissRatio(unit, points).ConvexHull() })
}

// calibMemo memoizes isolatedP95 by the bits of every input it reads:
// cfg.Seed, FreqHz, EpochSeconds and Feedback.Percentile, then highQPS and
// meanService.
type calibMemo struct {
	syncMemo[[6]uint64, float64]
}

// deadline returns isolatedP95(cfg, highQPS, meanService) through c.
func (c *calibMemo) deadline(cfg Config, highQPS, meanService float64) float64 {
	k := [6]uint64{uint64(cfg.Seed), math.Float64bits(cfg.FreqHz), math.Float64bits(cfg.EpochSeconds),
		math.Float64bits(cfg.Feedback.Percentile), math.Float64bits(highQPS), math.Float64bits(meanService)}
	return c.get(k, func() float64 { return isolatedP95(cfg, highQPS, meanService) })
}
