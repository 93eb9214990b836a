package jumanji

import (
	"fmt"

	"jumanji/internal/sweep"
	"jumanji/internal/system"
)

// TailPoint is one point of the Fig. 8 sweep: the latency-critical
// application's normalized p95 tail latency at a fixed LLC allocation,
// placed S-NUCA (striped, way-partitioned) vs D-NUCA (nearest banks).
type TailPoint struct {
	AllocMB       float64
	NormTailSNUCA float64
	NormTailDNUCA float64
}

// TailVsAllocation reproduces Fig. 8: it runs the named latency-critical
// application alone at high load with fixed allocations and reports the
// normalized tail for both placements. Values above 1 violate the
// deadline; the D-NUCA column should cross below 1 at a smaller allocation
// than the S-NUCA column.
//
// The sweep points are independent, so they fan across opts.Parallel
// workers; per-point observability sinks merge back in sweep order. With
// opts.Engine set, completed points are journalled and a degraded sweep
// returns a *sweep.RunError (a *sweep.OnlyDone after single-cell repro).
func TailVsAllocation(opts Options, latCrit string, allocsMB []float64) ([]TailPoint, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if len(allocsMB) == 0 {
		return nil, fmt.Errorf("jumanji: no allocations to sweep")
	}
	for _, mb := range allocsMB {
		if mb <= 0 {
			return nil, fmt.Errorf("jumanji: non-positive allocation %g MB", mb)
		}
	}
	wl, err := system.BuildVMWorkload(opts.systemConfig().Machine,
		[]system.VMSpec{{LatCrit: []string{latCrit}}}, nil, true)
	if err != nil {
		return nil, err
	}
	return sweep.Cells(opts.Env, "tailvsalloc/"+latCrit, opts.Seed, len(allocsMB),
		func(i int, cell sweep.Env) TailPoint {
			co := opts
			co.Env = cell
			cfg := co.systemConfig()
			bytes := allocsMB[i] * (1 << 20)
			s := system.RunFixedLat(cfg, wl, bytes, false, opts.Epochs, opts.Warmup)
			d := system.RunFixedLat(cfg, wl, bytes, true, opts.Epochs, opts.Warmup)
			return TailPoint{
				AllocMB:       allocsMB[i],
				NormTailSNUCA: s.Apps[0].NormTail,
				NormTailDNUCA: d.Apps[0].NormTail,
			}
		})
}
