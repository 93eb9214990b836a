package main

import (
	"time"

	"jumanji/internal/stats"
)

// quantile returns the q-quantile (0..1) of xs as stats.Percentile gives
// it; 0 for no samples, where a layer the workload does not exercise has
// none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, 100*q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
