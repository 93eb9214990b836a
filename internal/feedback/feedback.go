// Package feedback implements the tail-latency feedback controller of
// Sec. V-C (Listing 1). The OS buffers per-request response latencies; once
// enough requests complete to estimate a tail percentile, the controller
// compares the tail against the application's deadline and adjusts the
// application's LLC allocation:
//
//   - tail above 95% of the deadline → grow the allocation by 10%;
//   - tail below 85% of the deadline → shrink it by 10%;
//   - tail more than 10% over the deadline → "panic" and boost the
//     allocation to a canonical safe size (one eighth of the LLC), because
//     even short queueing spikes frequently set the tail.
//
// Fig. 9 shows results are insensitive to these parameters; Params carries
// them so the sensitivity study can sweep them.
package feedback

import (
	"fmt"
	"math"

	"jumanji/internal/obs"
	"jumanji/internal/stats"
)

// Params are the controller's tuning knobs with the paper's bolded defaults.
type Params struct {
	// TargetLow and TargetHigh bound the do-nothing band as fractions of
	// the deadline (defaults 0.85 and 0.95).
	TargetLow, TargetHigh float64
	// PanicAt is the deadline fraction beyond which the controller panics
	// (default 1.10).
	PanicAt float64
	// Step is the multiplicative adjustment (default 0.10 → ±10%).
	Step float64
	// Interval is the number of completed requests per controller update
	// (default 20, enough to estimate a 95th percentile).
	Interval int
	// Percentile is the tail percentile controlled (default 95).
	Percentile float64
	// ShrinkPatience is how many consecutive comfortable windows must be
	// observed before the controller shrinks (default 2; 1 shrinks on any
	// single quiet window and makes the controller dither near queueing
	// cliffs — see the ablation benchmark).
	ShrinkPatience int
}

// DefaultParams returns the paper's bolded parameter values.
func DefaultParams() Params {
	return Params{
		TargetLow:      0.85,
		TargetHigh:     0.95,
		PanicAt:        1.10,
		Step:           0.10,
		Interval:       20,
		Percentile:     95,
		ShrinkPatience: 2,
	}
}

func (p Params) validate() {
	switch {
	case p.TargetLow <= 0 || p.TargetHigh <= p.TargetLow:
		panic(fmt.Sprintf("feedback: invalid target band [%g, %g]", p.TargetLow, p.TargetHigh))
	case p.PanicAt < p.TargetHigh:
		panic(fmt.Sprintf("feedback: panic threshold %g below target band", p.PanicAt))
	case p.Step <= 0 || p.Step >= 1:
		panic(fmt.Sprintf("feedback: step %g out of (0,1)", p.Step))
	case p.Interval <= 0:
		panic(fmt.Sprintf("feedback: interval %d must be positive", p.Interval))
	case p.Percentile <= 0 || p.Percentile > 100:
		panic(fmt.Sprintf("feedback: percentile %g out of range", p.Percentile))
	case p.ShrinkPatience < 1:
		panic(fmt.Sprintf("feedback: shrink patience %d must be at least 1", p.ShrinkPatience))
	}
}

// Controller manages one latency-critical application's LLC allocation.
type Controller struct {
	params   Params
	deadline float64 // tail-latency deadline (any consistent time unit)

	size      float64 // current allocation in bytes
	minSize   float64 // floor (e.g. one way's worth across banks)
	maxSize   float64 // ceiling (the whole LLC)
	panicSize float64 // canonical safe size (one eighth of the LLC)

	latencies []float64
	// comfortable counts consecutive windows below the target band; the
	// controller shrinks only after two in a row. One quiet window among
	// spiky traffic is not evidence of slack — the same observation that
	// motivates the panic boost (Sec. V-C) applied in the other direction.
	comfortable int

	// Updates counts controller decisions; Panics counts boosts.
	Updates uint64
	Panics  uint64

	// Optional registry metrics (nil when uninstrumented).
	obsGrows, obsShrinks, obsPanics *obs.Counter
}

// Instrument attaches optional grow/shrink/panic decision counters.
// Nil counters (from a nil registry) are no-ops.
func (c *Controller) Instrument(grows, shrinks, panics *obs.Counter) {
	c.obsGrows, c.obsShrinks, c.obsPanics = grows, shrinks, panics
}

// New returns a controller starting at initial bytes, bounded to
// [minSize, maxSize], with panic boosts to panicSize. It panics on
// inconsistent sizes or parameters.
func New(params Params, deadline, initial, minSize, maxSize, panicSize float64) *Controller {
	params.validate()
	if deadline <= 0 {
		panic(fmt.Sprintf("feedback: non-positive deadline %g", deadline))
	}
	if minSize <= 0 || maxSize < minSize {
		panic(fmt.Sprintf("feedback: invalid size bounds [%g, %g]", minSize, maxSize))
	}
	if initial < minSize || initial > maxSize {
		panic(fmt.Sprintf("feedback: initial size %g outside [%g, %g]", initial, minSize, maxSize))
	}
	if panicSize < minSize || panicSize > maxSize {
		panic(fmt.Sprintf("feedback: panic size %g outside [%g, %g]", panicSize, minSize, maxSize))
	}
	return &Controller{
		params:    params,
		deadline:  deadline,
		size:      initial,
		minSize:   minSize,
		maxSize:   maxSize,
		panicSize: panicSize,
	}
}

// Size returns the current allocation in bytes.
func (c *Controller) Size() float64 { return c.size }

// CheckBounds verifies the controller's saturation invariant: the current
// allocation is finite and inside [minSize, maxSize]. Update clamps on every
// decision, so a violation means the controller's state was corrupted from
// outside — exactly what the chaos invariant checkers look for.
func (c *Controller) CheckBounds() error {
	if math.IsNaN(c.size) || math.IsInf(c.size, 0) {
		return fmt.Errorf("feedback: allocation %g is not finite", c.size)
	}
	if c.size < c.minSize || c.size > c.maxSize {
		return fmt.Errorf("feedback: allocation %g outside [%g, %g]", c.size, c.minSize, c.maxSize)
	}
	return nil
}

// RequestCompleted records one completed request's response latency
// (including queueing). Once Interval requests accumulate, the controller
// updates the allocation (Listing 1) and reports changed=true.
//
// The window tail is the *upper nearest-rank* percentile (with 20 requests
// and p95, the slowest request): short queueing spikes frequently set the
// tail (Sec. V-C), so a spike anywhere in the window must count. An
// interpolated estimate would systematically under-read small windows and
// make the controller shrink allocations it is about to need back.
func (c *Controller) RequestCompleted(latency float64) (size float64, changed bool) {
	c.latencies = append(c.latencies, latency)
	if len(c.latencies) < c.params.Interval {
		return c.size, false
	}
	tail := upperNearestRank(c.latencies, c.params.Percentile)
	c.latencies = c.latencies[:0]
	return c.Update(tail), true
}

// upperNearestRank returns the ceil(p%)-th order statistic of xs, bitwise
// what sorting xs and indexing gives: stats.OrderStat selects it in place
// (and sorts when the window holds a NaN or a ±0). It reorders xs; callers
// discard the window afterwards.
func upperNearestRank(xs []float64, p float64) float64 {
	idx := int(math.Ceil(p/100*float64(len(xs)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(xs) {
		idx = len(xs) - 1
	}
	return stats.OrderStat(xs, idx)
}

// Update applies one controller decision for an observed tail latency and
// returns the new allocation. Exposed separately so the epoch simulator can
// drive the controller from batched statistics.
func (c *Controller) Update(tail float64) float64 {
	c.Updates++
	switch {
	case tail > c.params.PanicAt*c.deadline:
		c.Panics++
		c.obsPanics.Inc()
		c.comfortable = 0
		if c.size < c.panicSize {
			c.size = c.panicSize
		}
	case tail > c.params.TargetHigh*c.deadline:
		c.comfortable = 0
		c.size *= 1 + c.params.Step
		c.obsGrows.Inc()
	case tail < c.params.TargetLow*c.deadline:
		c.comfortable++
		if c.comfortable >= c.params.ShrinkPatience {
			c.comfortable = 0
			c.size *= 1 - c.params.Step
			c.obsShrinks.Inc()
		}
	default:
		c.comfortable = 0
	}
	if c.size > c.maxSize {
		c.size = c.maxSize
	}
	if c.size < c.minSize {
		c.size = c.minSize
	}
	return c.size
}
