// Package system is the epoch-based full-system simulator: it ties the
// placement algorithms (internal/core), feedback controllers
// (internal/feedback), workload models (internal/workload,
// internal/tailbench), and the energy and security metrics together into
// the Table II machine, and runs any LLC design over a workload for a
// number of 100 ms reconfiguration epochs.
//
// Per epoch, each application's performance follows the first-order model
// the paper's own mechanisms optimize (see DESIGN.md §5):
//
//	cpi = baseCPI + apki/1000 × (hitLat + missRatio × memLat)
//
// where hitLat depends on the placement's hop distances (the D-NUCA
// advantage) and missRatio on the allocation's effective capacity after
// associativity loss (the way-partitioning penalty) and DRRIP set-dueling
// interference (the performance-leakage channel).
package system

import (
	"context"
	"fmt"

	"jumanji/internal/chaos"
	"jumanji/internal/core"
	"jumanji/internal/energy"
	"jumanji/internal/feedback"
	"jumanji/internal/noc"
	"jumanji/internal/obs"
)

// Config carries the Table II machine plus model parameters.
type Config struct {
	Machine core.Machine
	NoC     noc.Config
	// BankLatency is the LLC bank access latency in cycles (Table II: 13).
	BankLatency float64
	// MemLatency is the main-memory latency in cycles (Table II: 120).
	MemLatency float64
	// FreqHz is the core clock (Table II: 2.66 GHz).
	FreqHz float64
	// EpochSeconds is the reconfiguration period (Sec. IV: 100 ms).
	EpochSeconds float64
	// AssocHalfWays tunes the associativity penalty: an allocation with w
	// ways behaves like capacity × w/(w+AssocHalfWays). One way loses half
	// its capacity to conflicts; 32 ways lose ~3%.
	AssocHalfWays float64
	// DuelingPenalty is the fractional miss inflation an application
	// suffers when all of a bank's set-dueling pressure opposes its
	// preferred replacement policy; exposure scales continuously with the
	// co-runners' opposing vote share (Sec. VI-C). The default, 0.25, is
	// conservative next to the detailed bank simulator, where the wrong
	// policy costs the canonical reuse pattern ~40% extra misses
	// (security.RunDuelingLeakage).
	DuelingPenalty float64
	// PlacementOverhead is the fraction of batch cycles consumed by the
	// placement algorithm itself (Sec. IV-B: 0.22%).
	PlacementOverhead float64
	// FineGrainedPartitioning models Vantage-style partitions [73] instead
	// of way-partitioning (Intel CAT): partitions keep the bank's full
	// associativity regardless of their size, eliminating the
	// effective-capacity penalty assocFactor applies to small way counts.
	// Jigsaw's original evaluation used Vantage; the paper switched to way
	// partitioning "to better reflect production systems" (Sec. IV-A). See
	// BenchmarkAblationVantage.
	FineGrainedPartitioning bool
	// LCVisibleRate scales the LLC access intensity latency-critical
	// applications *appear* to have to data-movement-driven placers.
	// Server requests are bursty: UMONs measure time-averaged intensity,
	// which understates burst-time needs — this is precisely why "Jigsaw,
	// which cares only about data movement, tends to deprioritize
	// latency-critical applications" (Sec. III). 1.0 disables the effect.
	LCVisibleRate float64
	// Feedback carries the controller parameters (Fig. 9 sweeps these).
	Feedback feedback.Params
	// ReconfigEpochs re-runs the placement algorithm only every N epochs
	// (default 1 = every 100 ms, the paper's period). Sec. IV-B observes
	// that "more frequent reconfigurations do not improve results";
	// BenchmarkAblationReconfigPeriod checks the flip side: on steady
	// workloads, *less* frequent ones barely hurt either — until the
	// workload has phases.
	ReconfigEpochs int
	// ReconfigCost charges each application the cold misses caused by data
	// movement when its placement changes between epochs: lines whose bank
	// home moved are invalidated by the background coherence walk
	// (Sec. IV-A) and must be refetched. Enabled by default; disable to
	// reproduce a movement-cost-free model.
	ReconfigCost bool
	// QueueControl switches the latency-critical controllers from
	// tail-latency feedback (Listing 1) to the queue-length alternative the
	// paper sketches in Sec. V-C ("we could use queue length, but that
	// would require additional information from applications").
	QueueControl bool
	// Energy carries the unit energies for Fig. 15.
	Energy energy.Params
	// Seed drives the workload's stochastic arrivals.
	Seed int64

	// Sinks are the run's optional observability sinks (internal/obs), all
	// nil by default and nil-safe: a disabled sink costs the run nothing
	// beyond a nil check. Metrics collects counters/gauges/histograms,
	// Events the JSONL epoch decision log, Trace Chrome trace events (one
	// lane per run, so design comparisons sharing a Trace render as stacked
	// timelines), and Prov one placement_decision record per placed VM/app
	// per reconfiguration; with Prov nil the placers build no records
	// (TestAllocGuardProvenance). With both Metrics and TS set, the run
	// samples the registry into TS once per epoch (obs.Recorder). Spans
	// times the epoch model step and placement on the wall clock; it is
	// concurrency-safe and shared across parallel cells. The run ignores
	// Progress and the publish hooks, which only fan-outs read.
	obs.Sinks

	// Ctx, when non-nil, is polled at the top of every epoch; once the
	// context is done the run panics with a *CancelError. It is how the
	// harness's hard per-cell deadline and SIGINT handling unwind a wedged
	// or abandoned run.
	Ctx context.Context
	// Chaos injects deterministic faults (internal/chaos) into the epoch
	// loop: corrupted miss curves, over-committed placements, dropped or
	// delayed reconfigurations. Nil (the default) injects nothing.
	Chaos *chaos.Injector
	// CheckInvariants runs the hardened invariant checkers every epoch —
	// curve validity, placement capacity, finite CPI, controller saturation
	// bounds, reconfiguration liveness — panicking with an *InvariantError
	// on violation. Off by default: the checks exist to prove injected
	// corruption is detected, and cost a few comparisons per app per epoch.
	CheckInvariants bool
}

// DefaultConfig returns the paper's evaluation configuration.
func DefaultConfig() Config {
	return Config{
		Machine:           core.DefaultMachine(),
		NoC:               noc.DefaultConfig(),
		BankLatency:       13,
		MemLatency:        120,
		FreqHz:            2.66e9,
		EpochSeconds:      0.1,
		AssocHalfWays:     1,
		DuelingPenalty:    0.25,
		PlacementOverhead: 0.0022,
		ReconfigEpochs:    1,
		ReconfigCost:      true,
		LCVisibleRate:     0.3,
		Feedback:          feedback.DefaultParams(),
		Energy:            energy.DefaultParams(),
		Seed:              1,
	}
}

// EpochCycles returns the number of cycles in one epoch.
func (c Config) EpochCycles() float64 { return c.EpochSeconds * c.FreqHz }

// HopCycles returns the uncontended per-hop NoC latency in cycles.
func (c Config) HopCycles() float64 { return float64(c.NoC.HopCycles()) }

// CurvePoints is the miss-curve grid: one point per way in the LLC.
func (c Config) CurvePoints() int {
	return c.Machine.WaysPerBank * c.Machine.Banks()
}

func (c Config) validate() {
	if c.BankLatency <= 0 || c.MemLatency <= 0 || c.FreqHz <= 0 || c.EpochSeconds <= 0 {
		panic(fmt.Sprintf("system: invalid latency/clock config %+v", c))
	}
	if c.AssocHalfWays < 0 || c.DuelingPenalty < 0 || c.PlacementOverhead < 0 || c.PlacementOverhead >= 1 {
		panic(fmt.Sprintf("system: invalid model parameters %+v", c))
	}
	if c.LCVisibleRate <= 0 || c.LCVisibleRate > 1 {
		panic(fmt.Sprintf("system: LCVisibleRate %g out of (0,1]", c.LCVisibleRate))
	}
	if c.ReconfigEpochs < 1 {
		panic(fmt.Sprintf("system: ReconfigEpochs %d must be at least 1", c.ReconfigEpochs))
	}
}
