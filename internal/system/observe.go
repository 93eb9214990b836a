package system

import (
	"fmt"
	"math"
	"sort"

	"jumanji/internal/core"
	"jumanji/internal/feedback"
	"jumanji/internal/obs"
)

// runObserver funnels one run's per-epoch state into the configured
// observability sinks (Config.Metrics/Events/Trace). Every sink is
// optional; with all three nil the observer's methods reduce to a handful
// of nil checks per epoch, so uninstrumented runs pay nothing measurable
// (BenchmarkObsOverhead).
type runObserver struct {
	cfg  *Config
	lane int // trace lane (0 when tracing is off)

	// prevSizes and prevPanics classify controller actions between
	// reconfigurations: the allocation delta plus whether the controller
	// panicked since the last decision point.
	prevSizes  map[core.AppID]float64
	prevPanics map[core.AppID]uint64

	epochs    *obs.Counter
	reconfigs *obs.Counter
	sloViol   *obs.Counter
	latNorm   *obs.Histogram
	moved     *obs.Gauge
	allocs    map[core.AppID]*obs.Gauge

	// rec samples the registry into cfg.TS once per epoch; nil unless both
	// Metrics and TS are configured.
	rec *obs.Recorder

	design string
}

// newRunObserver wires the run's sinks: a trace lane named after the
// design, controller decision counters, and the run_start record.
func newRunObserver(cfg *Config, design string, apps []*appState, ctrls map[core.AppID]*feedback.Controller, epochs, warmup int) *runObserver {
	o := &runObserver{
		cfg:        cfg,
		lane:       cfg.Trace.Lane("system: " + design),
		prevSizes:  make(map[core.AppID]float64),
		prevPanics: make(map[core.AppID]uint64),
		design:     design,
	}
	cfg.Trace.ThreadName(o.lane, 0, "epochs")
	if reg := cfg.Metrics; reg != nil {
		o.epochs = reg.Counter("system.epochs")
		o.reconfigs = reg.Counter("system.reconfigs")
		o.sloViol = reg.Counter("system.slo_violations")
		o.latNorm = reg.Histogram("system.lat_norm", 0, 2, 40)
		o.moved = reg.Gauge("system.moved_fraction")
		o.allocs = make(map[core.AppID]*obs.Gauge)
		// Register per-app metrics in app-ID order: the registry preserves
		// registration order in its text output, so map-order iteration here
		// would shuffle WriteText between runs.
		ids := make([]core.AppID, 0, len(ctrls))
		for id := range ctrls {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			p := fmt.Sprintf("feedback.app%d", id)
			ctrls[id].Instrument(reg.Counter(p+".grow"), reg.Counter(p+".shrink"), reg.Counter(p+".panic"))
			o.allocs[id] = reg.Gauge(p + ".alloc_bytes")
		}
	}
	if cfg.Events.Enabled() {
		rs := obs.RunStart{
			Design: design, Epochs: epochs, Warmup: warmup,
			Banks: cfg.Machine.Banks(), BankBytes: cfg.Machine.BankBytes,
		}
		for _, a := range apps {
			info := obs.AppInfo{
				App: int(a.id), Name: a.name, VM: int(a.cfg.VM), Core: int(a.cfg.Core),
				LatencyCritical: a.cfg.LatCrit != nil,
			}
			if a.queue != nil {
				info.DeadlineCycles = a.queue.deadline
			}
			rs.Apps = append(rs.Apps, info)
		}
		cfg.Events.EmitRunStart(rs)
	}
	// Bind the recorder after every run-level metric is registered, so the
	// whole set binds with a run-start baseline in one pass.
	o.rec = obs.NewRecorder(cfg.Metrics, cfg.TS)
	return o
}

// epochUs returns the epoch's simulated start time in microseconds.
func (o *runObserver) epochUs(epoch int) float64 {
	return float64(epoch) * o.cfg.EpochSeconds * 1e6
}

// observeEpoch records one epoch's outcome. reconfigured reports whether
// the placer ran this epoch (cause says why: initial | periodic |
// delayed); moved holds each app's MovedFraction against the placement it
// replaced (zeros on the first epoch or when it did not run). in still
// carries the latest reconfiguration's controller targets; perfs carries
// each app's epoch perf when any sink needing attribution is enabled (nil
// otherwise).
func (o *runObserver) observeEpoch(epoch int, reconfigured bool, cause string, in *core.Input, pl *core.Placement, moved []float64,
	sample EpochSample, apps []*appState, perfs []perf, ctrls map[core.AppID]*feedback.Controller, fixedLat *float64) {
	o.epochs.Inc()
	if reconfigured {
		o.reconfigs.Inc()
	}
	// The timeline slice is naturally in app order (the histogram's running
	// sum is a float accumulator, so iteration order matters); NaN marks
	// apps with no latency sample this epoch.
	worstLat := 0.0
	for _, v := range sample.LatNorm {
		if !math.IsNaN(v) {
			o.latNorm.Observe(v)
			if v > worstLat {
				worstLat = v
			}
		}
	}
	for id, g := range o.allocs {
		g.Set(in.LatSizes[id])
	}

	var actions []obs.ControllerAction
	var changes []obs.PlacementChange
	maxMoved, movedBytes := 0.0, 0.0
	appsMoved := 0
	// Decision records are only built when a sink will consume them, so
	// uninstrumented runs pay nothing for the reconfiguration log. The
	// churn loop additionally runs for metrics-only runs: the
	// system.moved_fraction gauge feeds the reconfig-storm alert rule.
	if reconfigured && (o.cfg.Events.Enabled() || o.cfg.Trace.Enabled() || o.cfg.Metrics != nil) {
		decisions := o.cfg.Events.Enabled() || o.cfg.Trace.Enabled()
		if decisions {
			for _, id := range in.AppendLatCritApps(nil) {
				size := in.LatSizes[id]
				last, seen := o.prevSizes[id]
				if !seen {
					last = size
				}
				act := obs.ControllerAction{
					App: int(id), Name: apps[id].name,
					AllocBytes: size, DeltaBytes: size - last,
					Action: classifyAction(size-last, fixedLat != nil, ctrls[id], o.prevPanics[id]),
				}
				if v := sample.LatNorm[int(id)]; !math.IsNaN(v) {
					act.LatNorm = v
				}
				act.DeadlineViolated = act.LatNorm > 1
				actions = append(actions, act)
				o.prevSizes[id] = size
				if c := ctrls[id]; c != nil {
					o.prevPanics[id] = c.Panics
				}
			}
		}
		for i, f := range moved {
			id := core.AppID(i)
			if f > maxMoved {
				maxMoved = f
			}
			if f > 0 {
				appsMoved++
				movedBytes += f * pl.TotalOf(id)
			}
			if decisions {
				changes = append(changes, obs.PlacementChange{
					App: i, Name: apps[i].name, Banks: pl.BankCount(id),
					TotalBytes: pl.TotalOf(id), MovedFraction: f,
				})
			}
		}
	}
	// The gauge is set every epoch (0 between reconfigurations), so its
	// recorded series is a true per-epoch churn timeline.
	o.moved.Set(maxMoved)

	if o.cfg.Events.Enabled() {
		o.cfg.Events.EmitEpoch(obs.Epoch{
			Epoch: epoch, TimeUs: o.epochUs(epoch), Reconfigured: reconfigured,
			Actions: actions, Placement: changes,
			Vulnerability: sample.Vulnerability, WorstLatNorm: worstLat,
		})
		if reconfigured {
			o.cfg.Events.EmitReconfigChurn(obs.ReconfigChurn{
				Epoch: epoch, TimeUs: o.epochUs(epoch), Cause: cause,
				MaxMovedFraction: maxMoved, MovedBytes: movedBytes,
				InvalidatedLines: movedBytes / 64, AppsMoved: appsMoved,
			})
		}
	}
	o.observeViolations(epoch, in, sample, apps, perfs)

	if tr := o.cfg.Trace; tr.Enabled() {
		ts := o.epochUs(epoch)
		durUs := o.cfg.EpochSeconds * 1e6
		tr.Span(o.lane, 0, "epoch", "epoch", ts, durUs, map[string]any{
			"epoch": epoch, "vulnerability": sample.Vulnerability,
		})
		if reconfigured {
			tr.Instant(o.lane, 0, "reconfigure", ts, map[string]any{"moved_fraction_max": maxMoved})
		}
		allocMB := make(map[string]float64, len(sample.AllocMB))
		latNorm := make(map[string]float64, len(sample.LatNorm))
		for _, id := range in.AppendLatCritApps(nil) {
			key := fmt.Sprintf("%d:%s", id, apps[id].name)
			allocMB[key] = sample.AllocMB[int(id)]
			if v := sample.LatNorm[int(id)]; !math.IsNaN(v) {
				latNorm[key] = v
			}
		}
		tr.Counter(o.lane, "lc alloc (MB)", ts, allocMB)
		tr.Counter(o.lane, "lat/deadline", ts, latNorm)
	}

	// Sample the registry into the flight recorder after every metric for
	// this epoch has landed.
	o.rec.Sample(epoch)
}

// observeViolations counts this epoch's blown latency-critical deadlines
// and, when the event log is on, emits one slo_violation attribution
// record per violating app: the latency breakdown reconstructed from the
// epoch's perf (the CPI model is additive, so per-request cycles split
// exactly into base, bank, NoC, and memory components; what remains of
// the observed latency is queueing).
func (o *runObserver) observeViolations(epoch int, in *core.Input, sample EpochSample, apps []*appState, perfs []perf) {
	if o.sloViol == nil && !o.cfg.Events.Enabled() {
		return
	}
	for i, a := range apps {
		if a.queue == nil {
			continue
		}
		latNorm := sample.LatNorm[i]
		if math.IsNaN(latNorm) || latNorm <= 1 {
			continue
		}
		o.sloViol.Inc()
		if !o.cfg.Events.Enabled() || perfs == nil {
			continue
		}
		p := perfs[i]
		q := a.queue
		perReq := q.workKI * 1000 // instructions per request
		access := perReq * a.apki / 1000
		bank := access * o.cfg.BankLatency
		noc := access * 2 * p.AvgHops * o.cfg.HopCycles()
		mem := access * p.MissRatio * o.cfg.MemLatency
		service := perReq * p.CPI
		latency := latNorm * q.deadline
		queue := latency - service
		if queue < 0 {
			queue = 0
		}
		bd := obs.LatencyBreakdown{
			BaseCycles:  perReq * a.baseCPI,
			BankCycles:  bank,
			NoCCycles:   noc,
			MemCycles:   mem,
			QueueCycles: queue,
		}
		dominant, worst := "bank", bank
		for _, c := range [...]struct {
			name string
			v    float64
		}{{"noc", noc}, {"mem", mem}, {"queue", queue}} {
			if c.v > worst {
				dominant, worst = c.name, c.v
			}
		}
		o.cfg.Events.EmitSLOViolation(obs.SLOViolation{
			Epoch: epoch, TimeUs: o.epochUs(epoch),
			App: i, Name: a.name, Design: o.design,
			LatNorm:     latNorm,
			SlackCycles: q.deadline - latency,
			AllocBytes:  in.LatSizes[core.AppID(i)],
			Breakdown:   bd,
			Dominant:    dominant,
		})
	}
}

// classifyAction names a reconfiguration's per-app decision. A controller
// panic since the last decision point dominates; otherwise the sign of the
// net allocation delta decides.
func classifyAction(delta float64, fixed bool, c *feedback.Controller, prevPanics uint64) string {
	switch {
	case fixed:
		return "fixed"
	case c != nil && c.Panics > prevPanics:
		return "panic"
	case delta > 0:
		return "grow"
	case delta < 0:
		return "shrink"
	default:
		return "hold"
	}
}

// observeEnd closes the run's records with its summary.
func (o *runObserver) observeEnd(res *RunResult) {
	if !o.cfg.Events.Enabled() {
		return
	}
	o.cfg.Events.EmitRunEnd(obs.RunEnd{
		Design:               res.Design,
		WorstNormTail:        res.WorstNormTail,
		BatchWeightedSpeedup: res.BatchWeightedSpeedup,
		Vulnerability:        res.Vulnerability,
		EnergyNJ:             res.Energy.Total(),
	})
}
