package system

import (
	"fmt"
	"math"

	"jumanji/internal/chaos"
	"jumanji/internal/core"
	"jumanji/internal/energy"
	"jumanji/internal/feedback"
	"jumanji/internal/mrc"
	"jumanji/internal/obs"
	"jumanji/internal/stats"
	"jumanji/internal/tailbench"
	"jumanji/internal/workload"
)

// AppResult summarizes one application over a run.
type AppResult struct {
	Name            string
	VM              core.VMID
	LatencyCritical bool

	// Batch metrics.
	MeanIPC  float64
	IPCAlone float64 // isolated-machine IPC (FIESTA-style normalization)

	// Latency-critical metrics (cycles).
	TailP95  float64
	Deadline float64
	NormTail float64 // TailP95 / Deadline; > 1 means a violated deadline

	// Shared metrics.
	MeanAllocMB   float64
	MeanHops      float64
	Vulnerability float64 // avg. other-VM apps sharing the accessed bank
}

// EpochSample is one epoch's observables, for the Fig. 4 timelines.
type EpochSample struct {
	Epoch int
	// LatNorm[i] is app i's mean request latency this epoch normalized to
	// its deadline. NaN marks apps with no sample this epoch (all batch
	// apps, and latency-critical apps that completed no requests).
	LatNorm []float64
	// AllocMB[i] is app i's LLC allocation in MB.
	AllocMB []float64
	// Vulnerability is the epoch's access-weighted attacker count.
	Vulnerability float64
}

// RunResult is everything a run produces.
type RunResult struct {
	Design string
	Apps   []AppResult
	// BatchWeightedSpeedup is Σ IPC/IPCAlone over batch apps (the weighted
	// speedup of the mix); normalize against a Static run for the paper's
	// "speedup relative to Static".
	BatchWeightedSpeedup float64
	// WorstNormTail is the worst latency-critical NormTail.
	WorstNormTail float64
	// Vulnerability is the access-weighted average attacker count (Fig. 14).
	Vulnerability float64
	// Energy is the run's dynamic data-movement energy (Fig. 15).
	Energy energy.Breakdown
	// TotalInstructions is the run's executed instruction count (batch and
	// latency-critical), for per-instruction energy normalization.
	TotalInstructions float64
	// ReconfigMoved is the mean fraction of cached data a reconfiguration
	// re-homes (per-app MovedFraction averaged over apps, then over
	// post-warmup reconfigurations) — the Sec. IV-A background coherence
	// walk's cost, and the reconfiguration-cost axis of the big-mesh
	// sensitivity figure.
	ReconfigMoved float64
	// Timeline holds per-epoch samples.
	Timeline []EpochSample
}

// Run simulates `epochs` reconfiguration epochs of the workload under the
// given design. The first `warmup` epochs run normally but are excluded
// from tail-latency and speedup statistics (controllers need a few epochs
// to settle). Run panics on invalid configuration — callers construct
// configs programmatically.
func Run(cfg Config, wl Workload, placer core.Placer, epochs, warmup int) *RunResult {
	return run(cfg, wl, placer, epochs, warmup, nil)
}

// RunFixedLat is Run with every latency-critical application pinned to a
// fixed allocation of fixedBytes (feedback control disabled), placed
// nearest-first (D-NUCA) or striped (S-NUCA). It drives the Fig. 8
// allocation sweep and the Fig. 12 fixed-partition experiment.
func RunFixedLat(cfg Config, wl Workload, fixedBytes float64, nearest bool, epochs, warmup int) *RunResult {
	if fixedBytes <= 0 {
		panic("system: RunFixedLat needs a positive allocation")
	}
	return run(cfg, wl, core.FixedPlacer{Nearest: nearest}, epochs, warmup, &fixedBytes)
}

func run(cfg Config, wl Workload, placer core.Placer, epochs, warmup int, fixedLat *float64) *RunResult {
	cfg.validate()
	if err := wl.Validate(cfg.Machine); err != nil {
		panic(err)
	}
	if epochs <= 0 || warmup < 0 || warmup >= epochs {
		panic(fmt.Sprintf("system: bad epochs/warmup %d/%d", epochs, warmup))
	}

	// The set-up span covers the per-app models (curves, hulls, LC
	// calibration) and the controllers built from them.
	var setupSp obs.Span
	if cfg.Spans != nil {
		setupSp = cfg.Spans.Start("system.setup")
	}
	apps := buildStates(cfg, wl)
	ctrls := buildControllers(cfg, apps)
	var qctrls map[core.AppID]*feedback.QueueController
	if cfg.QueueControl {
		qctrls = buildQueueControllers(cfg, apps)
	}
	setupSp.Stop()
	cycles := cfg.EpochCycles()

	res := &RunResult{Design: placer.Name(), Apps: make([]AppResult, len(apps))}
	observer := newRunObserver(&cfg, placer.Name(), apps, ctrls, epochs, warmup)
	// Provenance recorder (fifth sink): one per run, handed to the placer
	// through Input.Prov at every reconfiguration boundary and flushed right
	// after, so records stream out in deterministic decision order. Nil when
	// the sink is off — the placers then skip all record building.
	var prov *obs.ProvRecorder
	if cfg.Prov.Enabled() {
		names := make([]string, len(apps))
		for i, a := range apps {
			names[i] = a.name
		}
		prov = obs.NewProvRecorder(cfg.Prov, placer.Name(), names)
	}
	latencies := make([][]float64, len(apps)) // post-warmup LC latencies
	var (
		sumIPC           = make([]float64, len(apps))
		sumAlloc         = make([]float64, len(apps))
		sumHops          = make([]float64, len(apps))
		sumVuln          = make([]float64, len(apps))
		counts           energy.Counts
		measured         int
		totalVulnW       float64
		totalVulnAcc     float64
		reconfigMovedSum float64
		reconfigCount    int
	)

	// Timeline samples index one flat slab per series instead of a pair of
	// maps per epoch; the epoch model, security sweep, placer input, and
	// placements themselves are recycled scratch.
	n := len(apps)
	latSlab := make([]float64, epochs*n)
	allocSlab := make([]float64, epochs*n)
	res.Timeline = make([]EpochSample, 0, epochs)
	model := &epochModel{cfg: cfg}
	vuln := make([]float64, n)
	var vp vulnPass
	// perfs keeps each app's epoch perf for the observer's SLO attribution
	// (latency breakdowns need more than the timeline sample). Allocated
	// only under instrumentation so uninstrumented runs stay alloc-free.
	var perfs []perf
	if cfg.Metrics != nil || cfg.Events.Enabled() {
		perfs = make([]perf, n)
	}

	var prevPl, pl, spare *core.Placement
	var delayed *core.Placement // placement held back by an injected reconfig delay
	var in *core.Input
	for epoch := 0; epoch < epochs; epoch++ {
		pollCtx(&cfg, epoch)
		for _, mig := range wl.Migrations {
			if mig.Epoch == epoch {
				apps[mig.App].cfg.Core = mig.To
			}
		}
		for i, a := range apps {
			if len(a.phases) > 0 {
				a.setPhase(epoch, wl.Apps[i].PhaseEpochs)
			}
		}
		// Movement cost is charged only on the epoch a reconfiguration
		// actually happens (prevForModel nil otherwise).
		var prevForModel *core.Placement
		reconfigured := false
		cause := ""
		boundary := pl == nil || epoch%cfg.ReconfigEpochs == 0
		switch {
		case delayed != nil:
			// A chaos-delayed placement installs one epoch late.
			prevPl, pl, spare = pl, delayed, prevPl
			delayed = nil
			prevForModel = prevPl
			reconfigured = true
			cause = "delayed"
		case boundary:
			first := pl == nil
			in = buildInput(cfg, apps, ctrls, qctrls, fixedLat, in)
			if cfg.Chaos.Enabled() {
				injectCurveFaults(&cfg, in, epoch)
			}
			// Rotate placement buffers: the placement from two
			// reconfigurations ago is dead and becomes this epoch's scratch
			// (the immediately previous one must survive for MovedFraction).
			prov.StartEpoch(epoch, float64(epoch)*cfg.EpochSeconds*1e6)
			in.Prov = prov
			newPl := core.PlaceWithSpans(placer, in, spare, cfg.Spans)
			prov.Flush()
			if cfg.Chaos.Enabled() {
				injectPlacementFault(&cfg, in, newPl, epoch)
			}
			switch {
			case pl != nil && cfg.Chaos.Fires(chaos.ReconfigDrop, int64(epoch)):
				// Discard the fresh placement; the stale one stays in force.
				spare = newPl
			case pl != nil && cfg.Chaos.Fires(chaos.ReconfigDelay, int64(epoch)):
				delayed, spare = newPl, nil
			default:
				prevPl, pl, spare = pl, newPl, prevPl
				prevForModel = prevPl
				reconfigured = true
				if first {
					cause = "initial"
				} else {
					cause = "periodic"
				}
			}
		}
		checkEpochInvariants(&cfg, in, pl, epoch, reconfigured, boundary)
		// The span covers the whole per-epoch model step: performance and
		// vulnerability evaluation for every app under the epoch's placement.
		var modelSp obs.Span
		if cfg.Spans != nil {
			modelSp = cfg.Spans.Start("system.epoch_model")
		}
		model.reset(in, pl, prevForModel, apps)
		vp.run(in, pl, vuln)
		if reconfigured && prevForModel != nil && epoch >= warmup {
			moved := 0.0
			for _, f := range model.moved {
				moved += f
			}
			reconfigMovedSum += moved / float64(len(apps))
			reconfigCount++
		}

		sample := EpochSample{
			Epoch:   epoch,
			LatNorm: latSlab[epoch*n : (epoch+1)*n : (epoch+1)*n],
			AllocMB: allocSlab[epoch*n : (epoch+1)*n : (epoch+1)*n],
		}
		for i := range sample.LatNorm {
			sample.LatNorm[i] = math.NaN()
		}
		epochVulnW, epochVulnAcc := 0.0, 0.0
		for i, a := range apps {
			p := model.appPerf(a)
			checkPerfInvariants(&cfg, epoch, a.name, p)
			if perfs != nil {
				perfs[i] = p
			}
			sample.AllocMB[i] = p.SizeBytes / (1 << 20)

			accesses := 0.0
			if a.cfg.Batch != nil {
				instr := p.IPC * cycles * (1 - cfg.PlacementOverhead)
				res.TotalInstructions += instr
				accesses = a.apki / 1000 * instr
				a.accessRate = a.apki / 1000 * p.IPC
				a.trueRate = a.accessRate
				if epoch >= warmup {
					a.instructions += instr
					sumIPC[i] += p.IPC
				}
				counts.Add(energyCounts(a, p, instr))
			} else {
				q := a.queue
				meanService := q.workKI * 1000 * p.CPI
				q.lats = q.sim.RunEpochAppend(q.lats[:0], cycles, meanService)
				lats := q.lats
				if qctrls != nil {
					// Little's law: average waiting-queue depth = arrival
					// rate × mean waiting time. With no completions at all
					// (deep overload) fall back to the observed backlog.
					depth := float64(q.sim.QueueLen())
					if len(lats) > 0 {
						wait := stats.Mean(lats) - meanService
						if wait < 0 {
							wait = 0
						}
						depth = q.lambda * wait
					}
					qctrls[core.AppID(i)].Update(depth)
				} else {
					for _, l := range lats {
						ctrls[core.AppID(i)].RequestCompleted(l)
					}
				}
				if epoch >= warmup {
					latencies[i] = append(latencies[i], lats...)
				}
				if len(lats) > 0 {
					sample.LatNorm[i] = stats.Mean(lats) / q.deadline
				}
				util := q.lambda * meanService
				if util > 1 {
					util = 1
				}
				instr := util / p.CPI * cycles
				res.TotalInstructions += instr
				accesses = a.apki / 1000 * instr
				a.trueRate = a.apki / 1000 * util / p.CPI
				a.accessRate = a.trueRate * cfg.LCVisibleRate
				counts.Add(energyCounts(a, p, instr))
			}
			if epoch >= warmup {
				sumAlloc[i] += p.SizeBytes
				sumHops[i] += p.AvgHops
				sumVuln[i] += vuln[i]
			}
			epochVulnW += accesses
			epochVulnAcc += accesses * vuln[i]
		}
		modelSp.Stop()
		checkControllerInvariants(&cfg, epoch, ctrls)
		if epochVulnW > 0 {
			sample.Vulnerability = epochVulnAcc / epochVulnW
		}
		if epoch >= warmup {
			measured++
			totalVulnW += epochVulnW
			totalVulnAcc += epochVulnAcc
		}
		res.Timeline = append(res.Timeline, sample)
		observer.observeEpoch(epoch, reconfigured, cause, in, pl, model.moved, sample, apps, perfs, ctrls, fixedLat)
	}

	// Summaries.
	nBatch := 0
	for i, a := range apps {
		ar := &res.Apps[i]
		ar.Name = a.name
		ar.VM = a.cfg.VM
		ar.LatencyCritical = a.cfg.LatCrit != nil
		ar.MeanAllocMB = sumAlloc[i] / float64(measured) / (1 << 20)
		ar.MeanHops = sumHops[i] / float64(measured)
		ar.Vulnerability = sumVuln[i] / float64(measured)
		if a.cfg.Batch != nil {
			nBatch++
			ar.MeanIPC = sumIPC[i] / float64(measured)
			ar.IPCAlone = a.ipcAlone
			res.BatchWeightedSpeedup += ar.MeanIPC / ar.IPCAlone
		} else {
			ar.Deadline = a.queue.deadline
			if len(latencies[i]) > 0 {
				ar.TailP95 = stats.Percentile(latencies[i], cfg.Feedback.Percentile)
			}
			ar.NormTail = ar.TailP95 / ar.Deadline
			if ar.NormTail > res.WorstNormTail {
				res.WorstNormTail = ar.NormTail
			}
		}
	}
	if totalVulnW > 0 {
		res.Vulnerability = totalVulnAcc / totalVulnW
	}
	if reconfigCount > 0 {
		res.ReconfigMoved = reconfigMovedSum / float64(reconfigCount)
	}
	res.Energy = cfg.Energy.Energy(counts)
	observer.observeEnd(res)
	return res
}

// buildStates initializes per-app simulation state. Apps are copies of a
// few fixed profiles, so within one run each distinct profile's hull is
// looked up once, in the process-wide curve memo (batchHull, lcHull), and
// shared, read-only, by every app of that profile even if the memo drops it
// mid-run; and each distinct isolation run (see isolatedP95) runs once per
// Workload, through wl.calib, or once per run for a Workload literal.
// Profiles compare with ==, so two that differ only in a zero's sign share
// a hull; MissRatio gives such profiles the same bits or rejects both.
func buildStates(cfg Config, wl Workload) []*appState {
	unit := cfg.Machine.WayBytes()
	points := cfg.CurvePoints()
	batchHulls := map[workload.Profile]mrc.Curve{}
	lcHulls := map[tailbench.Profile]mrc.Curve{}
	batch := func(p workload.Profile) mrc.Curve { return batchHull(p, unit, points) }
	lc := func(p tailbench.Profile) mrc.Curve { return lcHull(p, unit, points) }
	calib := wl.calib
	if calib == nil {
		calib = new(calibMemo)
	}
	apps := make([]*appState, len(wl.Apps))
	for i, ac := range wl.Apps {
		a := &appState{cfg: ac, id: core.AppID(i), name: ac.Name()}
		if ac.Batch != nil {
			p := ac.Batch
			a.baseCPI, a.apki = p.BaseCPI, p.APKI
			a.hull = memoize(batchHulls, *p, batch)
			a.prefBRRIP = p.Shape == workload.Stream
			for _, ph := range ac.BatchPhases {
				a.phases = append(a.phases, phaseModel{
					baseCPI:   ph.BaseCPI,
					apki:      ph.APKI,
					hull:      memoize(batchHulls, *ph, batch),
					prefBRRIP: ph.Shape == workload.Stream,
				})
			}
			a.accessRate = a.apki / 1000 / a.baseCPI
			refHops := meanHopsFromCore(cfg.Machine, ac.Core)
			aloneHitLat := cfg.BankLatency + 2*refHops*cfg.HopCycles()
			aloneMiss := a.hull.Eval(cfg.Machine.TotalBytes())
			a.ipcAlone = 1 / (p.BaseCPI + p.APKI/1000*(aloneHitLat+aloneMiss*cfg.MemLatency))
		} else {
			p := ac.LatCrit
			a.baseCPI, a.apki = p.BaseCPI, p.APKI
			a.hull = memoize(lcHulls, *p, lc)
			a.queue = calibrateLC(cfg, a, p, ac, int64(i), calib)
			a.trueRate = a.queue.lambda * a.queue.workKI * a.apki
			a.accessRate = a.trueRate * cfg.LCVisibleRate
		}
		apps[i] = a
	}
	return apps
}

// memoize returns m[k], computing it with f and storing it on first use.
func memoize[K comparable, V any](m map[K]V, k K, f func(K) V) V {
	v, ok := m[k]
	if !ok {
		v = f(k)
		m[k] = v
	}
	return v
}

// calibrateLC derives the app's per-request work and deadline from the
// paper's methodology: the deadline is the 95th-percentile latency when the
// application runs in isolation at high load with four LLC ways under
// way-partitioning (Sec. VII), taken through calib.
func calibrateLC(cfg Config, a *appState, p *tailbench.Profile, ac AppConfig, seed int64, calib *calibMemo) *queueState {
	refHops := meanHopsFromCore(cfg.Machine, ac.Core)
	refHitLat := cfg.BankLatency + 2*refHops*cfg.HopCycles()
	refSize := 4 * cfg.Machine.WayBytes() * float64(cfg.Machine.Banks())
	refMiss := a.hull.Eval(refSize * cfg.assocFactor(4))
	refCPI := p.BaseCPI + p.APKI/1000*(refHitLat+refMiss*cfg.MemLatency)
	workKI := p.WorkKI(refCPI, cfg.FreqHz)
	meanService := workKI * 1000 * refCPI

	qps := p.LowQPS
	if ac.HighLoad {
		qps = p.HighQPS
	}
	lambda := qps / cfg.FreqHz

	sim := tailbench.NewQueueSim(cfg.Seed*1000 + seed)
	sim.SetRate(lambda)
	return &queueState{
		sim:      sim,
		workKI:   workKI,
		deadline: calib.deadline(cfg, p.HighQPS, meanService),
		lambda:   lambda,
	}
}

// isolatedP95 measures the reference 95th-percentile latency by simulating
// the application alone at high load (highQPS) with the reference
// (four-way) service time — the same estimator used during runs, so the
// deadline is unbiased. Of cfg it reads Seed, FreqHz, EpochSeconds and
// Feedback.Percentile; calibMemo keys it by those, highQPS and
// meanService.
func isolatedP95(cfg Config, highQPS, meanService float64) float64 {
	sim := tailbench.NewQueueSim(cfg.Seed + 7919)
	sim.SetRate(highQPS / cfg.FreqHz)
	var lats []float64
	for len(lats) < 4000 {
		lats = sim.RunEpochAppend(lats, cfg.EpochCycles(), meanService)
	}
	return stats.Percentile(lats, cfg.Feedback.Percentile)
}

// buildControllers creates a feedback controller per latency-critical app.
func buildControllers(cfg Config, apps []*appState) map[core.AppID]*feedback.Controller {
	total := cfg.Machine.TotalBytes()
	ctrls := make(map[core.AppID]*feedback.Controller)
	for _, a := range apps {
		if a.cfg.LatCrit == nil {
			continue
		}
		ctrls[a.id] = feedback.New(
			cfg.Feedback,
			a.queue.deadline,
			cfg.Machine.BankBytes, // new apps start with ~one bank (Sec. IV-B)
			cfg.Machine.WayBytes(),
			total/2,
			total/8, // canonical panic size: one eighth of the LLC (Sec. V-C)
		)
	}
	return ctrls
}

// buildQueueControllers creates a queue-length controller per
// latency-critical app (Sec. V-C's alternative control signal).
func buildQueueControllers(cfg Config, apps []*appState) map[core.AppID]*feedback.QueueController {
	total := cfg.Machine.TotalBytes()
	out := make(map[core.AppID]*feedback.QueueController)
	for _, a := range apps {
		if a.cfg.LatCrit == nil {
			continue
		}
		out[a.id] = feedback.NewQueueController(0, 0, 0, cfg.Feedback.Step, cfg.Feedback.ShrinkPatience,
			cfg.Machine.BankBytes, cfg.Machine.WayBytes(), total/2, total/8)
	}
	return out
}

// buildInput assembles the placer input for one epoch, reusing prev's
// backing storage when non-nil. The placers retain no part of the input
// they return a placement for, but they keep its apps' hull cache on it
// (core.Input): reusing one Input for the whole run lets each placement
// reuse the hulls of apps whose curve and access rate kept their bits. A
// non-nil fixedLat pins every latency-critical allocation instead of the
// controllers.
func buildInput(cfg Config, apps []*appState, ctrls map[core.AppID]*feedback.Controller, qctrls map[core.AppID]*feedback.QueueController, fixedLat *float64, prev *core.Input) *core.Input {
	in := prev
	if in == nil {
		in = &core.Input{Machine: cfg.Machine, LatSizes: make(map[core.AppID]float64)}
	} else {
		in.Machine = cfg.Machine
		in.Apps = in.Apps[:0]
		clear(in.LatSizes)
	}
	for _, a := range apps {
		spec := core.AppSpec{
			Name:            a.name,
			VM:              a.cfg.VM,
			Core:            a.cfg.Core,
			LatencyCritical: a.cfg.LatCrit != nil,
			MissRatio:       a.hull, // DRRIP ≈ convex hull (Sec. IV-A)
			AccessRate:      a.accessRate,
		}
		in.Apps = append(in.Apps, spec)
		if a.cfg.LatCrit != nil {
			switch {
			case fixedLat != nil:
				in.LatSizes[a.id] = *fixedLat
			case qctrls != nil:
				in.LatSizes[a.id] = qctrls[a.id].Size()
			default:
				in.LatSizes[a.id] = ctrls[a.id].Size()
			}
		}
	}
	return in
}
