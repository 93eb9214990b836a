package system

import (
	"math"

	"jumanji/internal/core"
	"jumanji/internal/energy"
	"jumanji/internal/mrc"
	"jumanji/internal/tailbench"
	"jumanji/internal/topo"
)

// Fixed hierarchy ratios for energy accounting: each instruction makes
// ~0.3 L1 accesses; the L2 filters two thirds of its traffic, so L2
// accesses ≈ 3× LLC accesses.
const (
	l1AccessesPerInstr = 0.3
	l2PerLLCAccess     = 3.0
)

// appState is one application's mutable simulation state.
type appState struct {
	cfg  AppConfig
	id   core.AppID
	name string

	// Model inputs.
	baseCPI, apki float64
	hull          mrc.Curve // DRRIP-approximated (convex-hull) miss curve
	prefBRRIP     bool      // preferred set-dueling outcome (streamers want BRRIP)
	// phases holds the per-phase model inputs for phased batch apps.
	phases []phaseModel

	// Per-epoch outputs.
	accessRate float64 // placer-visible LLC accesses per cycle (LC apps scaled by LCVisibleRate)
	trueRate   float64 // actual LLC accesses per cycle, for cost amortization

	// Batch accounting.
	instructions float64
	ipcAlone     float64

	// Latency-critical accounting.
	queue *queueState
}

// phaseModel is one phase's model inputs for a phased batch app.
type phaseModel struct {
	baseCPI, apki float64
	hull          mrc.Curve
	prefBRRIP     bool
}

// setPhase switches a phased app's active model inputs.
func (a *appState) setPhase(epoch, phaseEpochs int) {
	if len(a.phases) == 0 {
		return
	}
	ph := a.phases[(epoch/phaseEpochs)%len(a.phases)]
	a.baseCPI, a.apki, a.hull, a.prefBRRIP = ph.baseCPI, ph.apki, ph.hull, ph.prefBRRIP
}

type queueState struct {
	sim      *tailbench.QueueSim
	workKI   float64
	deadline float64   // cycles
	lambda   float64   // arrivals per cycle
	lats     []float64 // per-epoch latency scratch, reused via RunEpochAppend
}

// assocFactor maps a partition's way count to its effective-capacity
// multiplier: few ways suffer conflict misses (w/(w+half)), many ways
// approach 1. This is the S-NUCA way-partitioning penalty of Sec. VI-C.
func (c Config) assocFactor(ways float64) float64 {
	if ways <= 0 {
		return 0
	}
	return ways / (ways + c.AssocHalfWays)
}

// epochModel evaluates every application's CPI under a placement. One value
// per run is reused across epochs via reset, so the per-epoch vote tables
// and loserFrac live in recycled scratch instead of fresh maps.
type epochModel struct {
	cfg Config
	in  *core.Input
	pl  *core.Placement
	// loserFrac[app] is the fraction of the app's capacity living in banks
	// where its preferred replacement policy loses the set-dueling election.
	loserFrac []float64
	// moved[app] is the app's MovedFraction against the placement this
	// epoch's replaced (0 without a reconfiguration), taken once per epoch
	// for the movement cost, the run's ReconfigMoved and the churn events.
	moved []float64
	// Per-bank set-dueling vote scratch (physical and overlay LLC spaces).
	physical, overlay []vote
}

type vote struct{ brrip, srrip float64 }

// reset points the model at this epoch's placement, recomputes the
// set-dueling state and takes each app's MovedFraction against prev (nil
// when the epoch did not reconfigure), reusing all scratch.
func (m *epochModel) reset(in *core.Input, pl, prev *core.Placement, apps []*appState) {
	m.in, m.pl = in, pl
	if cap(m.loserFrac) < len(apps) {
		m.loserFrac = make([]float64, len(apps))
	}
	m.loserFrac = m.loserFrac[:len(apps)]
	for i := range m.loserFrac {
		m.loserFrac[i] = 0
	}
	if cap(m.moved) < len(apps) {
		m.moved = make([]float64, len(apps))
	}
	m.moved = m.moved[:len(apps)]
	for i := range m.moved {
		m.moved[i] = pl.MovedFraction(core.AppID(i), prev)
	}
	banks := m.cfg.Machine.Banks()
	if cap(m.physical) < banks {
		m.physical = make([]vote, banks)
		m.overlay = make([]vote, banks)
	}
	m.physical = m.physical[:banks]
	m.overlay = m.overlay[:banks]
	for b := 0; b < banks; b++ {
		m.physical[b] = vote{}
		m.overlay[b] = vote{}
	}
	m.computeDueling(apps)
}

// computeDueling elects a replacement policy per bank by access-weighted
// vote and records, for each app, how much of its capacity sits in banks
// where it loses. Set-dueling state is physically per bank, so overlay
// (Ideal Batch) applications duel on their own overlay banks.
func (m *epochModel) computeDueling(apps []*appState) {
	voteSlice := func(a *appState) []vote {
		if m.pl.Overlay(a.id) {
			return m.overlay
		}
		return m.physical
	}
	for _, a := range apps {
		// TotalOf sums the allocation row in bank order — bitwise equal to
		// summing only the positive entries, since zeros add an exact +0.
		total := m.pl.TotalOf(a.id)
		if total == 0 {
			continue
		}
		votes := voteSlice(a)
		for b, by := range m.pl.AllocRow(a.id) {
			if by <= 0 {
				continue
			}
			w := a.accessRate * by / total
			if a.prefBRRIP {
				votes[b].brrip += w
			} else {
				votes[b].srrip += w
			}
		}
	}
	for _, a := range apps {
		votes := voteSlice(a)
		total, losing := 0.0, 0.0
		for b, by := range m.pl.AllocRow(a.id) {
			if by <= 0 {
				continue
			}
			total += by
			// Exposure is continuous in the opposing vote share: even when
			// an app's preferred policy wins the PSEL election, the loser's
			// dedicated leader sets still run the losing policy, and the
			// dueling counters wander with the co-runners' miss pressure.
			// This is what makes Fig. 12's tail vary *continuously* with
			// the co-running mix.
			v := &votes[b]
			opp := v.brrip
			if a.prefBRRIP {
				opp = v.srrip
			}
			if s := v.brrip + v.srrip; s > 0 {
				losing += by * (opp / s)
			}
		}
		if total > 0 {
			m.loserFrac[a.id] = losing / total
		}
	}
}

// perf is one application's modelled performance for the epoch.
type perf struct {
	CPI       float64
	IPC       float64
	MissRatio float64
	HitLat    float64 // cycles per LLC access (bank + NoC round trip)
	AvgHops   float64
	SizeBytes float64
}

// appPerf evaluates the CPI model for one application.
func (m *epochModel) appPerf(a *appState) perf {
	size := m.pl.TotalOf(a.id)
	ways := m.pl.MeanWays(a.id)
	if m.cfg.FineGrainedPartitioning {
		// Vantage-style partitions see the bank's full associativity.
		ways = float64(m.cfg.Machine.WaysPerBank)
	}
	effSize := size * m.cfg.assocFactor(ways)
	if share := m.pl.TimeShared(a.id); share > 0 {
		// Time-multiplexed banks are flushed on every context switch
		// (Sec. IV-B): the app runs warm only its share of the time, which
		// first-order behaves like a proportionally smaller cache.
		effSize *= share
	}
	miss := a.hull.Eval(effSize)
	miss *= 1 + m.cfg.DuelingPenalty*m.loserFrac[a.id]
	if m.cfg.ReconfigCost && a.trueRate > 0 {
		// Data movement cost (Sec. IV-A): lines whose bank home moved were
		// invalidated by the coherence walk and refetch as cold misses,
		// amortized over this epoch's LLC accesses.
		movedLines := m.moved[a.id] * size / 64
		epochAccesses := a.trueRate * m.cfg.EpochCycles()
		miss += movedLines / epochAccesses
	}
	if miss > 1 {
		miss = 1
	}
	hops := m.pl.AvgHops(a.id, m.in.Apps[a.id].Core)
	hitLat := m.cfg.BankLatency + 2*hops*m.cfg.HopCycles()
	cpi := a.baseCPI + a.apki/1000*(hitLat+miss*m.cfg.MemLatency)
	return perf{
		CPI:       cpi,
		IPC:       1 / cpi,
		MissRatio: miss,
		HitLat:    hitLat,
		AvgHops:   hops,
		SizeBytes: size,
	}
}

// energyCounts converts one app-epoch's activity into event counts.
func energyCounts(a *appState, p perf, instructions float64) energy.Counts {
	llc := a.apki / 1000 * instructions
	return energy.Counts{
		L1Accesses:  l1AccessesPerInstr * instructions,
		L2Accesses:  l2PerLLCAccess * llc,
		LLCAccesses: llc,
		NoCHops:     llc * 2 * p.AvgHops,
		MemAccesses: llc * p.MissRatio,
	}
}

// meanHopsFromCore is the average distance from a core to all banks — the
// S-NUCA expected distance used for reference CPIs and "alone" baselines.
// It sums Mesh.Hops's integer distances over the mesh's coordinates rather
// than converting every bank ID back to coordinates.
func meanHopsFromCore(m core.Machine, c topo.TileID) float64 {
	p := m.Mesh.Coord(c)
	total := 0
	for y := 0; y < m.Mesh.H; y++ {
		for x := 0; x < m.Mesh.W; x++ {
			total += absInt(x-p.X) + absInt(y-p.Y)
		}
	}
	return float64(total) / float64(m.Banks())
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// p95MM1 is the analytic 95th-percentile sojourn time of an M/M/1 queue
// with mean service S and utilization rho: ln(20)·S/(1−rho).
func p95MM1(s, rho float64) float64 {
	if rho >= 1 {
		return math.Inf(1)
	}
	return math.Log(20) * s / (1 - rho)
}
