// Package driver is the trace-driven detailed simulation loop: it replays
// synthetic address traces through the full cache hierarchy
// (internal/cache) under placements produced by the real placers, with
// utility monitors profiling each virtual cache exactly as the paper's
// hardware does (Sec. IV-A). It closes the loop the epoch model
// short-circuits — placements here are computed from *UMON-measured* miss
// curves, installed into the VTB, enforced by per-bank way masks, and
// validated against what the caches actually do.
//
// The driver exists for validation and for the bank-level experiments; the
// large design-space sweeps use internal/system's analytic model instead
// (DESIGN.md §1).
package driver

import (
	"fmt"

	"jumanji/internal/bank"
	"jumanji/internal/cache"
	"jumanji/internal/core"
	"jumanji/internal/mrc"
	"jumanji/internal/obs"
	"jumanji/internal/topo"
	"jumanji/internal/trace"
	"jumanji/internal/umon"
	"jumanji/internal/vtb"
)

// App is one trace-driven application.
type App struct {
	Name string
	VM   core.VMID
	Core topo.TileID
	// Gen produces the app's address stream; addresses should stay within
	// [Base, Base+Footprint).
	Gen trace.Generator
	// Base and Footprint bound the app's address space (page-mapped to its
	// virtual cache).
	Base, Footprint uint64
	// LatencyCritical marks the app for the placers; LatSize gives its
	// reserved bytes (driver runs do not use feedback control).
	LatencyCritical bool
	LatSize         float64
	// AccessesPerEpoch is how many accesses the app issues per epoch.
	AccessesPerEpoch int
}

// Config assembles a driver run.
type Config struct {
	Machine core.Machine
	Apps    []App
	Placer  core.Placer
	// UMONSamplePeriod is the 1-in-N address sampling of the profilers
	// (≈1% in the paper). Smaller is more accurate and slower.
	UMONSamplePeriod uint64

	// Metrics, Events, and Trace are optional observability sinks
	// (internal/obs), all nil by default and nil-safe. Metrics
	// instruments the hierarchy (per-level and per-bank counters) and
	// the UMONs; Events receives driver_epoch JSONL records with the
	// installed placements, way masks, UMON curve snapshots, and
	// measured per-app stats; Trace gets one lane of per-epoch spans.
	Metrics *obs.Registry
	Events  *obs.EventLog
	Trace   *obs.Trace
	// Spans, when set, times each epoch's phases (UMON curve work,
	// placement, VTB install, trace replay) on the wall clock; it is
	// concurrency-safe and may be shared across drivers.
	Spans *obs.Spans
}

// AppStats is one app's measured behaviour for an epoch.
type AppStats struct {
	Accesses      uint64
	L1Hits        uint64
	L2Hits        uint64
	LLCHits       uint64
	MemLoads      uint64
	AvgHops       float64 // mean one-way hops of LLC traversals
	LLCMissRatio  float64 // MemLoads / (LLCHits + MemLoads)
	AllocBytes    float64 // placement granted this epoch
	BanksOccupied int
}

// EpochStats is one reconfiguration epoch's outcome.
type EpochStats struct {
	Epoch       int
	PerApp      []AppStats
	Invalidated int // LLC lines moved by the placement change's walk
}

// Driver owns the detailed simulation state across epochs.
type Driver struct {
	cfg    Config
	hier   *cache.Hierarchy
	umons  []*umon.Monitor
	epoch  int
	placed *core.Placement
	lane   int // trace lane (0 when tracing is off)
}

// maxCores is the most tiles cache.New accepts: its directory names each
// core's copy by one bit of a 32-bit sharer vector.
const maxCores = 32

// driverEpochUs is the nominal trace duration of one driver epoch in
// microseconds. The driver replays a fixed access budget per epoch rather
// than counting cycles, so trace timestamps use this nominal scale.
const driverEpochUs = 1000

// New validates the configuration and builds the hierarchy.
func New(cfg Config) (*Driver, error) {
	if len(cfg.Apps) == 0 {
		return nil, fmt.Errorf("driver: no applications")
	}
	if cfg.Placer == nil {
		return nil, fmt.Errorf("driver: no placer")
	}
	if cfg.UMONSamplePeriod == 0 {
		cfg.UMONSamplePeriod = 64
	}
	if cfg.Machine.Banks() == 0 {
		return nil, fmt.Errorf("driver: invalid machine")
	}
	if n := cfg.Machine.Mesh.Tiles(); n > maxCores {
		return nil, fmt.Errorf("driver: %d tiles exceed the cache directory's %d-core sharer vector", n, maxCores)
	}
	hcfg := cache.DefaultConfig(cfg.Machine.Mesh)
	// Scale the LLC banks to the machine description.
	lineSize := hcfg.LineSize
	sets := int(uint64(cfg.Machine.BankBytes) / uint64(cfg.Machine.WaysPerBank) / lineSize)
	if sets == 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("driver: bank geometry not a power of two (%d sets)", sets)
	}
	hcfg.LLCBank = bank.Config{Sets: sets, Ways: cfg.Machine.WaysPerBank, LineSize: lineSize, Policy: bank.DRRIP}
	h := cache.New(hcfg)

	d := &Driver{cfg: cfg, hier: h}
	wayBytes := cfg.Machine.WayBytes()
	points := cfg.Machine.WaysPerBank * cfg.Machine.Banks()
	usedCores := make(map[topo.TileID]bool)
	for i, a := range cfg.Apps {
		if a.Gen == nil || a.AccessesPerEpoch <= 0 || a.Footprint == 0 {
			return nil, fmt.Errorf("driver: app %d (%s) misconfigured", i, a.Name)
		}
		if usedCores[a.Core] {
			return nil, fmt.Errorf("driver: core %d hosts two apps (per-core stats would mix)", a.Core)
		}
		usedCores[a.Core] = true
		h.VTB().MapRange(a.Base, a.Footprint, vtb.VCID(i))
		// UMON buckets sized so the curve grid matches the placers' units.
		bucketLines := int(wayBytes / float64(lineSize) / float64(cfg.UMONSamplePeriod))
		if bucketLines < 1 {
			bucketLines = 1
		}
		d.umons = append(d.umons, umon.New(bucketLines, points, lineSize, cfg.UMONSamplePeriod))
	}
	if cfg.Metrics != nil {
		h.Instrument(cfg.Metrics)
		for i, a := range cfg.Apps {
			d.umons[i].Instrument(cfg.Metrics, fmt.Sprintf("umon.app%d.%s", i, a.Name))
		}
	}
	d.lane = cfg.Trace.Lane("driver: " + cfg.Placer.Name())
	cfg.Trace.ThreadName(d.lane, 0, "epochs")
	return d, nil
}

// Hierarchy exposes the underlying caches for inspection in tests.
func (d *Driver) Hierarchy() *cache.Hierarchy { return d.hier }

// Placement returns the most recent placement.
func (d *Driver) Placement() *core.Placement { return d.placed }

// buildInput assembles the placer input from UMON-measured curves.
func (d *Driver) buildInput() *core.Input {
	in := &core.Input{Machine: d.cfg.Machine, LatSizes: map[core.AppID]float64{}}
	for i, a := range d.cfg.Apps {
		rate := float64(a.AccessesPerEpoch)
		spec := core.AppSpec{
			Name:            a.Name,
			VM:              a.VM,
			Core:            a.Core,
			LatencyCritical: a.LatencyCritical,
			MissRatio:       d.umons[i].MissRatioCurve(),
			AccessRate:      rate,
		}
		in.Apps = append(in.Apps, spec)
		if a.LatencyCritical {
			size := a.LatSize
			if size <= 0 {
				size = d.cfg.Machine.BankBytes
			}
			in.LatSizes[core.AppID(i)] = size
		}
	}
	return in
}

// install applies a placement: VC descriptors into the VTB (with the
// background coherence walk) and way masks into every bank.
func (d *Driver) install(pl *core.Placement) int {
	invalidated := 0
	for i := range d.cfg.Apps {
		app := core.AppID(i)
		if desc, ok := pl.Descriptor(app); ok {
			invalidated += d.hier.InstallPlacement(vtb.VCID(i), desc)
		}
	}
	for b := 0; b < d.cfg.Machine.Banks(); b++ {
		bid := topo.TileID(b)
		masks := pl.WayMasks(bid)
		bankRef := d.hier.LLCBank(bid)
		for i := range d.cfg.Apps {
			mask, ok := masks[core.AppID(i)]
			if !ok {
				mask = 0 // unrestricted (unpartitioned pools)
			}
			bankRef.SetWayMask(bank.PartitionID(i), mask)
		}
	}
	d.placed = pl
	return invalidated
}

// RunEpoch performs one reconfiguration epoch: place (from UMON curves),
// install, replay all apps' traces interleaved, and report measured stats.
// UMON counters are halved each epoch (hardware aging), so the curves track
// phase changes instead of averaging over the whole run.
func (d *Driver) RunEpoch() EpochStats {
	sp := d.cfg.Spans.Start("driver.umon")
	for _, u := range d.umons {
		u.Age()
	}
	in := d.buildInput()
	sp.Stop()
	sp = d.cfg.Spans.Start("driver.place")
	pl := d.cfg.Placer.Place(in)
	sp.Stop()
	sp = d.cfg.Spans.Start("driver.install")
	invalidated := d.install(pl)
	sp.Stop()

	n := len(d.cfg.Apps)
	before := make([]cache.Stats, n)
	hopsBefore := make([]uint64, n)
	llcAccBefore := make([]uint64, n)
	for i, a := range d.cfg.Apps {
		before[i] = d.hier.StatsFor(int(a.Core))
		hopsBefore[i] = before[i].HopsTotal
		llcAccBefore[i] = before[i].LLCHits + before[i].MemLoads
	}

	// Interleave apps round-robin, proportionally to their access budgets,
	// so bank and replacement interference between co-runners is realistic.
	sp = d.cfg.Spans.Start("driver.replay")
	remaining := make([]int, n)
	total := 0
	for i, a := range d.cfg.Apps {
		remaining[i] = a.AccessesPerEpoch
		total += a.AccessesPerEpoch
	}
	for total > 0 {
		for i, a := range d.cfg.Apps {
			if remaining[i] == 0 {
				continue
			}
			addr := a.Gen.Next()
			out := d.hier.Access(int(a.Core), addr, bank.PartitionID(i))
			// UMONs observe the LLC access stream — i.e. L2 misses — as in
			// real hardware (Sec. IV-A); private-cache hits never reach
			// them, so the profiled curves describe LLC-visible reuse.
			if out.Level >= cache.LevelLLC {
				d.umons[i].Access(addr)
			}
			remaining[i]--
			total--
		}
	}
	sp.Stop()

	out := EpochStats{Epoch: d.epoch, Invalidated: invalidated, PerApp: make([]AppStats, n)}
	for i, a := range d.cfg.Apps {
		after := d.hier.StatsFor(int(a.Core))
		s := &out.PerApp[i]
		s.Accesses = after.Accesses - before[i].Accesses
		s.L1Hits = after.L1Hits - before[i].L1Hits
		s.L2Hits = after.L2Hits - before[i].L2Hits
		s.LLCHits = after.LLCHits - before[i].LLCHits
		s.MemLoads = after.MemLoads - before[i].MemLoads
		if llc := s.LLCHits + s.MemLoads; llc > 0 {
			s.LLCMissRatio = float64(s.MemLoads) / float64(llc)
			s.AvgHops = float64(after.HopsTotal-hopsBefore[i]) / float64(llc) / 2
		}
		s.AllocBytes = pl.TotalOf(core.AppID(i))
		banks, _ := pl.BanksOf(core.AppID(i))
		s.BanksOccupied = len(banks)
		_ = a
	}
	d.observeEpoch(out, pl)
	d.epoch++
	return out
}

// observeEpoch emits the epoch's driver_epoch record and trace span.
func (d *Driver) observeEpoch(out EpochStats, pl *core.Placement) {
	if d.cfg.Events.Enabled() {
		ev := obs.DriverEpoch{
			Epoch: out.Epoch, TimeUs: float64(out.Epoch) * driverEpochUs,
			InvalidatedLines: out.Invalidated,
		}
		for i, a := range d.cfg.Apps {
			id := core.AppID(i)
			banks, _ := pl.BanksOf(id)
			masked := 0
			for _, b := range banks {
				if pl.WayMasks(b)[id] != 0 {
					masked++
				}
			}
			ev.Installs = append(ev.Installs, obs.VTBInstall{
				App: i, Name: a.Name, Banks: len(banks),
				TotalBytes: pl.TotalOf(id), MaskedBanks: masked,
			})
			curve := d.umons[i].MissRatioCurve()
			ev.UMON = append(ev.UMON, obs.UMONSnapshot{
				App: i, Name: a.Name, UnitBytes: curve.Unit, MissRatio: curve.M,
			})
			s := out.PerApp[i]
			ev.Apps = append(ev.Apps, obs.DriverAppStats{
				App: i, Name: a.Name,
				Accesses: s.Accesses, LLCHits: s.LLCHits, MemLoads: s.MemLoads,
				LLCMissRatio: s.LLCMissRatio, AvgHops: s.AvgHops,
			})
		}
		d.cfg.Events.EmitDriverEpoch(ev)
	}
	if tr := d.cfg.Trace; tr.Enabled() {
		ts := float64(out.Epoch) * driverEpochUs
		tr.Span(d.lane, 0, "epoch", "epoch", ts, driverEpochUs, map[string]any{
			"epoch": out.Epoch, "invalidated_lines": out.Invalidated,
		})
		miss := make(map[string]float64, len(out.PerApp))
		for i, a := range d.cfg.Apps {
			miss[fmt.Sprintf("%d:%s", i, a.Name)] = out.PerApp[i].LLCMissRatio
		}
		tr.Counter(d.lane, "llc miss ratio", ts, miss)
	}
}

// CheckCounters cross-checks the instrumented hierarchy against itself: the
// registry-counted per-bank LLC misses, summed over banks, must equal both
// the cache.mem.loads counter and the hierarchy's own MemLoads total — every
// LLC bank miss is exactly one memory load by construction, and the
// instrumentation must not have drifted from the stats it shadows. It
// errors when Metrics is nil (nothing was counted) or on any mismatch.
func (d *Driver) CheckCounters() error {
	reg := d.cfg.Metrics
	if reg == nil {
		return fmt.Errorf("driver: CheckCounters requires a metrics registry")
	}
	var bankMisses uint64
	for b := 0; b < d.cfg.Machine.Banks(); b++ {
		bankMisses += reg.Counter(fmt.Sprintf("bank.%d.misses", b)).Value()
	}
	memLoads := reg.Counter("cache.mem.loads").Value()
	hierLoads := d.hier.TotalStats().MemLoads
	if bankMisses != memLoads || memLoads != hierLoads {
		return fmt.Errorf("driver: counter mismatch: Σ bank misses %d, cache.mem.loads %d, hierarchy MemLoads %d",
			bankMisses, memLoads, hierLoads)
	}
	return nil
}

// MeasuredCurve returns the UMON-profiled miss-ratio curve for app i.
func (d *Driver) MeasuredCurve(i int) mrc.Curve {
	return d.umons[i].MissRatioCurve()
}
