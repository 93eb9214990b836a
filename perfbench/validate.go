package main

import (
	"fmt"
	"time"

	"jumanji/internal/core"
	"jumanji/internal/driver"
	"jumanji/internal/obs"
	"jumanji/internal/parallel"
	"jumanji/internal/trace"
)

// validateSize is the validate workload's length: epochs per placer, and
// accesses per app per epoch (0 keeps StandardValidationConfig's).
type validateSize struct {
	epochs   int
	accesses int
}

func validateSizeFor(smoke bool) validateSize {
	if smoke {
		return validateSize{epochs: 2, accesses: 4000}
	}
	return validateSize{epochs: 3}
}

// validatePlacers are the placers cmd/validate offers.
func validatePlacers() []core.Placer {
	return []core.Placer{core.JumanjiPlacer{}, core.JigsawPlacer{}}
}

// validationConfig is driver.StandardValidationConfig with its trace
// generators reseeded from seed. Seed 1 keeps the standard generators'
// seeds (1, 2, 3), so it replays exactly what cmd/validate replays.
func validationConfig(placer core.Placer, seed int64) (driver.Config, error) {
	cfg := driver.StandardValidationConfig(placer)
	base := 3 * (seed - 1)
	for i := range cfg.Apps {
		a := &cfg.Apps[i]
		lines := a.Footprint / 64
		switch a.Name {
		case "workingset":
			a.Gen = trace.NewWorkingSet(a.Base, lines, 64, base+1)
		case "scan":
			// A scan has no randomness to reseed.
		case "zipf":
			a.Gen = trace.NewZipf(a.Base, lines, 64, 1.4, base+2)
		case "chase":
			a.Gen = trace.NewPointerChase(a.Base, lines, 64, base+3)
		default:
			return cfg, fmt.Errorf("validation app %q has no reseeding rule", a.Name)
		}
	}
	return cfg, nil
}

type validatePass struct {
	size    validateSize
	workers int
	names   []string
	drivers []*driver.Driver
	probes  []*timedPlacer // nil entries when untraced
}

// setupValidate builds one driver per placer, each with a fresh cache
// hierarchy. Traced passes hand the drivers timed placers.
func setupValidate(e env, tr *tracer) (pass, time.Duration, error) {
	p := &validatePass{size: validateSizeFor(e.smoke), workers: e.workers}
	for _, pl := range validatePlacers() {
		var probe *timedPlacer
		if tr != nil {
			probe = newTimedPlacer(pl, tr, noSpan, noSpan)
			pl = probe
		}
		cfg, err := validationConfig(pl, e.seed)
		if err != nil {
			return nil, 0, err
		}
		if p.size.accesses > 0 {
			for i := range cfg.Apps {
				cfg.Apps[i].AccessesPerEpoch = p.size.accesses
			}
		}
		cfg.Metrics = obs.NewRegistry() // cmd/validate's counter cross-check needs it
		d, err := driver.New(cfg)
		if err != nil {
			return nil, 0, err
		}
		p.names = append(p.names, pl.Name())
		p.drivers = append(p.drivers, d)
		p.probes = append(p.probes, probe)
	}
	return p, 0, nil
}

// run replays the placers' epochs in lockstep, epoch e of every driver
// side by side on the workers before any driver's epoch e+1. The drivers
// share nothing, so this changes when, not what, each replays. Side by
// side, a pass takes about 6 s instead of 10, and the lockstep pairs the
// same epochs in every pass, so an epoch's latency does not depend on how
// far along the other driver happens to be. Each RunEpoch is one op; ops are ordered
// driver by driver, as cmd/validate runs one placer after another.
func (p *validatePass) run(tr *tracer, root int) []opResult {
	out := make([]opResult, len(p.drivers)*p.size.epochs)
	for e := 0; e < p.size.epochs; e++ {
		parallel.Map(p.workers, len(p.drivers), func(k int) struct{} {
			op := k*p.size.epochs + e
			// One driver span per epoch: a span over all epochs would count
			// the waits at the lockstep barrier as unattributed time.
			drv := tr.begin("driver", p.names[k], root, op)
			defer tr.end(drv)
			out[op] = protect(func() opResult { return p.epoch(tr, drv, op, k, e == p.size.epochs-1) })
			return struct{}{}
		})
	}
	return out
}

func (p *validatePass) epoch(tr *tracer, drv, op, k int, last bool) opResult {
	d := p.drivers[k]
	kind := "warm"
	if d.Placement() == nil {
		kind = "cold"
	}
	t0 := time.Now()
	sp := tr.begin("driver.epoch", kind, drv, op)
	if probe := p.probes[k]; probe != nil {
		probe.parent, probe.op = sp, op
	}
	st := d.RunEpoch()
	tr.end(sp)
	latency := time.Since(t0)

	chk := tr.begin("bench.check", "", drv, op)
	defer tr.end(chk)
	var accesses uint64
	for _, a := range st.PerApp {
		accesses += a.Accesses
	}
	tr.count("driver.accesses", int64(accesses))
	tr.count("driver.invalidated", int64(st.Invalidated))
	if accesses == 0 {
		return opResult{err: fmt.Errorf("epoch %d replayed no accesses", st.Epoch)}
	}
	dg := newDigester()
	dg.epochStats(st)
	if last {
		// cmd/validate's instrumentation cross-check: Σ per-bank misses ==
		// memory loads, for everything this driver replayed.
		if err := d.CheckCounters(); err != nil {
			return opResult{err: err}
		}
		dg.u64(d.Hierarchy().TotalStats().MemLoads)
	}
	return opResult{digest: dg.sum(), latency: latency}
}

func (p *validatePass) close() error { return nil }
