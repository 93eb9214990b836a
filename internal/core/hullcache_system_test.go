package core_test

import (
	"math/rand"
	"testing"

	"jumanji/internal/chaos"
	"jumanji/internal/core"
	"jumanji/internal/system"
	"jumanji/internal/topo"
)

// TestHullCacheOnSystemRuns runs core.HullProbe on the placer inputs
// internal/system builds and reuses epoch by epoch: at every placement the
// hulls the cache holds equal fresh ones bit for bit, and the placement
// equals one made with an empty cache. It covers every hulling placer on a
// 5×4 case study, each chaos curve fault (whose corrupted and restored
// curves rebuild an app's hull), the sharded Jumanji and Jigsaw placers on
// DatacenterWorkload's 16×16 fleet (the probe sees each region's
// sub-input, some of which take Jumanji's shrink retries), and Jumanji's
// oversubscription fold on a 2×2 machine hosting Fig. 17's 12 VMs.
func TestHullCacheOnSystemRuns(t *testing.T) {
	var c core.HullCounts
	probe := func(p core.ScratchPlacer) core.HullProbe { return core.HullProbe{T: t, Counts: &c, Inner: p} }
	run := func(cfg system.Config, wl system.Workload, err error, p core.Placer, epochs int) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		system.Run(cfg, wl, p, epochs, 1)
	}
	cfg := system.DefaultConfig()
	m := cfg.Machine
	wl, err := system.CaseStudyWorkload(m, "xapian", rand.New(rand.NewSource(1)), true)
	for _, p := range []core.ScratchPlacer{core.JigsawPlacer{}, core.JumanjiPlacer{}, core.JumanjiPlacer{Insecure: true},
		core.VMPartPlacer{}, core.IdealBatchPlacer{}, &core.TradePlacer{}} {
		run(cfg, wl, err, probe(p), 6)
	}
	for _, f := range []chaos.Fault{chaos.CurveNaN, chaos.CurveNegative, chaos.CurveNonMonotone} {
		for _, p := range []core.ScratchPlacer{core.JigsawPlacer{}, core.JumanjiPlacer{}, core.VMPartPlacer{}} {
			c := cfg
			c.Chaos = chaos.New(7).Arm(f, 0.5)
			func() {
				// A corrupt curve may stop a placer; every placement made
				// before that was checked.
				defer func() { _ = recover() }()
				run(c, wl, err, probe(p), 6)
			}()
		}
	}

	big := cfg
	big.Machine = core.Machine{Mesh: topo.NewMesh(16, 16), BankBytes: 1 << 20, WaysPerBank: 32}
	fleet, err := system.DatacenterWorkload(big.Machine, rand.New(rand.NewSource(1)), true)
	for _, inner := range []core.ScratchPlacer{core.JumanjiPlacer{}, core.JigsawPlacer{}} {
		run(big, fleet, err, core.ShardedPlacer{Inner: probe(inner)}, 3)
	}

	small := cfg
	small.Machine = core.Machine{Mesh: topo.NewMesh(2, 2), BankBytes: 1 << 20, WaysPerBank: 32}
	vms, err := system.ScalingWorkload(m, 12, rand.New(rand.NewSource(12)), true)
	for i := range vms.Apps {
		vms.Apps[i].Core = topo.TileID(int(vms.Apps[i].Core) % small.Machine.Banks())
	}
	var folded bool
	run(small, vms, err, foldWatch{probe(core.JumanjiPlacer{AllowOversubscription: true}), &folded}, 4)
	if !folded {
		t.Error("the 12 VMs on 4 banks were never folded into time-shared groups")
	}

	t.Logf("%d placements (%d Jumanji shrink retries): %d hulls reused, %d built", c.Placements, c.Retried, c.Current, c.Built)
	if c.Current == 0 || c.Built == 0 {
		t.Errorf("want hulls both reused and built; reused %d, built %d", c.Current, c.Built)
	}
	if c.Retried == 0 {
		t.Error("no Jumanji placement took the shrink retries")
	}
}

// foldWatch places with its ScratchPlacer and records whether a placement
// time-shared any app.
type foldWatch struct {
	core.ScratchPlacer
	folded *bool
}

func (w foldWatch) Place(in *core.Input) *core.Placement {
	return w.PlaceInto(in, core.NewPlacement(in.Machine))
}

func (w foldWatch) PlaceInto(in *core.Input, pl *core.Placement) *core.Placement {
	pl = w.ScratchPlacer.PlaceInto(in, pl)
	*w.folded = *w.folded || pl.TimeSharedCount() > 0
	return pl
}
