package system

import (
	"math"
	"math/rand"
	"testing"

	"jumanji/internal/core"
	"jumanji/internal/mrc"
	"jumanji/internal/topo"
)

// vulnerabilityRef is the pairwise scan vulnPass replaced, kept as the
// bitwise reference: for every app and every bank it holds, count the apps
// of other VMs resident in that bank in the same LLC space, skipping pairs
// that are both time-shared.
func vulnerabilityRef(in *core.Input, pl *core.Placement, out []float64) {
	for i := range in.Apps {
		app := core.AppID(i)
		ov := pl.Overlay(app)
		ts := pl.TimeShared(app) > 0
		total, weighted := 0.0, 0.0
		for b, by := range pl.AllocRow(app) {
			if by <= 0 {
				continue
			}
			attackers := 0
			for j := range in.Apps {
				other := core.AppID(j)
				if in.Apps[j].VM == in.Apps[i].VM {
					continue
				}
				orow := pl.AllocRow(other)
				if b >= len(orow) || orow[b] <= 0 || pl.Overlay(other) != ov {
					continue
				}
				if ts && pl.TimeShared(other) > 0 {
					continue
				}
				attackers++
			}
			total += by
			weighted += by * float64(attackers)
		}
		out[i] = 0
		if total > 0 {
			out[i] = weighted / total
		}
	}
}

// vulnChecker runs vulnPass and the reference on the same placement and
// fails on the first app whose result differs in any bit. One checker is
// reused across placements, so scratch reuse (and regrowth when the machine
// or the VM set changes) is exercised too.
type vulnChecker struct {
	t       *testing.T
	vp      vulnPass
	checked int
	// Coverage of the placement features the counting rule distinguishes.
	overlay, timeShared int
}

func (c *vulnChecker) check(label string, in *core.Input, pl *core.Placement) {
	c.t.Helper()
	got := make([]float64, len(in.Apps))
	want := make([]float64, len(in.Apps))
	for i := range got {
		got[i] = -1 // run must overwrite every entry
	}
	c.vp.run(in, pl, got)
	vulnerabilityRef(in, pl, want)
	for i := range in.Apps {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			c.t.Fatalf("%s: app %d vulnerability %v (%#x), reference %v (%#x)",
				label, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
		if pl.Overlay(core.AppID(i)) {
			c.overlay++
		}
		if pl.TimeShared(core.AppID(i)) > 0 {
			c.timeShared++
		}
	}
	c.checked++
}

// checkingPlacer wraps a design and checks the vulnerability pass on every
// placement it produces during a real run.
type checkingPlacer struct {
	inner core.Placer
	c     *vulnChecker
}

func (p checkingPlacer) Name() string { return p.inner.Name() }

func (p checkingPlacer) Place(in *core.Input) *core.Placement {
	return p.PlaceInto(in, nil)
}

func (p checkingPlacer) PlaceInto(in *core.Input, pl *core.Placement) *core.Placement {
	pl = core.PlaceWith(p.inner, in, pl)
	p.c.check(p.inner.Name(), in, pl)
	return pl
}

func TestVulnerabilityMatchesReference(t *testing.T) {
	t.Run("designs-5x4", func(t *testing.T) {
		c := &vulnChecker{t: t}
		cfg, wl := caseStudy(t, 3, true)
		for _, p := range []core.Placer{
			core.StaticPlacer{},
			core.AdaptivePlacer{},
			core.VMPartPlacer{},
			core.JigsawPlacer{},
			core.JumanjiPlacer{},
			core.JumanjiPlacer{Insecure: true},
			core.IdealBatchPlacer{},
		} {
			Run(cfg, wl, checkingPlacer{p, c}, 8, 2)
		}
		if c.checked == 0 || c.overlay == 0 {
			t.Fatalf("checked %d placements, %d overlay apps; want Ideal Batch's overlay covered", c.checked, c.overlay)
		}
	})
	t.Run("sharded-16x16", func(t *testing.T) {
		if testing.Short() {
			t.Skip("16x16 runs in -short mode")
		}
		c := &vulnChecker{t: t}
		cfg := DefaultConfig()
		cfg.Machine.Mesh = topo.NewMesh(16, 16)
		wl, err := DatacenterWorkload(cfg.Machine, rand.New(rand.NewSource(5)), true)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []core.Placer{
			core.StaticPlacer{},
			core.ShardedPlacer{Inner: core.JigsawPlacer{}},
			core.ShardedPlacer{Inner: core.JumanjiPlacer{}},
		} {
			Run(cfg, wl, checkingPlacer{p, c}, 3, 1)
		}
	})
	t.Run("oversubscribed", func(t *testing.T) {
		// More VMs than banks: Jumanji folds VMs into time-shared groups.
		// Reset a few apps' shares so time-shared and unshared apps meet
		// in the same banks.
		c := &vulnChecker{t: t}
		m := core.Machine{Mesh: topo.NewMesh(2, 2), BankBytes: 1 << 20, WaysPerBank: 16}
		in := &core.Input{Machine: m, LatSizes: map[core.AppID]float64{}}
		for i, vm := range []core.VMID{9, 0, 9, 40, 3, 3, 17, 5, 2, 11} {
			in.Apps = append(in.Apps, core.AppSpec{
				Name: "app", VM: vm, Core: topo.TileID(i % m.Banks()),
				MissRatio: testCurve(m, float64(256<<10*(1+i%3))), AccessRate: float64(5 + i),
			})
		}
		pl := core.JumanjiPlacer{AllowOversubscription: true}.Place(in)
		c.check("oversubscribed", in, pl)
		pl.SetTimeShared(1, 0)
		pl.SetTimeShared(6, 0)
		c.check("oversubscribed, partly unshared", in, pl)
		if c.timeShared == 0 {
			t.Fatal("no time-shared apps covered")
		}
	})
	t.Run("hand-built", func(t *testing.T) {
		c := &vulnChecker{t: t}
		rng := rand.New(rand.NewSource(7))
		vmPool := []core.VMID{-7, -1, 0, 3, 1000, 42, 1 << 40}
		for trial := 0; trial < 300; trial++ {
			m := core.Machine{Mesh: topo.NewMesh(1+rng.Intn(5), 1+rng.Intn(4)), BankBytes: 1 << 20, WaysPerBank: 16}
			n := 1 + rng.Intn(12)
			in := &core.Input{Machine: m}
			for i := 0; i < n; i++ {
				in.Apps = append(in.Apps, core.AppSpec{VM: vmPool[rng.Intn(1+rng.Intn(len(vmPool)))]})
			}
			pl := core.NewPlacement(m)
			// Rows for the first apps only (the rest have none), sometimes
			// one row past the input's apps, which the pass must ignore.
			rows := rng.Intn(n + 2)
			for app := 0; app < rows; app++ {
				for b := 0; b < m.Banks(); b++ {
					switch r := rng.Intn(10); {
					case r < 4:
						pl.Add(core.AppID(app), topo.TileID(b), float64(1+rng.Intn(1<<20)))
					case r == 4:
						pl.Add(core.AppID(app), topo.TileID(b), rng.Float64()*1e-300)
					}
				}
				if trial%50 == 49 && app == 0 {
					pl.Add(core.AppID(app), 0, math.NaN())
				}
				switch rng.Intn(6) {
				case 0:
					pl.SetOverlay(core.AppID(app))
				case 1:
					pl.SetTimeShared(core.AppID(app), 0.5)
				case 2:
					pl.SetTimeShared(core.AppID(app), 0.25)
					pl.SetTimeShared(core.AppID(app), 0) // shared, then not
				case 3:
					pl.SetTimeShared(core.AppID(app), -1) // not time-shared
				}
			}
			c.check("hand-built", in, pl)
		}
		if c.overlay == 0 || c.timeShared == 0 {
			t.Fatalf("coverage: %d overlay, %d time-shared apps", c.overlay, c.timeShared)
		}
	})
}

// testCurve is a convex working-set miss curve on the machine's way grid.
func testCurve(m core.Machine, ws float64) mrc.Curve {
	unit := m.WayBytes()
	pts := make([]float64, int(m.TotalBytes()/unit)+1)
	for i := range pts {
		pts[i] = 0.1 + 0.9*math.Exp(-2*float64(i)*unit/ws)
	}
	return mrc.New(unit, pts)
}

// TestAllocGuardVulnerability pins the per-epoch vulnerability pass at zero
// allocations once its scratch is warm.
func TestAllocGuardVulnerability(t *testing.T) {
	cfg, wl := caseStudy(t, 1, true)
	apps := buildStates(cfg, wl)
	ctrls := buildControllers(cfg, apps)
	in := buildInput(cfg, apps, ctrls, nil, nil, nil)
	pl := core.StaticPlacer{}.Place(in)
	out := make([]float64, len(in.Apps))
	var vp vulnPass
	vp.run(in, pl, out)
	allocs := testing.AllocsPerRun(100, func() {
		vp.run(in, pl, out)
	})
	if allocs != 0 {
		t.Fatalf("vulnerability pass allocated %v times per call, want 0", allocs)
	}
}
