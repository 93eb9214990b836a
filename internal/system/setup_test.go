package system

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"jumanji/internal/chaos"
	"jumanji/internal/core"
	"jumanji/internal/mrc"
	"jumanji/internal/tailbench"
	"jumanji/internal/topo"
	"jumanji/internal/workload"
)

// buildStatesReference is the per-app set-up loop buildStates replaced:
// every app samples and hulls its own curves and runs its own isolation
// calibration, whose percentile is taken by sorting.
func buildStatesReference(cfg Config, wl Workload) []*appState {
	unit := cfg.Machine.WayBytes()
	points := cfg.CurvePoints()
	apps := make([]*appState, len(wl.Apps))
	for i, ac := range wl.Apps {
		a := &appState{cfg: ac, id: core.AppID(i), name: ac.Name()}
		if ac.Batch != nil {
			p := ac.Batch
			a.baseCPI, a.apki = p.BaseCPI, p.APKI
			a.hull = p.MissRatio(unit, points).ConvexHull()
			a.prefBRRIP = p.Shape == workload.Stream
			for _, ph := range ac.BatchPhases {
				a.phases = append(a.phases, phaseModel{
					baseCPI:   ph.BaseCPI,
					apki:      ph.APKI,
					hull:      ph.MissRatio(unit, points).ConvexHull(),
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
			a.hull = p.MissRatio(unit, points).ConvexHull()
			a.queue = calibrateLCReference(cfg, a, p, ac, int64(i))
			a.trueRate = a.queue.lambda * a.queue.workKI * a.apki
			a.accessRate = a.trueRate * cfg.LCVisibleRate
		}
		apps[i] = a
	}
	return apps
}

func calibrateLCReference(cfg Config, a *appState, p *tailbench.Profile, ac AppConfig, seed int64) *queueState {
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

	iso := tailbench.NewQueueSim(cfg.Seed + 7919)
	iso.SetRate(p.HighQPS / cfg.FreqHz)
	var lats []float64
	for len(lats) < 4000 {
		lats = iso.RunEpochAppend(lats, cfg.EpochCycles(), meanService)
	}
	sort.Float64s(lats)
	rank := cfg.Feedback.Percentile / 100 * float64(len(lats)-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	deadline := lats[lo]
	if lo != hi {
		frac := rank - float64(lo)
		deadline = lats[lo]*(1-frac) + lats[hi]*frac
	}
	return &queueState{sim: sim, workKI: workKI, deadline: deadline, lambda: lambda}
}

// setupCase is one workload the set-up memo must reproduce bitwise.
type setupCase struct {
	name string
	cfg  Config
	wl   Workload
}

func setupCases(t *testing.T) []setupCase {
	t.Helper()
	var cases []setupCase
	add := func(name string, cfg Config, wl Workload, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, setupCase{name, cfg, wl})
	}
	cfg := DefaultConfig()
	for i, p := range tailbench.Profiles {
		c := cfg
		c.Seed = int64(i + 1)
		wl, err := CaseStudyWorkload(c.Machine, p.Name, rand.New(rand.NewSource(c.Seed)), i%2 == 0)
		add("case/"+p.Name, c, wl, err)
	}
	wl, err := MixedLCWorkload(cfg.Machine, rand.New(rand.NewSource(3)), true)
	add("mixed", cfg, wl, err)
	for _, n := range []int{6, 8, 10, 12, 16} {
		c := cfg
		c.Machine.Mesh = topo.NewMesh(n, n)
		wl, err := DatacenterWorkload(c.Machine, rand.New(rand.NewSource(int64(n))), true)
		add(fmt.Sprintf("datacenter/%dx%d", n, n), c, wl, err)
	}
	for _, vms := range []int{1, 2, 4, 5, 10, 12} {
		wl, err := ScalingWorkload(cfg.Machine, vms, rand.New(rand.NewSource(int64(vms))), vms%2 == 0)
		add(fmt.Sprintf("scaling/%d", vms), cfg, wl, err)
	}
	// Phases that reuse the mix's own profiles, so phase and app hulls share.
	mix := workload.RandomMix(rand.New(rand.NewSource(61)), 8)
	wl, err = BuildVMWorkload(cfg.Machine, []VMSpec{{LatCrit: []string{"silo"}, Batch: 4}, {Batch: 4}}, mix, true)
	hungry, _ := workload.ByName("471.omnetpp")
	wl.Apps[1].BatchPhases = []*workload.Profile{&hungry, &mix[3], &mix[0]}
	wl.Apps[1].PhaseEpochs = 4
	wl.Apps[2].BatchPhases = []*workload.Profile{&mix[0], &hungry}
	wl.Apps[2].PhaseEpochs = 3
	add("phases", cfg, wl, err)
	c, wl := caseStudy(t, 51, true)
	wl.Migrations = []Migration{{Epoch: 3, App: 0, To: 19}, {Epoch: 5, App: 5, To: 7}}
	add("migrations", c, wl, nil)
	for _, sc := range cases {
		if err := sc.wl.Validate(sc.cfg.Machine); err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
	}
	return cases
}

// bitsDiffer reports whether two float64s differ in any bit.
func bitsDiffer(a, b float64) bool { return math.Float64bits(a) != math.Float64bits(b) }

// curveDiff describes the first difference between two curves, or "".
func curveDiff(got, want mrc.Curve) string {
	if bitsDiffer(got.Unit, want.Unit) || len(got.M) != len(want.M) {
		return fmt.Sprintf("grid %v×%d, want %v×%d", got.Unit, len(got.M), want.Unit, len(want.M))
	}
	for i := range got.M {
		if bitsDiffer(got.M[i], want.M[i]) {
			return fmt.Sprintf("point %d is %v, want %v", i, got.M[i], want.M[i])
		}
	}
	return ""
}

// TestBuildStatesMatchesPerAppReference pins the set-up memo bitwise to the
// per-app loop on every field a run reads, across case studies of every LC
// app, mixed, datacenter meshes, every ScalingWorkload split, phases and
// migrations, and checks the memo fires: apps of one profile share a hull.
// Every case runs set-up three times with one calibration memo shared by
// all cases' configs, so the second and third calls read hulls and
// deadlines from the memos.
func TestBuildStatesMatchesPerAppReference(t *testing.T) {
	calib := new(calibMemo)
	for _, sc := range setupCases(t) {
		sc.wl.calib = calib
		for call := 1; call <= 3; call++ {
			got, want := buildStates(sc.cfg, sc.wl), buildStatesReference(sc.cfg, sc.wl)
			checkStates(t, fmt.Sprintf("%s call %d", sc.name, call), sc.cfg, got, want)
			assertHullsShared(t, sc.name, sc.wl, got)
		}
	}
}

// checkStates fails unless got matches want bitwise on every field a run
// reads, and each LC app's queue draws the same next epoch.
func checkStates(t *testing.T, name string, cfg Config, got, want []*appState) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d apps, want %d", name, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		where := fmt.Sprintf("%s app %d (%s)", name, i, w.name)
		if g.name != w.name || g.id != w.id || g.prefBRRIP != w.prefBRRIP {
			t.Fatalf("%s: identity differs", where)
		}
		if d := curveDiff(g.hull, w.hull); d != "" {
			t.Fatalf("%s: hull %s", where, d)
		}
		for _, f := range []struct {
			name      string
			got, want float64
		}{
			{"baseCPI", g.baseCPI, w.baseCPI}, {"apki", g.apki, w.apki},
			{"ipcAlone", g.ipcAlone, w.ipcAlone}, {"accessRate", g.accessRate, w.accessRate},
			{"trueRate", g.trueRate, w.trueRate},
		} {
			if bitsDiffer(f.got, f.want) {
				t.Fatalf("%s: %s = %v, want %v", where, f.name, f.got, f.want)
			}
		}
		if len(g.phases) != len(w.phases) {
			t.Fatalf("%s: %d phases, want %d", where, len(g.phases), len(w.phases))
		}
		for k := range w.phases {
			gp, wp := g.phases[k], w.phases[k]
			if d := curveDiff(gp.hull, wp.hull); d != "" {
				t.Fatalf("%s: phase %d hull %s", where, k, d)
			}
			if bitsDiffer(gp.baseCPI, wp.baseCPI) || bitsDiffer(gp.apki, wp.apki) || gp.prefBRRIP != wp.prefBRRIP {
				t.Fatalf("%s: phase %d model inputs differ", where, k)
			}
		}
		if (g.queue == nil) != (w.queue == nil) {
			t.Fatalf("%s: queue presence differs", where)
		}
		if w.queue == nil {
			continue
		}
		gq, wq := g.queue, w.queue
		if bitsDiffer(gq.workKI, wq.workKI) || bitsDiffer(gq.lambda, wq.lambda) || bitsDiffer(gq.deadline, wq.deadline) {
			t.Fatalf("%s: workKI/lambda/deadline = %v/%v/%v, want %v/%v/%v",
				where, gq.workKI, gq.lambda, gq.deadline, wq.workKI, wq.lambda, wq.deadline)
		}
		// The per-app queue keeps its own seed: the next epoch matches.
		gl := gq.sim.RunEpochAppend(nil, cfg.EpochCycles(), 1e5)
		wl := wq.sim.RunEpochAppend(nil, cfg.EpochCycles(), 1e5)
		if len(gl) != len(wl) {
			t.Fatalf("%s: queue sims diverge", where)
		}
		for k := range wl {
			if bitsDiffer(gl[k], wl[k]) {
				t.Fatalf("%s: queue sims diverge at request %d", where, k)
			}
		}
	}
}

// assertHullsShared checks that apps (and phases) of one profile share one
// hull backing array, and that at least one pair of apps does.
func assertHullsShared(t *testing.T, name string, wl Workload, apps []*appState) {
	t.Helper()
	first := map[any]*float64{}
	shared := 0
	check := func(key any, h mrc.Curve) {
		if p, ok := first[key]; !ok {
			first[key] = &h.M[0]
		} else if p != &h.M[0] {
			t.Fatalf("%s: two apps of profile %v hold separate hulls", name, key)
		} else {
			shared++
		}
	}
	for i, ac := range wl.Apps {
		if ac.LatCrit != nil {
			check(*ac.LatCrit, apps[i].hull)
			continue
		}
		check(*ac.Batch, apps[i].hull)
		for k, ph := range ac.BatchPhases {
			check(*ph, apps[i].phases[k].hull)
		}
	}
	if shared == 0 {
		t.Fatalf("%s: no two apps share a hull", name)
	}
}

// hullWatch is a placer wrapper that checks every input curve against the
// per-app reference hulls on each call and keeps each curve it saw, so the
// caller can check after the run that nothing wrote into the shared hulls.
type hullWatch struct {
	core.Placer
	t    *testing.T
	want []*appState
	seen map[*float64]int // hull backing → app it was seen for
	bad  int              // inputs that differed from the reference (chaos faults)
	keep []mrc.Curve
}

func (w *hullWatch) Place(in *core.Input) *core.Placement {
	corrupt := 0
	for i, spec := range in.Apps {
		if curveDiff(spec.MissRatio, w.want[i].hull) != "" {
			corrupt++
			continue
		}
		if _, ok := w.seen[&spec.MissRatio.M[0]]; !ok {
			w.seen[&spec.MissRatio.M[0]] = i
			w.keep = append(w.keep, spec.MissRatio)
		}
	}
	// A chaos curve fault corrupts one app's private copy per firing; a
	// write into a shared hull would show in every app holding it.
	if corrupt > 1 {
		w.t.Errorf("%s: %d apps' input curves differ from their hulls in one placement", w.Placer.Name(), corrupt)
	}
	w.bad += corrupt
	return w.Placer.Place(in)
}

// TestRunLeavesSharedHullsIntact runs the five designs, plain and under
// each curve chaos fault, over a workload whose apps share hulls, and checks
// every placement saw the reference hulls and no shared hull changed.
func TestRunLeavesSharedHullsIntact(t *testing.T) {
	designs := []core.Placer{core.StaticPlacer{}, core.AdaptivePlacer{}, core.VMPartPlacer{},
		core.JigsawPlacer{}, core.JumanjiPlacer{}}
	faults := []chaos.Fault{"", chaos.CurveNaN, chaos.CurveNegative, chaos.CurveNonMonotone}
	cfg, wl := caseStudy(t, 1, true)
	want := buildStatesReference(cfg, wl)
	for _, f := range faults {
		for _, d := range designs {
			c := cfg
			if f != "" {
				c.Chaos = chaos.New(7).Arm(f, 0.5)
			}
			w := &hullWatch{Placer: d, t: t, want: want, seen: map[*float64]int{}}
			if f == "" {
				Run(c, wl, w, 12, 2)
			} else {
				func() {
					// A corrupt curve may stop a placer; the checks below
					// hold for every placement made before that.
					defer func() { _ = recover() }()
					Run(c, wl, w, 12, 2)
				}()
			}
			if (w.bad > 0) != (f != "") {
				t.Errorf("%s/%s: %d input curves differ from their hulls", d.Name(), f, w.bad)
			}
			if len(w.keep) == 0 {
				t.Fatalf("%s/%s: no placement saw a clean hull", d.Name(), f)
			}
			for _, h := range w.keep {
				app := w.seen[&h.M[0]]
				if diff := curveDiff(h, want[app].hull); diff != "" {
					t.Errorf("%s/%s: app %d's shared hull changed during the run: %s", d.Name(), f, app, diff)
				}
			}
		}
	}
}
