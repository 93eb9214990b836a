package system

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"jumanji/internal/core"
	"jumanji/internal/sim"
	"jumanji/internal/topo"
	"jumanji/internal/workload"
)

const (
	testEpochs = 60
	testWarmup = 20
)

func caseStudy(t *testing.T, seed int64, highLoad bool) (Config, Workload) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = seed
	rng := rand.New(rand.NewSource(seed))
	wl, err := CaseStudyWorkload(cfg.Machine, "xapian", rng, highLoad)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, wl
}

func TestWorkloadBuilders(t *testing.T) {
	m := core.DefaultMachine()
	rng := rand.New(rand.NewSource(1))
	wl, err := CaseStudyWorkload(m, "xapian", rng, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(wl.Apps) != 20 {
		t.Fatalf("case study has %d apps, want 20", len(wl.Apps))
	}
	nLC := 0
	vms := map[core.VMID]int{}
	for _, a := range wl.Apps {
		if a.LatCrit != nil {
			nLC++
		}
		vms[a.VM]++
	}
	if nLC != 4 || len(vms) != 4 {
		t.Errorf("LC = %d, VMs = %d; want 4 and 4", nLC, len(vms))
	}
	if err := wl.Validate(m); err != nil {
		t.Error(err)
	}
	if _, err := CaseStudyWorkload(m, "no-such-app", rng, true); err == nil {
		t.Error("unknown LC app accepted")
	}
}

// DatacenterWorkload refuses a mesh below its four-VM minimum with the same
// error BuildVMWorkload gives, instead of running out of cores mid-build.
func TestDatacenterWorkloadTooSmall(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {4, 4}} {
		m := core.DefaultMachine()
		m.Mesh = topo.NewMesh(dims[0], dims[1])
		_, err := DatacenterWorkload(m, rand.New(rand.NewSource(1)), true)
		want := fmt.Sprintf("system: 20 apps exceed %d cores", dims[0]*dims[1])
		if err == nil || err.Error() != want {
			t.Errorf("%dx%d mesh: err = %v, want %q", dims[0], dims[1], err, want)
		}
	}
	wl, err := DatacenterWorkload(core.DefaultMachine(), rand.New(rand.NewSource(1)), true)
	if err != nil || len(wl.Apps) != 20 {
		t.Fatalf("5x4 mesh: %d apps, err %v; want 20 apps", len(wl.Apps), err)
	}
}

func TestScalingWorkloadConfigs(t *testing.T) {
	m := core.DefaultMachine()
	for _, n := range []int{1, 2, 4, 5, 10, 12} {
		rng := rand.New(rand.NewSource(3))
		wl, err := ScalingWorkload(m, n, rng, true)
		if err != nil {
			t.Fatalf("nVMs=%d: %v", n, err)
		}
		if len(wl.Apps) != 20 {
			t.Errorf("nVMs=%d: %d apps, want 20", n, len(wl.Apps))
		}
		vms := map[core.VMID]bool{}
		for _, a := range wl.Apps {
			vms[a.VM] = true
		}
		if len(vms) != n {
			t.Errorf("nVMs=%d: built %d VMs", n, len(vms))
		}
	}
	rng := rand.New(rand.NewSource(3))
	if _, err := ScalingWorkload(m, 7, rng, true); err == nil {
		t.Error("unsupported VM count accepted")
	}
}

func TestDistinctCores(t *testing.T) {
	m := core.DefaultMachine()
	rng := rand.New(rand.NewSource(5))
	wl, _ := MixedLCWorkload(m, rng, true)
	seen := map[int]bool{}
	for _, a := range wl.Apps {
		if seen[int(a.Core)] {
			t.Fatalf("core %d assigned twice", a.Core)
		}
		seen[int(a.Core)] = true
	}
}

// TestHeadlineResults asserts the paper's central qualitative claims on the
// case-study workload at high load (Fig. 5):
//   - tail-aware designs (Adaptive, VM-Part, Jumanji) meet deadlines;
//   - Jigsaw violates them badly;
//   - D-NUCAs (Jigsaw, Jumanji) get significant batch speedup over Static;
//   - S-NUCAs (Adaptive, VM-Part) get little;
//   - Jumanji and Jigsaw have far lower vulnerability than S-NUCA designs,
//     and Jumanji's is exactly zero.
func TestHeadlineResults(t *testing.T) {
	cfg, wl := caseStudy(t, 42, true)
	run := func(p core.Placer) *RunResult { return Run(cfg, wl, p, testEpochs, testWarmup) }

	static := run(core.StaticPlacer{})
	adaptive := run(core.AdaptivePlacer{})
	vmpart := run(core.VMPartPlacer{})
	jigsaw := run(core.JigsawPlacer{})
	jumanji := run(core.JumanjiPlacer{})

	// Deadlines: normalized tails ≤ ~1 for tail-aware designs.
	for _, r := range []*RunResult{static, adaptive, vmpart, jumanji} {
		if r.WorstNormTail > 1.3 {
			t.Errorf("%s: worst normalized tail %.2f, expected deadline met", r.Design, r.WorstNormTail)
		}
	}
	if jigsaw.WorstNormTail < 3 {
		t.Errorf("Jigsaw worst tail %.2f, expected a large violation", jigsaw.WorstNormTail)
	}

	// Batch speedups relative to Static.
	sp := func(r *RunResult) float64 { return r.BatchWeightedSpeedup / static.BatchWeightedSpeedup }
	if s := sp(jumanji); s < 1.05 {
		t.Errorf("Jumanji speedup %.3f, want > 1.05", s)
	}
	if s := sp(jigsaw); s < 1.05 {
		t.Errorf("Jigsaw speedup %.3f, want > 1.05", s)
	}
	if s := sp(adaptive); s > 1.08 {
		t.Errorf("Adaptive speedup %.3f, expected small", s)
	}
	if s := sp(vmpart); s > sp(adaptive)+0.02 {
		t.Errorf("VM-Part speedup %.3f should not beat Adaptive's %.3f", sp(vmpart), sp(adaptive))
	}

	// Vulnerability (Fig. 14): S-NUCA designs expose all 15 untrusted apps.
	for _, r := range []*RunResult{adaptive, vmpart} {
		if r.Vulnerability < 14.5 {
			t.Errorf("%s vulnerability %.2f, want ≈15", r.Design, r.Vulnerability)
		}
	}
	if jigsaw.Vulnerability > 5 {
		t.Errorf("Jigsaw vulnerability %.2f, want small (heuristic isolation)", jigsaw.Vulnerability)
	}
	if jumanji.Vulnerability != 0 {
		t.Errorf("Jumanji vulnerability %.4f, want exactly 0", jumanji.Vulnerability)
	}
}

func TestJumanjiCloseToIdealAndInsecure(t *testing.T) {
	cfg, wl := caseStudy(t, 7, true)
	jumanji := Run(cfg, wl, core.JumanjiPlacer{}, testEpochs, testWarmup)
	insecure := Run(cfg, wl, core.JumanjiPlacer{Insecure: true}, testEpochs, testWarmup)
	ideal := Run(cfg, wl, core.IdealBatchPlacer{}, testEpochs, testWarmup)

	if jumanji.BatchWeightedSpeedup > insecure.BatchWeightedSpeedup*1.02 {
		t.Errorf("Jumanji (%.3f) should not beat Insecure (%.3f)",
			jumanji.BatchWeightedSpeedup, insecure.BatchWeightedSpeedup)
	}
	if jumanji.BatchWeightedSpeedup < 0.9*ideal.BatchWeightedSpeedup {
		t.Errorf("Jumanji (%.3f) more than 10%% behind Ideal Batch (%.3f)",
			jumanji.BatchWeightedSpeedup, ideal.BatchWeightedSpeedup)
	}
	if ideal.Vulnerability != 0 {
		t.Errorf("Ideal Batch vulnerability %.3f, want 0", ideal.Vulnerability)
	}
	if ideal.WorstNormTail > 1.3 {
		t.Errorf("Ideal Batch violates deadlines: %.2f", ideal.WorstNormTail)
	}
}

func TestDNUCAReducesEnergy(t *testing.T) {
	cfg, wl := caseStudy(t, 11, true)
	static := Run(cfg, wl, core.StaticPlacer{}, testEpochs, testWarmup)
	jumanji := Run(cfg, wl, core.JumanjiPlacer{}, testEpochs, testWarmup)
	// Compare energy per instruction (runs execute different work).
	eStatic := static.Energy.Total()
	eJumanji := jumanji.Energy.Total()
	// Jumanji executes at least as many instructions with less NoC+memory
	// energy per access; its NoC energy share must be clearly lower.
	if jumanji.Energy.NoC/eJumanji >= static.Energy.NoC/eStatic {
		t.Errorf("Jumanji NoC energy share (%.3f) not below Static's (%.3f)",
			jumanji.Energy.NoC/eJumanji, static.Energy.NoC/eStatic)
	}
}

func TestLowLoadStillMeetsDeadlines(t *testing.T) {
	cfg, wl := caseStudy(t, 13, false)
	jumanji := Run(cfg, wl, core.JumanjiPlacer{}, testEpochs, testWarmup)
	if jumanji.WorstNormTail > 1.3 {
		t.Errorf("Jumanji at low load violates deadlines: %.2f", jumanji.WorstNormTail)
	}
}

func TestTimelineShape(t *testing.T) {
	cfg, wl := caseStudy(t, 17, true)
	r := Run(cfg, wl, core.JumanjiPlacer{}, 10, 2)
	if len(r.Timeline) != 10 {
		t.Fatalf("timeline length %d", len(r.Timeline))
	}
	lcSeen := false
	for _, s := range r.Timeline[5:] {
		if len(s.AllocMB) != 20 {
			t.Fatalf("AllocMB has %d entries", len(s.AllocMB))
		}
		if len(s.LatNorm) > 0 {
			lcSeen = true
		}
	}
	if !lcSeen {
		t.Error("no latency-critical samples in timeline")
	}
}

func TestRunValidation(t *testing.T) {
	cfg, wl := caseStudy(t, 19, true)
	assertPanics(t, func() { Run(cfg, wl, core.JumanjiPlacer{}, 0, 0) })
	assertPanics(t, func() { Run(cfg, wl, core.JumanjiPlacer{}, 10, 10) })
	assertPanics(t, func() { Run(cfg, Workload{}, core.JumanjiPlacer{}, 10, 1) })
	bad := cfg
	bad.MemLatency = 0
	assertPanics(t, func() { Run(bad, wl, core.JumanjiPlacer{}, 10, 1) })
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestRunDeterministic(t *testing.T) {
	cfg, wl := caseStudy(t, 23, true)
	a := Run(cfg, wl, core.JumanjiPlacer{}, 20, 5)
	b := Run(cfg, wl, core.JumanjiPlacer{}, 20, 5)
	if a.BatchWeightedSpeedup != b.BatchWeightedSpeedup || a.WorstNormTail != b.WorstNormTail {
		t.Error("Run is not deterministic for identical seeds")
	}
}

func TestBatchOnlyWorkload(t *testing.T) {
	m := core.DefaultMachine()
	mix := workload.RandomMix(rand.New(rand.NewSource(31)), 8)
	wl, err := BuildVMWorkload(m, []VMSpec{{Batch: 4}, {Batch: 4}}, mix, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	r := Run(cfg, wl, core.JumanjiPlacer{}, 10, 2)
	if r.WorstNormTail != 0 {
		t.Error("batch-only workload has no tails")
	}
	if r.BatchWeightedSpeedup <= 0 {
		t.Error("no batch speedup recorded")
	}
}

func TestFig8ShapeTailVsAllocation(t *testing.T) {
	// xapian alone: sweep fixed allocations S-NUCA vs D-NUCA. D-NUCA must
	// meet the deadline with less space, and small allocations must blow
	// the tail up dramatically (Fig. 8).
	m := core.DefaultMachine()
	cfg := DefaultConfig()
	cfg.Seed = 37
	wl, err := BuildVMWorkload(m, []VMSpec{{LatCrit: []string{"xapian"}}}, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	tailAt := func(nearest bool, mb float64) float64 {
		r := RunFixedLat(cfg, wl, mb*(1<<20), nearest, 40, 10)
		return r.Apps[0].NormTail
	}
	// Large allocation: comfortable either way.
	if tl := tailAt(false, 6); tl > 1.0 {
		t.Errorf("S-NUCA 6 MB tail %.2f, want < 1", tl)
	}
	// Starved allocation: S-NUCA tail explodes.
	small := tailAt(false, 0.25)
	if small < 3 {
		t.Errorf("S-NUCA 0.25 MB tail %.2f, want large", small)
	}
	// Crossover: a mid-size allocation that S-NUCA cannot satisfy but
	// D-NUCA can.
	found := false
	for _, mb := range []float64{1.5, 2, 2.5, 3} {
		s, d := tailAt(false, mb), tailAt(true, mb)
		if d <= 1.0 && s > 1.0 {
			found = true
			break
		}
		if d > s+0.3 {
			t.Errorf("D-NUCA tail (%.2f) worse than S-NUCA (%.2f) at %.1f MB", d, s, mb)
		}
	}
	if !found {
		t.Error("no allocation where D-NUCA meets the deadline and S-NUCA does not (Fig. 8 gap missing)")
	}
}

func TestNoCSensitivityDirection(t *testing.T) {
	// Fig. 18: Jumanji's advantage grows with router delay.
	base, wl := caseStudy(t, 41, true)
	speedup := func(router int64) float64 {
		cfg := base
		cfg.NoC.RouterDelay = sim.Time(router)
		st := Run(cfg, wl, core.StaticPlacer{}, testEpochs, testWarmup)
		ju := Run(cfg, wl, core.JumanjiPlacer{}, testEpochs, testWarmup)
		return ju.BatchWeightedSpeedup / st.BatchWeightedSpeedup
	}
	s1, s3 := speedup(1), speedup(3)
	if s3 <= s1 {
		t.Errorf("speedup at 3-cycle routers (%.3f) not above 1-cycle (%.3f)", s3, s1)
	}
}

func TestVulnerabilityBounds(t *testing.T) {
	cfg, wl := caseStudy(t, 43, true)
	for _, p := range []core.Placer{core.StaticPlacer{}, core.AdaptivePlacer{}, core.JigsawPlacer{}, core.JumanjiPlacer{}} {
		r := Run(cfg, wl, p, 10, 2)
		if r.Vulnerability < 0 || r.Vulnerability > 19 {
			t.Errorf("%s: vulnerability %.2f out of bounds", p.Name(), r.Vulnerability)
		}
		if math.IsNaN(r.Vulnerability) {
			t.Errorf("%s: vulnerability NaN", p.Name())
		}
	}
}

func TestThreadMigrationMovesAllocation(t *testing.T) {
	// Sec. IV-B: when a thread migrates, its LLC allocation follows at the
	// next reconfiguration. Move a latency-critical app from corner 0 to
	// corner 19 mid-run: under Jumanji its data must end up near core 19,
	// and the tail must stay met.
	cfg, wl := caseStudy(t, 51, true)
	lcApp := -1
	for i, a := range wl.Apps {
		if a.LatCrit != nil && a.Core == 0 {
			lcApp = i
			break
		}
	}
	if lcApp < 0 {
		t.Fatal("no LC app on core 0")
	}
	const migEpoch = 30
	wl.Migrations = []Migration{{Epoch: migEpoch, App: lcApp, To: 19}}
	r := Run(cfg, wl, core.JumanjiPlacer{}, testEpochs, migEpoch+5)
	// Post-warmup stats cover only the post-migration period: the app's
	// mean hop distance must be small relative to its NEW core, which the
	// AppResult reports via MeanHops (computed against the current core).
	ar := r.Apps[lcApp]
	if ar.MeanHops > 1.5 {
		t.Errorf("migrated app's data is %.2f hops away — allocation did not follow", ar.MeanHops)
	}
	if ar.NormTail > 1.5 {
		t.Errorf("migrated app violates its deadline: %.2f", ar.NormTail)
	}
	if r.Timeline[migEpoch+3].LatNorm[lcApp] <= 0 {
		t.Error("migrated app stopped completing requests after the move")
	}
}

func TestMigrationValidation(t *testing.T) {
	cfg, wl := caseStudy(t, 53, true)
	wl.Migrations = []Migration{{Epoch: 1, App: 99, To: 0}}
	assertPanics(t, func() { Run(cfg, wl, core.JumanjiPlacer{}, 10, 2) })
	wl.Migrations = []Migration{{Epoch: 1, App: 0, To: 99}}
	assertPanics(t, func() { Run(cfg, wl, core.JumanjiPlacer{}, 10, 2) })
	wl.Migrations = []Migration{{Epoch: -1, App: 0, To: 0}}
	assertPanics(t, func() { Run(cfg, wl, core.JumanjiPlacer{}, 10, 2) })
}

func TestQueueLengthControlMeetsDeadlines(t *testing.T) {
	// The Sec. V-C alternative control signal: queue depth instead of tail
	// latency. It should also keep deadlines under Jumanji.
	cfg, wl := caseStudy(t, 57, true)
	cfg.QueueControl = true
	r := Run(cfg, wl, core.JumanjiPlacer{}, testEpochs, testWarmup)
	if r.WorstNormTail > 1.5 {
		t.Errorf("queue-length control violates deadlines: %.2f", r.WorstNormTail)
	}
	if r.Vulnerability != 0 {
		t.Errorf("vulnerability = %v", r.Vulnerability)
	}
}

func TestReconfigCostCharged(t *testing.T) {
	// Disabling the movement cost should never make results worse; stable
	// designs (Static) should be unaffected either way.
	cfg, wl := caseStudy(t, 59, true)
	withCost := Run(cfg, wl, core.StaticPlacer{}, 30, 10)
	cfg2 := cfg
	cfg2.ReconfigCost = false
	without := Run(cfg2, wl, core.StaticPlacer{}, 30, 10)
	if math.Abs(withCost.BatchWeightedSpeedup-without.BatchWeightedSpeedup) > 1e-9 {
		t.Errorf("Static pays a movement cost (%.4f vs %.4f) despite never moving data",
			withCost.BatchWeightedSpeedup, without.BatchWeightedSpeedup)
	}
	// Jumanji moves data occasionally; the cost must be small, not crippling.
	ju := Run(cfg, wl, core.JumanjiPlacer{}, 30, 10)
	juFree := Run(cfg2, wl, core.JumanjiPlacer{}, 30, 10)
	if ju.BatchWeightedSpeedup < 0.97*juFree.BatchWeightedSpeedup {
		t.Errorf("movement cost crippled Jumanji: %.3f vs %.3f",
			ju.BatchWeightedSpeedup, juFree.BatchWeightedSpeedup)
	}
}

func TestPhasedBatchApp(t *testing.T) {
	// A batch app alternating between a cache-hungry phase and a streaming
	// phase: with per-epoch reconfiguration the placer tracks the phases;
	// with a frozen placement (reconfigure every 1000 epochs) it cannot.
	m := core.DefaultMachine()
	hungry, _ := workload.ByName("471.omnetpp")
	stream, _ := workload.ByName("470.lbm")
	mix := workload.RandomMix(rand.New(rand.NewSource(61)), 8)
	wl, err := BuildVMWorkload(m, []VMSpec{{Batch: 4}, {Batch: 4}}, mix, true)
	if err != nil {
		t.Fatal(err)
	}
	wl.Apps[0].BatchPhases = []*workload.Profile{&hungry, &stream}
	wl.Apps[0].PhaseEpochs = 8
	if err := wl.Validate(m); err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.Seed = 61
	adaptive := Run(cfg, wl, core.JumanjiPlacer{}, 64, 16)
	frozen := cfg
	frozen.ReconfigEpochs = 1000 // place once, never adapt
	static := Run(frozen, wl, core.JumanjiPlacer{}, 64, 16)
	if adaptive.BatchWeightedSpeedup <= static.BatchWeightedSpeedup {
		t.Errorf("per-epoch reconfiguration (%.3f) should beat a frozen placement (%.3f) on phased workloads",
			adaptive.BatchWeightedSpeedup, static.BatchWeightedSpeedup)
	}
}

func TestPhaseValidation(t *testing.T) {
	m := core.DefaultMachine()
	mix := workload.RandomMix(rand.New(rand.NewSource(1)), 4)
	wl, _ := BuildVMWorkload(m, []VMSpec{{Batch: 4}}, mix, true)
	p := mix[0]
	wl.Apps[0].BatchPhases = []*workload.Profile{&p}
	if err := wl.Validate(m); err == nil {
		t.Error("phases without PhaseEpochs accepted")
	}
	wl.Apps[0].PhaseEpochs = 4
	if err := wl.Validate(m); err != nil {
		t.Errorf("valid phased app rejected: %v", err)
	}
}

func TestReconfigPeriodInsensitiveOnSteadyWorkload(t *testing.T) {
	// Sec. IV-B: "More frequent reconfigurations do not improve results."
	// On a steady workload, reconfiguring every epoch vs every 5 epochs
	// barely changes batch speedup.
	cfg, wl := caseStudy(t, 63, true)
	every1 := Run(cfg, wl, core.JumanjiPlacer{}, testEpochs, testWarmup)
	cfg5 := cfg
	cfg5.ReconfigEpochs = 5
	every5 := Run(cfg5, wl, core.JumanjiPlacer{}, testEpochs, testWarmup)
	rel := every5.BatchWeightedSpeedup / every1.BatchWeightedSpeedup
	if rel < 0.97 || rel > 1.03 {
		t.Errorf("reconfig period changed speedup by %.1f%% on a steady workload", (rel-1)*100)
	}
}
