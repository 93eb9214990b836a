package jumanji

import (
	"strings"
	"testing"
)

func fastOptions() Options {
	opts := DefaultOptions()
	opts.Epochs = 24
	opts.Warmup = 8
	return opts
}

func TestDesignNamesAndParse(t *testing.T) {
	for _, d := range AllDesigns() {
		if d.String() == "" || strings.HasPrefix(d.String(), "Design(") {
			t.Errorf("design %d has no name", int(d))
		}
		got, err := ParseDesign(d.String())
		if err != nil || got != d {
			t.Errorf("ParseDesign(%q) = %v, %v", d.String(), got, err)
		}
	}
	if _, err := ParseDesign("nope"); err == nil {
		t.Error("ParseDesign accepted garbage")
	}
	for _, alias := range []string{"vmpart", "insecure", "ideal"} {
		if _, err := ParseDesign(alias); err != nil {
			t.Errorf("alias %q rejected: %v", alias, err)
		}
	}
}

func TestAppListings(t *testing.T) {
	if len(LatCritApps()) != 5 {
		t.Errorf("LatCritApps = %v", LatCritApps())
	}
	if len(BatchApps()) != 16 {
		t.Errorf("BatchApps has %d entries", len(BatchApps()))
	}
}

func TestOptionsValidation(t *testing.T) {
	bad := []func(*Options){
		func(o *Options) { o.MeshW = 0 },
		func(o *Options) { o.BankMB = 0 },
		func(o *Options) { o.Ways = 0 },
		func(o *Options) { o.RouterDelay = 0 },
		func(o *Options) { o.Warmup = o.Epochs },
	}
	for i, mutate := range bad {
		opts := DefaultOptions()
		mutate(&opts)
		if _, err := Run(opts, CaseStudy("xapian", 1), Jumanji); err == nil {
			t.Errorf("bad options case %d accepted", i)
		}
	}
}

func TestRunSmoke(t *testing.T) {
	r, err := Run(fastOptions(), CaseStudy("xapian", 1), Jumanji)
	if err != nil {
		t.Fatal(err)
	}
	if r.Design != Jumanji {
		t.Errorf("Design = %v", r.Design)
	}
	if len(r.Apps) != 20 {
		t.Errorf("Apps = %d", len(r.Apps))
	}
	if r.Vulnerability != 0 {
		t.Errorf("Jumanji vulnerability = %v", r.Vulnerability)
	}
	if !r.MeetsDeadlines(1.5) {
		t.Errorf("WorstNormTail = %v", r.WorstNormTail)
	}
	if len(r.Timeline) != fastOptions().Epochs {
		t.Errorf("timeline = %d points", len(r.Timeline))
	}
	if r.Energy.Total() <= 0 {
		t.Error("no energy recorded")
	}
}

func TestCompareFillsSpeedup(t *testing.T) {
	results, err := Compare(fastOptions(), CaseStudy("xapian", 2), Static, Jumanji, Jigsaw)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d results", len(results))
	}
	if results[0].SpeedupVsStatic != 1 {
		t.Errorf("Static vs itself = %v", results[0].SpeedupVsStatic)
	}
	for _, r := range results[1:] {
		if r.SpeedupVsStatic <= 1 {
			t.Errorf("%s speedup vs static = %v, want > 1", r.Design, r.SpeedupVsStatic)
		}
	}
}

func TestCompareImplicitBaseline(t *testing.T) {
	results, err := Compare(fastOptions(), CaseStudy("silo", 3), Jumanji)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].SpeedupVsStatic == 0 {
		t.Error("implicit Static baseline not applied")
	}
}

func TestUnknownApps(t *testing.T) {
	if _, err := Run(fastOptions(), CaseStudy("redis", 1), Jumanji); err == nil {
		t.Error("unknown LC app accepted")
	}
	if _, err := NewWorkload(fastOptions(), []VM{{Batch: []string{"999.bogus"}}}, 1); err == nil {
		t.Error("unknown batch app accepted")
	}
}

func TestNewWorkloadRandomBatch(t *testing.T) {
	opts := fastOptions()
	wl, err := NewWorkload(opts, []VM{
		{LatCrit: []string{"xapian"}, Batch: []string{"random", "429.mcf"}},
		{Batch: []string{"470.lbm", "random"}},
	}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(wl.inner.Apps) != 5 {
		t.Errorf("workload has %d apps", len(wl.inner.Apps))
	}
	if r := runInner(opts, wl, Jumanji); !r.MeetsDeadlines(1.5) {
		t.Errorf("tail = %v", r.WorstNormTail)
	}
}

func TestScalingBuilders(t *testing.T) {
	for _, n := range []int{1, 4, 12} {
		if _, err := Run(fastOptions(), Scaling(n, 5), Jumanji); err != nil {
			t.Errorf("Scaling(%d): %v", n, err)
		}
	}
	if _, err := Run(fastOptions(), Scaling(7, 5), Jumanji); err == nil {
		t.Error("Scaling(7) should fail")
	}
}

func TestMixedCaseStudy(t *testing.T) {
	r, err := Run(fastOptions(), MixedCaseStudy(11), Jumanji)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, a := range r.Apps {
		if a.LatencyCritical {
			names[a.Name] = true
		}
	}
	if len(names) != 4 {
		t.Errorf("mixed workload has %d distinct LC apps, want 4", len(names))
	}
}

func TestTailVsAllocation(t *testing.T) {
	opts := fastOptions()
	pts, err := TailVsAllocation(opts, "xapian", []float64{0.5, 2, 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	// Small allocations hurt; large ones are comfortable; D-NUCA never
	// clearly worse than S-NUCA.
	if pts[0].NormTailSNUCA < pts[2].NormTailSNUCA {
		t.Error("tail should fall with allocation")
	}
	if pts[2].NormTailSNUCA > 1.1 {
		t.Errorf("6 MB S-NUCA tail = %v", pts[2].NormTailSNUCA)
	}
	for _, p := range pts {
		if p.NormTailDNUCA > p.NormTailSNUCA*1.2 {
			t.Errorf("D-NUCA clearly worse at %.1f MB: %v vs %v", p.AllocMB, p.NormTailDNUCA, p.NormTailSNUCA)
		}
	}
	if _, err := TailVsAllocation(opts, "xapian", nil); err == nil {
		t.Error("empty sweep accepted")
	}
	if _, err := TailVsAllocation(opts, "xapian", []float64{-1}); err == nil {
		t.Error("negative allocation accepted")
	}
}

func TestPortAttackDemoAPI(t *testing.T) {
	rep := PortAttackDemo(true)
	if len(rep.Samples) == 0 {
		t.Fatal("no samples")
	}
	if !(rep.SameBank > rep.OtherBank && rep.OtherBank > rep.Idle) {
		t.Errorf("attack signal out of order: %+v", rep)
	}
	quiet := PortAttackDemo(false)
	if quiet.SameBank != 0 {
		t.Error("victimless run should have no same-bank samples")
	}
}

func TestMigrateAPI(t *testing.T) {
	opts := fastOptions()
	base := func(o Options) (Workload, error) {
		return NewWorkload(o, []VM{{LatCrit: []string{"xapian"}, Batch: []string{"429.mcf"}}}, 1)
	}
	r, err := Run(opts, Migrate(base, 10, 0, 19), Jumanji)
	if err != nil {
		t.Fatal(err)
	}
	if r.Apps[0].MeanHops > 2 {
		t.Errorf("allocation did not follow the migrated thread: %.2f hops", r.Apps[0].MeanHops)
	}
	if _, err := Run(opts, Migrate(base, 10, 9, 0), Jumanji); err == nil {
		t.Error("migration of unknown app accepted")
	}
}

func TestAllDesignsRunViaAPI(t *testing.T) {
	opts := DefaultOptions()
	opts.Epochs, opts.Warmup = 12, 4
	results, err := Compare(opts, CaseStudy("silo", 4), AllDesigns()...)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(AllDesigns()) {
		t.Fatalf("%d results", len(results))
	}
	for _, r := range results {
		if r.SpeedupVsStatic <= 0 {
			t.Errorf("%s: speedup %v", r.Design, r.SpeedupVsStatic)
		}
	}
}
