package core_test

import (
	"math/rand"
	"testing"

	"jumanji/internal/core"
	"jumanji/internal/system"
	"jumanji/internal/tailbench"
	"jumanji/internal/topo"
)

// TestLazyCurvesMatchEagerOnSystemWorkloads runs the lazy-versus-eager
// curve check (core.LazyCounts) on the placer inputs internal/system builds
// epoch by epoch, with the controllers' real targets, clean and under each
// chaos curve fault. The 5×4 case studies, the mixed workload and three of
// Fig. 17's VM splits check every site on the whole input, as Figs. 13 and
// 17 place them; lookahead mostly grants beyond the minima there. DatacenterWorkload's fleet at 6×6 to
// 16×16 on seeds 1 and 2 is checked the way Fig. 19 places it: VM-Part and
// the region stage on the whole input, Jumanji's bank stage on each
// region's sub-input inside the sharded placer. There lookahead mostly
// cannot grant.
func TestLazyCurvesMatchEagerOnSystemWorkloads(t *testing.T) {
	var c core.LazyCounts
	run := func(m core.Machine, wl system.Workload, err error, p core.Placer) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		cfg := system.DefaultConfig()
		cfg.Machine = m
		system.Run(cfg, wl, p, 2, 1)
	}
	m := core.DefaultMachine()
	flat := core.LazyProbe{T: t, Counts: &c, Inner: core.JumanjiPlacer{}}
	for i, p := range tailbench.Profiles {
		wl, err := system.CaseStudyWorkload(m, p.Name, rand.New(rand.NewSource(int64(i+1))), true)
		run(m, wl, err, flat)
	}
	wl, err := system.MixedLCWorkload(m, rand.New(rand.NewSource(1)), true)
	run(m, wl, err, flat)
	// Fig. 17's splits include VMs with no batch apps (10 and 12 VMs) and
	// one with no latency-critical app (5 VMs).
	for _, n := range []int{5, 10, 12} {
		wl, err := system.ScalingWorkload(m, n, rand.New(rand.NewSource(int64(n))), true)
		run(m, wl, err, flat)
	}
	sharded := core.LazyProbe{T: t, Counts: &c, Sites: []int{core.SiteVMPart, core.SiteRegions},
		Inner: core.ShardedPlacer{
			Inner: core.LazyProbe{T: t, Counts: &c, Sites: []int{core.SiteBanks}, Inner: core.JumanjiPlacer{}},
		}}
	for _, dim := range []int{6, 8, 12, 16} {
		for _, seed := range []int64{1, 2} {
			m := core.Machine{Mesh: topo.NewMesh(dim, dim), BankBytes: 1 << 20, WaysPerBank: 32}
			wl, err := system.DatacenterWorkload(m, rand.New(rand.NewSource(seed)), true)
			run(m, wl, err, sharded)
		}
	}
	t.Logf("curves skipped %v, built %v (VM-Part, bank stage, region stage)", c.Skipped, c.Built)
	c.RequireBothBranches(t)
}
