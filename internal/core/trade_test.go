package core

import (
	"math"
	"math/rand"
	"testing"

	"jumanji/internal/topo"
)

func TestTradePlacerValidAndIsolated(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 5; trial++ {
		in := testWorkload(4, 4, rng)
		p := &TradePlacer{}
		pl := p.Place(in)
		if err := pl.Validate(in); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !pl.IsVMIsolated(in) {
			t.Fatalf("trial %d: trading broke VM isolation", trial)
		}
	}
}

func TestTradePlacerNeverPenalizesLatencyCritical(t *testing.T) {
	// The strict constraint of Sec. VIII-C: the modeled latency-critical
	// CPI contribution (hit latency + miss × memory latency) must not be
	// worse than under plain Jumanji.
	rng := rand.New(rand.NewSource(37))
	in := testWorkload(4, 4, rng)
	base := JumanjiPlacer{}.Place(in)
	p := &TradePlacer{}
	traded := p.Place(in)
	for _, app := range in.AppendLatCritApps(nil) {
		spec := in.Apps[app]
		cost := func(pl *Placement) float64 {
			hops := pl.AvgHops(app, spec.Core)
			miss := spec.MissRatio.ConvexHull().Eval(pl.TotalOf(app))
			return 2*hops*3 + miss*120
		}
		if cost(traded) > cost(base)+1e-6 {
			t.Errorf("app %d: trading raised latency-critical cost %.3f -> %.3f",
				app, cost(base), cost(traded))
		}
	}
}

func TestTradePlacerConservesBankCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	in := testWorkload(4, 4, rng)
	p := &TradePlacer{}
	pl := p.Place(in)
	for b := 0; b < in.Machine.Banks(); b++ {
		if used := pl.BankUsed(topo.TileID(b)); used > in.Machine.BankBytes*(1+1e-9) {
			t.Fatalf("bank %d over-committed after trading: %g", b, used)
		}
	}
}

func TestTradesAreRare(t *testing.T) {
	// The paper's negative result: under the no-penalty constraint,
	// beneficial trades are rare — the placer behaves like LatCritPlacer.
	rng := rand.New(rand.NewSource(43))
	p := &TradePlacer{}
	epochs := 0
	for trial := 0; trial < 20; trial++ {
		in := testWorkload(4, 4, rng)
		p.Place(in)
		epochs++
	}
	if p.TradesAccepted > p.TradesAttempted {
		t.Fatal("accounting broken")
	}
	acceptRate := float64(p.TradesAccepted) / float64(epochs*4) // 4 LC apps per epoch
	if acceptRate > 0.5 {
		t.Errorf("trades accepted for %.0f%% of latency-critical apps — expected rare (Sec. VIII-C)",
			acceptRate*100)
	}
	t.Logf("trades: %d attempted, %d accepted over %d epochs", p.TradesAttempted, p.TradesAccepted, epochs)
}

func TestTradePlacerMatchesJumanjiWhenNoBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	in := testWorkload(4, 0, rng)
	p := &TradePlacer{}
	traded := p.Place(in)
	base := JumanjiPlacer{}.Place(in)
	for _, app := range in.AppendLatCritApps(nil) {
		if math.Abs(traded.TotalOf(app)-base.TotalOf(app)) > 1 {
			t.Errorf("app %d differs without batch apps present", app)
		}
	}
	if p.TradesAttempted != 0 {
		t.Error("no trades should even be attempted without batch apps")
	}
}
