package workload

import (
	"math/rand"
	"testing"
)

func TestSixteenProfiles(t *testing.T) {
	if len(Profiles) != 16 {
		t.Fatalf("Profiles = %d, want 16 (footnote 1)", len(Profiles))
	}
	seen := map[string]bool{}
	for _, p := range Profiles {
		if seen[p.Name] {
			t.Errorf("duplicate profile %s", p.Name)
		}
		seen[p.Name] = true
		if p.BaseCPI <= 0 || p.APKI < 0 {
			t.Errorf("%s: bad CPI/APKI", p.Name)
		}
		if p.Floor < 0 || p.Floor > 1 {
			t.Errorf("%s: floor %v out of range", p.Name, p.Floor)
		}
	}
}

func TestByName(t *testing.T) {
	if p, ok := ByName("429.mcf"); !ok || p.Name != "429.mcf" {
		t.Error("ByName failed for mcf")
	}
	if _, ok := ByName("999.nope"); ok {
		t.Error("ByName found a nonexistent profile")
	}
}

func TestMissRatioCurvesWellFormed(t *testing.T) {
	unit := float64(32 << 10)
	for _, p := range Profiles {
		c := p.MissRatio(unit, 640)
		for i, v := range c.M {
			if v < 0 || v > 1 {
				t.Fatalf("%s: miss ratio %v at point %d out of [0,1]", p.Name, v, i)
			}
			if i > 0 && v > c.M[i-1]+1e-9 {
				t.Fatalf("%s: miss ratio increases at point %d", p.Name, i)
			}
		}
		if c.M[0] < 0.5 {
			t.Errorf("%s: miss ratio at zero capacity = %v, suspiciously low", p.Name, c.M[0])
		}
	}
}

func TestStreamersAreInsensitive(t *testing.T) {
	for _, name := range []string{"470.lbm", "462.libquantum", "433.milc"} {
		p, _ := ByName(name)
		c := p.MissRatio(32<<10, 640)
		// Doubling from 10 MB to 20 MB buys almost nothing.
		if drop := c.Eval(10<<20) - c.Eval(20<<20); drop > 0.02 {
			t.Errorf("%s: streamer gained %v from 10 MB extra", name, drop)
		}
	}
}

func TestCacheSensitiveAppsBenefit(t *testing.T) {
	for _, name := range []string{"471.omnetpp", "482.sphinx3", "429.mcf"} {
		p, _ := ByName(name)
		c := p.MissRatio(32<<10, 640)
		if drop := c.Eval(1<<20) - c.Eval(16<<20); drop < 0.3 {
			t.Errorf("%s: sensitive app gained only %v from 15 MB extra", name, drop)
		}
	}
}

func TestCliffShape(t *testing.T) {
	p, _ := ByName("436.cactusADM") // 3 MB cliff
	c := p.MissRatio(32<<10, 640)
	before := c.Eval(2 << 20)
	after := c.Eval(4 << 20)
	if before-after < 0.5 {
		t.Errorf("cliff not present: %v -> %v", before, after)
	}
}

func TestRandomMixDeterministic(t *testing.T) {
	a := RandomMix(rand.New(rand.NewSource(42)), 16)
	b := RandomMix(rand.New(rand.NewSource(42)), 16)
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatal("RandomMix not reproducible for equal seeds")
		}
	}
	if len(RandomMix(rand.New(rand.NewSource(1)), 5)) != 5 {
		t.Error("RandomMix wrong length")
	}
}

func TestMissRatioPanics(t *testing.T) {
	p := Profiles[0]
	defer func() {
		if recover() == nil {
			t.Error("expected panic on bad grid")
		}
	}()
	p.MissRatio(0, 10)
}
