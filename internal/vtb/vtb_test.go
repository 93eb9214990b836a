package vtb

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"jumanji/internal/topo"
)

func TestNewDescriptorExactProportions(t *testing.T) {
	d := NewDescriptor(map[topo.TileID]float64{0: 1, 1: 1})
	shares := d.Shares()
	if shares[0] != 0.5 || shares[1] != 0.5 {
		t.Errorf("shares = %v, want 0.5/0.5", shares)
	}
}

func TestNewDescriptorRounding(t *testing.T) {
	// Three equal shares cannot divide 128 evenly; counts must be 43/43/42
	// in some order and total 128.
	d := NewDescriptor(map[topo.TileID]float64{0: 1, 1: 1, 2: 1})
	counts := map[topo.TileID]int{}
	for _, b := range d {
		counts[b]++
	}
	total := 0
	for b, c := range counts {
		if c != 42 && c != 43 {
			t.Errorf("bank %d has %d entries, want 42 or 43", b, c)
		}
		total += c
	}
	if total != DescriptorEntries {
		t.Errorf("total entries = %d", total)
	}
}

func TestNewDescriptorDropsZeroShares(t *testing.T) {
	d := NewDescriptor(map[topo.TileID]float64{3: 1, 9: 0})
	for i, b := range d {
		if b != 3 {
			t.Fatalf("entry %d = %d, want 3", i, b)
		}
	}
}

func TestNewDescriptorPanics(t *testing.T) {
	cases := []map[topo.TileID]float64{
		{},
		{1: 0},
		{1: -1},
	}
	for i, shares := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			NewDescriptor(shares)
		}()
	}
}

func TestNewDescriptorDeterministic(t *testing.T) {
	shares := map[topo.TileID]float64{0: 0.3, 5: 0.5, 7: 0.2}
	a := NewDescriptor(shares)
	b := NewDescriptor(shares)
	if a != b {
		t.Error("NewDescriptor is not deterministic")
	}
}

func TestDescriptorSharesMatchInput(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		shares := map[topo.TileID]float64{}
		for i, r := range raw {
			if i >= 20 {
				break
			}
			shares[topo.TileID(i)] = float64(r) + 1
		}
		d := NewDescriptor(shares)
		var total float64
		for _, s := range shares {
			total += s
		}
		got := d.Shares()
		for b, s := range shares {
			want := s / total
			// Rounding error bounded by 1 entry.
			if math.Abs(got[b]-want) > 1.0/DescriptorEntries+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBankForUniformity(t *testing.T) {
	// Hashing random addresses through a 50/50 descriptor should split
	// accesses roughly evenly.
	d := NewDescriptor(map[topo.TileID]float64{0: 1, 1: 1})
	rng := rand.New(rand.NewSource(5))
	counts := map[topo.TileID]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[d.BankFor(rng.Uint64()&^63)]++
	}
	ratio := float64(counts[0]) / n
	if ratio < 0.45 || ratio > 0.55 {
		t.Errorf("bank 0 got %.3f of accesses, want ~0.5", ratio)
	}
}

func TestBankForDeterministic(t *testing.T) {
	d := SingleBank(4)
	if d.BankFor(12345) != 4 {
		t.Error("SingleBank must route everything to its bank")
	}
	s := Striped([]topo.TileID{0, 1, 2})
	if got := s.BankFor(999); got != s.BankFor(999) {
		t.Error("BankFor not deterministic")
	}
}

func TestStripedCoversAllBanks(t *testing.T) {
	s := Striped([]topo.TileID{3, 8, 11})
	banks := s.Banks()
	if len(banks) != 3 || banks[0] != 3 || banks[1] != 8 || banks[2] != 11 {
		t.Errorf("Banks = %v", banks)
	}
}

func TestStripedEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Striped(nil) should panic")
		}
	}()
	Striped(nil)
}

func TestMovedLines(t *testing.T) {
	a := SingleBank(0)
	b := SingleBank(0)
	entries, frac := MovedLines(&a, &b)
	if len(entries) != 0 || frac != 0 {
		t.Errorf("identical descriptors moved %d entries", len(entries))
	}
	c := SingleBank(1)
	entries, frac = MovedLines(&a, &c)
	if len(entries) != DescriptorEntries || frac != 1 {
		t.Errorf("full move reported %d entries (frac %v)", len(entries), frac)
	}
}

func TestVTBLookupFlow(t *testing.T) {
	v := New()
	if _, _, ok := v.Lookup(0x1000); ok {
		t.Error("lookup on empty VTB should miss")
	}
	v.MapRange(0x1000, 1, 7)
	if _, _, ok := v.Lookup(0x1000); ok {
		t.Error("lookup without descriptor should miss")
	}
	v.Install(7, SingleBank(3))
	vc, bank, ok := v.Lookup(0x1234) // same page as 0x1000
	if !ok || vc != 7 || bank != 3 {
		t.Errorf("Lookup = vc %d bank %d ok %v", vc, bank, ok)
	}
	if v.Lookups != 3 || v.Misses != 2 {
		t.Errorf("Lookups/Misses = %d/%d, want 3/2", v.Lookups, v.Misses)
	}
}

func TestVTBDefaultVC(t *testing.T) {
	v := New()
	v.SetDefaultVC(2)
	v.Install(2, SingleBank(9))
	_, bank, ok := v.Lookup(0xdeadbeef)
	if !ok || bank != 9 {
		t.Errorf("default VC lookup = bank %d ok %v", bank, ok)
	}
}

func TestVTBPageGranularity(t *testing.T) {
	v := New()
	v.MapRange(0, 1, 1)
	v.Install(1, SingleBank(0))
	v.SetDefaultVC(2)
	v.Install(2, SingleBank(5))
	if _, bank, _ := v.Lookup(PageSize - 1); bank != 0 {
		t.Error("address in mapped page went to wrong VC")
	}
	if _, bank, _ := v.Lookup(PageSize); bank != 5 {
		t.Error("address in next page should use default VC")
	}
}

func TestInstallReplaces(t *testing.T) {
	v := New()
	v.SetDefaultVC(1)
	v.Install(1, SingleBank(0))
	v.Install(1, SingleBank(4))
	_, bank, _ := v.Lookup(64)
	if bank != 4 {
		t.Errorf("descriptor not replaced: bank %d", bank)
	}
	if d, ok := v.Descriptor(1); !ok || d.BankFor(64) != 4 {
		t.Error("Descriptor accessor returned stale data")
	}
}
