package core

import (
	"math"
	"math/rand"
	"testing"

	"jumanji/internal/topo"
)

// requireBitwiseEqual fails unless a and b agree exactly — every per-bank
// float bit-identical (NaNs included), every side table equal — for all
// apps of in.
func requireBitwiseEqual(t testing.TB, in *Input, a, b *Placement, label string) {
	t.Helper()
	for i := range in.Apps {
		app := AppID(i)
		ra, rb := a.AllocRow(app), b.AllocRow(app)
		for bk := 0; bk < in.Machine.Banks(); bk++ {
			var va, vb float64
			if bk < len(ra) {
				va = ra[bk]
			}
			if bk < len(rb) {
				vb = rb[bk]
			}
			if math.Float64bits(va) != math.Float64bits(vb) {
				t.Fatalf("%s: app %d bank %d: %v != %v", label, i, bk, va, vb)
			}
		}
		if a.Unpartitioned(app) != b.Unpartitioned(app) {
			t.Fatalf("%s: app %d Unpartitioned differs", label, i)
		}
		if a.Overlay(app) != b.Overlay(app) {
			t.Fatalf("%s: app %d Overlay differs", label, i)
		}
		if math.Float64bits(a.GroupWays(app)) != math.Float64bits(b.GroupWays(app)) {
			t.Fatalf("%s: app %d GroupWays differs: %v != %v", label, i, a.GroupWays(app), b.GroupWays(app))
		}
		if math.Float64bits(a.TimeShared(app)) != math.Float64bits(b.TimeShared(app)) {
			t.Fatalf("%s: app %d TimeShared differs: %v != %v", label, i, a.TimeShared(app), b.TimeShared(app))
		}
	}
}

// TestShardedSingleRegionBitwiseIdentical is the ISSUE 8 acceptance property:
// with one region the full sharded pipeline (region assignment, sub-input
// construction, merge) must reduce to the identity and reproduce the flat
// placer bit for bit — on the paper's 6×6 mesh and the default 5×4. Inputs
// are randomized across trials, including the controller targets.
func TestShardedSingleRegionBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, dims := range [][2]int{{5, 4}, {6, 6}} {
		m := Machine{Mesh: topo.NewMesh(dims[0], dims[1]), BankBytes: 1 << 20, WaysPerBank: 32}
		for _, inner := range []ScratchPlacer{JumanjiPlacer{}, JumanjiPlacer{Insecure: true}, JigsawPlacer{}} {
			for trial := 0; trial < 8; trial++ {
				in := testWorkloadOn(m, 1+rng.Intn(4), 1+rng.Intn(5), rng)
				for id := range in.LatSizes {
					in.LatSizes[id] = float64(1+rng.Intn(40)) * m.WayBytes()
				}
				flat := inner.Place(in)
				sharded := ShardedPlacer{Inner: inner, RegionW: m.Mesh.W, RegionH: m.Mesh.H}.Place(in)
				requireBitwiseEqual(t, in, flat, sharded, inner.Name())
			}
		}
	}
}

// TestShardedMultiRegionValidAndIsolated checks the real sharded regime: on
// big meshes the placement must stay physically valid, give every app
// capacity, and (for Jumanji) preserve VM isolation globally — regions own
// disjoint banks and each VM lives in exactly one region, so no bank is
// shared across VMs.
func TestShardedMultiRegionValidAndIsolated(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cases := []struct{ w, h, rw, rh int }{
		{8, 8, 4, 4},
		{12, 12, 8, 8},
		{16, 16, 8, 8},
	}
	for _, c := range cases {
		m := Machine{Mesh: topo.NewMesh(c.w, c.h), BankBytes: 1 << 20, WaysPerBank: 32}
		nVMs := m.Banks() / 9
		in := testWorkloadOn(m, nVMs, 4, rng)
		p := ShardedPlacer{Inner: JumanjiPlacer{}, RegionW: c.rw, RegionH: c.rh}
		pl := p.Place(in)
		if err := pl.Validate(in); err != nil {
			t.Fatalf("%dx%d/%dx%d: %v", c.w, c.h, c.rw, c.rh, err)
		}
		if !pl.IsVMIsolated(in) {
			t.Fatalf("%dx%d/%dx%d: sharded Jumanji placement shares a bank across VMs", c.w, c.h, c.rw, c.rh)
		}
		// Every VM's banks must sit inside a single region.
		regs := topo.Partition(m.Mesh, c.rw, c.rh)
		vmRegion := map[VMID]topo.RegionID{}
		for i := range in.Apps {
			banks, _ := pl.BanksOf(AppID(i))
			for _, b := range banks {
				vm := in.Apps[i].VM
				if r, ok := vmRegion[vm]; !ok {
					vmRegion[vm] = regs.RegionOf(b)
				} else if r != regs.RegionOf(b) {
					t.Fatalf("%dx%d/%dx%d: VM %d holds banks in regions %d and %d", c.w, c.h, c.rw, c.rh, vm, r, regs.RegionOf(b))
				}
			}
		}
	}
}

// TestShardedOversubscribedDelegates: with more VMs than banks the sharded
// placer must hand the whole problem to the flat placer's time-multiplexed
// path rather than shard an undecomposable decision.
func TestShardedOversubscribedDelegates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := DefaultMachine()
	in := testWorkloadOn(m, m.Banks()+4, 0, rng)
	p := ShardedPlacer{Inner: JumanjiPlacer{AllowOversubscription: true}, RegionW: 2, RegionH: 2}
	pl := p.Place(in)
	if err := pl.Validate(in); err != nil {
		t.Fatal(err)
	}
	flat := JumanjiPlacer{AllowOversubscription: true}.Place(in)
	requireBitwiseEqual(t, in, flat, pl, "oversubscribed")
	if pl.TimeSharedCount() == 0 {
		t.Fatal("oversubscribed sharded placement marked nothing time-shared")
	}
}

// TestAllocGuardSharded guards the sharded hot path: with warmed pools a
// reconfiguration on a 4-region mesh allocates only the same bounded
// overhead the flat alloc guard allows, per region, plus the assignment
// stage — sharding must not reintroduce per-epoch garbage.
func TestAllocGuardSharded(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; guarded by the non-race CI step")
	}
	rng := rand.New(rand.NewSource(12))
	m := Machine{Mesh: topo.NewMesh(8, 8), BankBytes: 1 << 20, WaysPerBank: 32}
	in := testWorkloadOn(m, m.Banks()/9, 4, rng)
	p := ShardedPlacer{RegionW: 4, RegionH: 4}
	pl := NewPlacement(in.Machine)
	p.PlaceInto(in, pl) // warm the shard, region and place scratch pools
	allocs := testing.AllocsPerRun(50, func() {
		p.PlaceInto(in, pl)
	})
	// Budget: the flat guard allows 12 allocs per placement (pool plumbing
	// and map internals); 4 regions plus the assignment stage get 4× that.
	const maxAllocs = 48
	if allocs > maxAllocs {
		t.Errorf("ShardedPlacer.PlaceInto allocated %v times per call, want <= %d", allocs, maxAllocs)
	}
}
