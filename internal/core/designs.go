package core

import (
	"fmt"

	"jumanji/internal/lookahead"
	"jumanji/internal/obs"
)

// StaticPlacer is the naïve baseline all results are normalized to
// (Sec. VII): each latency-critical application is allocated four ways of
// the LLC via way-partitioning, and all batch applications share the
// remaining ways unpartitioned. S-NUCA: everything striped over all banks.
type StaticPlacer struct{}

// latCritWays is Static's fixed per-LC-app way allocation.
const latCritWays = 4

// Name implements Placer.
func (StaticPlacer) Name() string { return "Static" }

// Place implements Placer.
func (s StaticPlacer) Place(in *Input) *Placement {
	return s.PlaceInto(in, NewPlacement(in.Machine))
}

// PlaceInto implements ScratchPlacer.
func (s StaticPlacer) PlaceInto(in *Input, pl *Placement) *Placement {
	mustValidate(in)
	pl.Reset(in.Machine)
	sc := getPlaceScratch(in)
	defer putPlaceScratch(sc)
	sc.latApps = in.AppendLatCritApps(sc.latApps[:0])
	lat := sc.latApps
	// Fleet-scale fallback: with enough latency-critical apps (datacenter
	// meshes host dozens) the fixed per-app ways exceed the associativity, so
	// split the ways left after the batch pool's one-way reserve equally
	// instead. The exact historical behaviour is kept whenever the fixed
	// allocation fits.
	waysPerApp := float64(latCritWays)
	if avail := float64(in.Machine.WaysPerBank - 1); waysPerApp*float64(len(lat)) > avail {
		if avail <= 0 {
			panic(fmt.Sprintf("core: Static design has no ways left for batch (%d LC apps × %d ways)", len(lat), latCritWays))
		}
		waysPerApp = avail / float64(len(lat))
		if in.Prov.Enabled() {
			in.Prov.Valve(obs.ValveStaticWayRescale, -1, 0, waysPerApp/float64(latCritWays), "")
		}
	}
	usedWays := 0.0
	for _, app := range lat {
		bytes := waysPerApp * in.Machine.WayBytes() * float64(in.Machine.Banks())
		stripe(in, pl, app, bytes)
		usedWays += waysPerApp
	}
	poolWays := float64(in.Machine.WaysPerBank) - usedWays
	sc.batch = in.AppendBatchApps(sc.batch[:0])
	placeSharedBatchPool(in, pl, sc, sc.batch, poolWays)
	return pl
}

// AdaptivePlacer is the Adaptive design (Sec. III): S-NUCA with the
// latency-critical allocations tuned by feedback control (Input.LatSizes)
// and batch data left unpartitioned to preserve associativity.
type AdaptivePlacer struct{}

// Name implements Placer.
func (AdaptivePlacer) Name() string { return "Adaptive" }

// Place implements Placer.
func (p AdaptivePlacer) Place(in *Input) *Placement {
	return p.PlaceInto(in, NewPlacement(in.Machine))
}

// PlaceInto implements ScratchPlacer.
func (AdaptivePlacer) PlaceInto(in *Input, pl *Placement) *Placement {
	mustValidate(in)
	pl.Reset(in.Machine)
	s := getPlaceScratch(in)
	defer putPlaceScratch(s)
	poolWays := placeAdaptiveLatCrit(in, pl, s)
	s.batch = in.AppendBatchApps(s.batch[:0])
	placeSharedBatchPool(in, pl, s, s.batch, poolWays)
	return pl
}

// VMPartPlacer is the VM-Part design (Sec. III): Adaptive plus per-VM
// partitioning of batch data within every bank, defending conflict attacks
// across VMs at the cost of associativity.
type VMPartPlacer struct{}

// Name implements Placer.
func (VMPartPlacer) Name() string { return "VM-Part" }

// Place implements Placer.
func (p VMPartPlacer) Place(in *Input) *Placement {
	return p.PlaceInto(in, NewPlacement(in.Machine))
}

// PlaceInto implements ScratchPlacer.
func (VMPartPlacer) PlaceInto(in *Input, pl *Placement) *Placement {
	mustValidate(in)
	pl.Reset(in.Machine)
	s := getPlaceScratch(in)
	defer putPlaceScratch(s)
	poolWays := placeAdaptiveLatCrit(in, pl, s)
	sizes := vmPartWays(in, s, poolWays)
	for i, vm := range s.batchVMs {
		s.lat, s.batch = in.AppendAppsOf(s.lat[:0], s.batch[:0], vm)
		vmWaysPerBank := sizes[i] / wayStripeBytes(in)
		split := sharedPoolSplit(s, in, s.batch, sizes[i])
		for j, app := range s.batch {
			stripe(in, pl, app, split[j])
			pl.SetUnpartitioned(app)
			pl.SetGroupWays(app, vmWaysPerBank)
		}
	}
	return pl
}

// vmPartWays divides poolWays (per bank) of batch ways among the VMs that
// hold batch apps, listed in s.batchVMs, by lookahead over each VM's
// combined batch miss curve; the quantum is one way across all banks. It
// returns the VMs' bytes in s.sizes. Scratch reuse keeps the per-epoch cost
// flat: app lists and the combined curves come from s (the curves from its
// arena, combined from the apps' cached hulls).
func vmPartWays(in *Input, s *placeScratch, poolWays float64) []float64 {
	way := wayStripeBytes(in)
	s.vms = in.AppendVMs(s.vms[:0])
	s.batchVMs = s.batchVMs[:0]
	reqs := s.reqs[:0]
	for _, vm := range s.vms {
		s.lat, s.batch = in.AppendAppsOf(s.lat[:0], s.batch[:0], vm)
		if len(s.batch) == 0 {
			continue
		}
		mustShareUnit(in, vm, s.batch)
		s.batchVMs = append(s.batchVMs, vm)
		// Every VM keeps at least one way.
		reqs = append(reqs, lookahead.Request{Min: way, Step: way})
	}
	s.reqs = reqs
	poolBytes := poolWays * way
	// Fleet-scale fallback: with more batch VMs than spare ways (datacenter
	// meshes) the one-way-per-VM minimum is infeasible; scale the quantum
	// down so every VM still gets an equal guaranteed sliver. The historical
	// whole-way behaviour is untouched whenever it was feasible.
	if minTotal := way * float64(len(reqs)); minTotal > poolBytes {
		scale := poolBytes / minTotal
		for i := range reqs {
			reqs[i].Min *= scale
			reqs[i].Step *= scale
		}
		if in.Prov.Enabled() {
			in.Prov.Valve(obs.ValveVMQuantumRescale, -1, 0, scale, "")
		}
	}
	// The combined curves are built only for a lookahead that can grant
	// beyond the minima, or for provenance to score. The rescaled slivers
	// fill the pool, so at fleet scale no curve is read.
	if lookahead.CanGrow(poolBytes, reqs) || in.Prov.Enabled() {
		for i, vm := range s.batchVMs {
			s.lat, s.batch = in.AppendAppsOf(s.lat[:0], s.batch[:0], vm)
			reqs[i].Curve = combinedBatchHullArena(s, in, s.batch)
		}
	}
	s.sizes = lookahead.AllocateInto(s.sizes[:0], poolBytes, reqs)
	if in.Prov.Enabled() {
		for i, vm := range s.batchVMs {
			in.Prov.Decision(obs.StageVMWays, int(vm), -1, false, s.sizes[i])
			in.Prov.Score(obs.StageVMWays, int(vm), -1, reqs[i].Curve.Eval(s.sizes[i]))
		}
	}
	return s.sizes
}

// placeAdaptiveLatCrit stripes each latency-critical app's feedback-set
// allocation across all banks and returns the ways per bank left for batch.
// If the controllers collectively ask for more than the LLC can give while
// keeping one way per bank for batch, all latency-critical allocations are
// scaled down proportionally.
//
// The sizes live in s.sizes, which the caller may reuse once it returns.
func placeAdaptiveLatCrit(in *Input, pl *Placement, s *placeScratch) float64 {
	s.latApps = in.AppendLatCritApps(s.latApps[:0])
	lat := s.latApps
	sizes := s.sizes[:0]
	total := 0.0
	for _, app := range lat {
		size := in.LatSizes[app]
		if min := wayStripeBytes(in); size < min {
			size = min
		}
		sizes = append(sizes, size)
		total += size
	}
	s.sizes = sizes
	if budget := in.Machine.TotalBytes() - wayStripeBytes(in); total > budget {
		scale := budget / total
		for i := range sizes {
			sizes[i] *= scale
		}
		if in.Prov.Enabled() {
			in.Prov.Valve(obs.ValveAdaptiveScaleDown, -1, 0, scale, "")
		}
		total = budget
	}
	for i, app := range lat {
		stripe(in, pl, app, sizes[i])
	}
	poolWays := float64(in.Machine.WaysPerBank) - total/wayStripeBytes(in)
	if poolWays < 1 {
		poolWays = 1
	}
	return poolWays
}

// placeSharedBatchPool splits poolWays (per bank) of unpartitioned capacity
// among the batch apps by the natural-sharing model and stripes them.
func placeSharedBatchPool(in *Input, pl *Placement, s *placeScratch, batch []AppID, poolWays float64) {
	poolBytes := poolWays * wayStripeBytes(in)
	split := sharedPoolSplit(s, in, batch, poolBytes)
	for i, app := range batch {
		stripe(in, pl, app, split[i])
		pl.SetUnpartitioned(app)
		pl.SetGroupWays(app, poolWays)
	}
}

// wayStripeBytes is the bytes of one way striped across every bank — the
// allocation quantum of S-NUCA way-partitioning (Intel CAT).
func wayStripeBytes(in *Input) float64 {
	return in.Machine.WayBytes() * float64(in.Machine.Banks())
}

// mustShareUnit panics unless vm's batch miss curves share one Unit, which
// combining them requires (mrc.CombineHullsInto panics on a mismatch).
// VM-Part and Jumanji check it up front because they combine a VM's curves
// only when lookahead can use them. Like the combine, it compares every
// unit with the first, the first included, so a NaN unit fails too.
func mustShareUnit(in *Input, vm VMID, batch []AppID) {
	unit := in.Apps[batch[0]].MissRatio.Unit
	for _, app := range batch {
		if in.Apps[app].MissRatio.Unit != unit {
			panic(fmt.Sprintf("core: VM %d's batch miss curves mix units", vm))
		}
	}
}

func mustValidate(in *Input) {
	if err := in.Validate(); err != nil {
		panic(err)
	}
}
