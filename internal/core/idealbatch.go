package core

import (
	"math"

	"jumanji/internal/lookahead"
	"jumanji/internal/obs"
)

// IdealBatchPlacer is the infeasible upper bound of Fig. 16 ("Jumanji:
// Ideal Batch"): it eliminates competition between latency-critical and
// batch applications by placing batch allocations in a *separate copy* of
// the LLC, while keeping total allocated capacity within the original LLC
// size. Latency-critical data is placed nearest-first in the real LLC;
// batch data is placed in an overlay LLC whose banks are all empty, still
// respecting per-VM bank isolation. The result is the best batch placement
// any latency-critical-safe, VM-isolated design could hope for.
type IdealBatchPlacer struct{}

// Name implements Placer.
func (IdealBatchPlacer) Name() string { return "Jumanji: Ideal Batch" }

// Place implements Placer.
func (p IdealBatchPlacer) Place(in *Input) *Placement {
	return p.PlaceInto(in, NewPlacement(in.Machine))
}

// PlaceInto implements ScratchPlacer.
func (p IdealBatchPlacer) PlaceInto(in *Input, pl *Placement) *Placement {
	mustValidate(in)
	// The same safety valve as JumanjiPlacer: fleet-scale controller demand
	// (dozens of latency-critical apps on a datacenter mesh) can exceed the
	// LLC; scale the targets down and retry. The first attempt is the
	// historical behaviour bit for bit. The retries place copies of in,
	// which share the hull cache made on in itself.
	in.hullCache()
	scaled := *in
	for attempt := 0; attempt < 16; attempt++ {
		in.Prov.Attempt()
		if p.place(&scaled, pl) {
			return pl
		}
		if in.Prov.Enabled() {
			in.Prov.Valve(obs.ValveShrinkLatSizes, -1, attempt, 0.9, "latency-critical data did not fit")
		}
		scaled = shrinkLatSizes(scaled, 0.9)
	}
	panic("core: Ideal Batch could not place latency-critical data")
}

func (IdealBatchPlacer) place(in *Input, pl *Placement) bool {
	pl.Reset(in.Machine)
	s := getPlaceScratch(in)
	defer putPlaceScratch(s)
	balance := s.balance

	latRes := latCritPlace(in, pl, balance, true, s)
	if latRes.unplaced > 0 {
		return false
	}
	latTotal := 0.0
	for _, app := range s.latApps {
		latTotal += pl.TotalOf(app)
	}

	// Batch budget = whatever capacity latency-critical data is not using,
	// but spent inside a fresh overlay LLC.
	budget := in.Machine.TotalBytes() - latTotal
	overlay := newBalance(in.Machine)

	// Per-VM bank-granular division of the overlay (VM isolation holds in
	// the overlay too).
	s.vms = in.AppendVMs(s.vms[:0])
	var reqs []lookahead.Request
	var vmList []VMID
	for _, vm := range s.vms {
		s.lat, s.batch = in.AppendAppsOf(s.lat[:0], s.batch[:0], vm)
		if len(s.batch) == 0 {
			continue
		}
		vmList = append(vmList, vm)
		reqs = append(reqs, lookahead.Request{
			Curve: s.arena.ConvexHull(combinedBatchHullArena(s, in, s.batch)),
			Min:   in.Machine.BankBytes, // at least one overlay bank each
			Step:  in.Machine.BankBytes,
		})
	}
	if len(vmList) == 0 {
		return true
	}
	if float64(len(vmList))*in.Machine.BankBytes > budget {
		// Degenerate: latency-critical data consumed nearly everything.
		// Give each VM one bank's worth anyway — the overlay is infeasible
		// by construction, so capacity bookkeeping stays advisory.
		if in.Prov.Enabled() {
			in.Prov.Valve(obs.ValveOverlayBudgetBump, -1, 0,
				float64(len(vmList))*in.Machine.BankBytes/budget, "")
		}
		budget = float64(len(vmList)) * in.Machine.BankBytes
	}
	sizes := lookahead.Allocate(budget, reqs)
	if in.Prov.Enabled() {
		for i, vm := range vmList {
			in.Prov.Decision(obs.StageOverlayBanks, int(vm), -1, false, sizes[i])
			in.Prov.Score(obs.StageOverlayBanks, int(vm), -1, reqs[i].Curve.Eval(sizes[i]))
		}
	}

	// Assign overlay banks round-robin nearest-first. s.owner is free here
	// (no bank-isolation step ran) and starts all -1.
	ownerOverlay := s.owner
	needed := s.needed
	clear(needed)
	for i, vm := range vmList {
		needed[vm] = int(math.Round(sizes[i] / in.Machine.BankBytes))
		if needed[vm] < 1 {
			needed[vm] = 1
		}
	}
	for {
		progressed := false
		for _, vm := range vmList {
			if needed[vm] <= 0 {
				continue
			}
			b, ok := nearestFreeBank(in, vm, ownerOverlay)
			if !ok {
				break
			}
			ownerOverlay[b] = vm
			needed[vm]--
			progressed = true
			if in.Prov.Enabled() {
				recordBankPick(in, obs.StageOverlayBanks, vm, b, ownerOverlay)
			}
		}
		if !progressed {
			break
		}
	}

	// Jigsaw placement inside each VM's overlay banks.
	jig := JumanjiPlacer{}
	for i, vm := range vmList {
		allowed := s.allowed
		for b := range allowed {
			allowed[b] = ownerOverlay[b] == vm
		}
		s.lat, s.batch = in.AppendAppsOf(s.lat[:0], s.batch[:0], vm)
		jig.placeBatchWithin(in, pl, s, overlay, s.batch, sizes[i], allowed)
		for _, app := range s.batch {
			pl.SetOverlay(app)
		}
	}
	return true
}
