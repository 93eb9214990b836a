package core

import (
	"jumanji/internal/obs"
	"jumanji/internal/topo"
)

// Provenance helpers for the placers. Everything here runs only when the
// provenance sink is enabled (in.Prov != nil); callers guard with
// in.Prov.Enabled() so the disabled hot path never reaches this file.

// recordBankPick records a round-robin whole-bank grant (Jumanji's bank
// isolation, IdealBatch's overlay assignment) together with the rationale:
// which banks the VM would have preferred and why each lost. Call it right
// after owner[chosen] has been set to vm.
//
// Candidates recorded, in bank order:
//   - banks owned by another VM at distance <= the chosen bank's: they
//     would have won (or tied) on distance but the security-domain
//     constraint forbids sharing them;
//   - free banks at the same distance with a higher index: they lost the
//     deterministic lowest-index tie-break;
//   - the nearest remaining free bank farther away: the distance runner-up
//     the VM would get next.
func recordBankPick(in *Input, stage string, vm VMID, chosen topo.TileID, owner []VMID) {
	d := vmDistance(in, vm, chosen)
	in.Prov.Placed(stage, int(vm), -1, int(chosen), d, in.Machine.BankBytes)
	runner, runnerDist := -1, -1
	for b := 0; b < in.Machine.Banks(); b++ {
		bid := topo.TileID(b)
		if bid == chosen {
			continue
		}
		db := vmDistance(in, vm, bid)
		if o := owner[b]; o >= 0 {
			if o != vm && db <= d {
				in.Prov.Eliminated(stage, int(vm), -1, b, db, 0, obs.ElimSecurityDomain)
			}
			continue
		}
		if db == d {
			in.Prov.Eliminated(stage, int(vm), -1, b, db, in.Machine.BankBytes, obs.ElimDistanceTie)
			continue
		}
		if db > d && (runnerDist < 0 || db < runnerDist) {
			runner, runnerDist = b, db
		}
	}
	if runner >= 0 {
		in.Prov.Eliminated(stage, int(vm), -1, runner, runnerDist, in.Machine.BankBytes, obs.ElimDistance)
	}
}

// recordRegionChoice records the sharded wrapper's stage-1 decision for one
// VM, whose app cores are cores: every candidate region (Bank = region ID)
// with its hop distance and why it lost, then the chosen region. Call it
// before regVMs/regFree are updated for the choice, so the recorded
// availability is what the assignment loop actually saw.
func recordRegionChoice(in *Input, regs *topo.Regions, vm VMID, cores []topo.TileID, need int, chosen topo.RegionID, regVMs, regFree []int) {
	m := in.Machine
	in.Prov.Decision(obs.StageRegionAssign, int(vm), -1, false, float64(need)*m.BankBytes)
	in.Prov.Score(obs.StageRegionAssign, int(vm), -1, float64(need))
	for r := topo.RegionID(0); int(r) < regs.NumRegions(); r++ {
		if r == chosen {
			continue
		}
		d := coresRegionDistance(regs, r, cores)
		switch {
		case regVMs[r] >= regs.Banks(r):
			// No bank of its own left in the region: the per-VM bank
			// isolation guarantee cannot survive the region boundary.
			in.Prov.Eliminated(obs.StageRegionAssign, int(vm), -1, int(r), d, 0, obs.ElimRegionBoundary)
		case regFree[r] < need:
			in.Prov.Eliminated(obs.StageRegionAssign, int(vm), -1, int(r), d,
				float64(regFree[r])*m.BankBytes, obs.ElimCapacity)
		default:
			in.Prov.Eliminated(obs.StageRegionAssign, int(vm), -1, int(r), d,
				float64(regFree[r])*m.BankBytes, obs.ElimDistance)
		}
	}
	in.Prov.Placed(obs.StageRegionAssign, int(vm), -1, int(chosen),
		coresRegionDistance(regs, chosen, cores), float64(need)*m.BankBytes)
}

// attachRegionProv gives a region sub-input a region-scoped sub-recorder
// that translates the inner placer's local app and bank IDs to global ones
// at record time. No-op when provenance is disabled.
func attachRegionProv(in *Input, regs *topo.Regions, r topo.RegionID, rs *regionScratch) {
	if !in.Prov.Enabled() {
		return
	}
	ids := rs.ids
	rs.in.Prov = in.Prov.Region(int(r),
		func(la int) int { return int(ids[la]) },
		func(lb int) int { return int(regs.Global(r, topo.TileID(lb))) })
}

// adoptRegionProv folds a region sub-recorder back into the parent and
// detaches it from the pooled sub-input. Callers adopt regions in
// ascending order (the merge order).
func adoptRegionProv(in *Input, rs *regionScratch) {
	if rs.in.Prov == nil {
		return
	}
	in.Prov.Adopt(rs.in.Prov)
	rs.in.Prov = nil
}
