package core

import (
	"math"

	"jumanji/internal/mrc"
	"jumanji/internal/obs"
)

// TradePlacer implements the more sophisticated algorithm the paper
// explored and deliberately discarded (Sec. V-D, Sec. VIII-C): after
// JumanjiPlacer runs, it tries to move batch data closer to its cores by
// trading LLC space with latency-critical applications — relocating part of
// a latency-critical allocation to a farther bank and compensating it with
// *extra capacity* so its modeled performance cannot degrade (the strict
// constraint the paper imposes: trades cannot penalize latency-critical
// applications).
//
// The paper found "trades were very rare and yielded little speedup" and
// that the algorithm "generally behaves like Jumanji's simple LatCritPlacer
// in practice". This implementation exists to reproduce that negative
// result (see BenchmarkAblationTrading); TradesAttempted/TradesAccepted
// expose how rarely the strict constraint admits a trade.
type TradePlacer struct {
	// TradesAttempted and TradesAccepted count candidate evaluations and
	// applied trades over this placer's lifetime.
	TradesAttempted, TradesAccepted int

	// Epoch-loop scratch (the placer has a pointer receiver, so it can keep
	// its own). The arena backs the miss-ratio hulls trades read; PlaceInto
	// resets it, so each hull lives for one placement.
	vms        []VMID
	lat, batch []AppID
	arena      mrc.Arena
}

// The CPI-delta model trades are evaluated with: the Table II machine's
// 120-cycle memory and 3-cycle hops.
const (
	tradeMemLatency = 120
	tradeHopCycles  = 3
)

// Name implements Placer.
func (p *TradePlacer) Name() string { return "Jumanji: Trading" }

// Place implements Placer.
func (p *TradePlacer) Place(in *Input) *Placement {
	return p.PlaceInto(in, NewPlacement(in.Machine))
}

// PlaceInto implements ScratchPlacer.
func (p *TradePlacer) PlaceInto(in *Input, pl *Placement) *Placement {
	JumanjiPlacer{}.PlaceInto(in, pl)
	p.arena.Reset()

	wayBytes := in.Machine.WayBytes()
	p.vms = in.AppendVMs(p.vms[:0])
	for _, vm := range p.vms {
		p.lat, p.batch = in.AppendAppsOf(p.lat[:0], p.batch[:0], vm)
		if len(p.lat) == 0 || len(p.batch) == 0 {
			continue
		}
		for _, lat := range p.lat {
			p.tradeForVM(in, pl, lat, p.batch, wayBytes)
		}
	}
	return pl
}

// tradeForVM evaluates moving one way of lat's data from its nearest bank
// to the farthest bank the VM owns, compensating lat with extra capacity
// carved from batch space in the far bank.
func (p *TradePlacer) tradeForVM(in *Input, pl *Placement, lat AppID, batchApps []AppID, wayBytes float64) {
	spec := in.Apps[lat]
	banks, bytes := pl.BanksOf(lat)
	if len(banks) == 0 {
		return
	}
	mesh := in.Machine.Mesh

	// Near bank: lat's closest; far bank: the farthest bank holding batch
	// data of the same VM.
	nearIdx := 0
	for i, b := range banks {
		if mesh.Hops(spec.Core, b) < mesh.Hops(spec.Core, banks[nearIdx]) {
			nearIdx = i
		}
	}
	nearBank := banks[nearIdx]
	if bytes[nearIdx] < wayBytes {
		return
	}
	var farBank = nearBank
	farDist := -1
	var donor AppID = -1
	for _, b := range batchApps {
		bb, by := pl.BanksOf(b)
		for i, bk := range bb {
			d := mesh.Hops(spec.Core, bk)
			if d > farDist && by[i] >= 2*wayBytes {
				farDist = d
				farBank = bk
				donor = b
			}
		}
	}
	if donor < 0 || farBank == nearBank {
		return
	}
	p.TradesAttempted++
	on := in.Prov.Enabled()
	if on {
		// One decision per attempted (lat, trade) pair: the far bank is the
		// candidate; the strict no-penalty constraint eliminates it or not.
		in.Prov.Decision(obs.StageTrade, int(spec.VM), int(lat), true, wayBytes)
	}

	// Latency-critical impact of moving `wayBytes` from near to far:
	// weighted distance rises; compensate with extra capacity c such that
	// the CPI delta is non-positive.
	total := pl.TotalOf(lat)
	oldHops := pl.AvgHops(lat, spec.Core)
	dNear := float64(mesh.Hops(spec.Core, nearBank))
	dFar := float64(mesh.Hops(spec.Core, farBank))
	newHops := oldHops + (dFar-dNear)*wayBytes/total
	dHitLat := 2 * (newHops - oldHops) * tradeHopCycles

	// Required capacity compensation: missRatio(total+c) must improve
	// enough that Δmiss × memLat ≥ ΔhitLat. Search in way steps.
	curve := p.arena.ConvexHull(spec.MissRatio)
	missNow := curve.Eval(total)
	comp := math.Inf(1)
	for c := wayBytes; c <= 8*wayBytes; c += wayBytes {
		if (missNow-curve.Eval(total+c))*tradeMemLatency >= dHitLat {
			comp = c
			break
		}
	}
	if math.IsInf(comp, 1) {
		if on {
			in.Prov.Eliminated(obs.StageTrade, int(spec.VM), int(lat),
				int(farBank), int(dFar), 0, obs.ElimTradeNoCompensation)
		}
		return // no affordable compensation: constraint rejects the trade
	}
	// The donor must give up wayBytes+comp in the far bank and receives
	// wayBytes in the near one; accept only if the donor's own benefit
	// (closer data) outweighs its capacity loss.
	donorSpec := in.Apps[donor]
	donorCurve := p.arena.ConvexHull(donorSpec.MissRatio)
	donorTotal := pl.TotalOf(donor)
	missCost := (donorCurve.Eval(donorTotal-comp) - donorCurve.Eval(donorTotal)) * tradeMemLatency
	dDonorNear := float64(mesh.Hops(donorSpec.Core, nearBank))
	dDonorFar := float64(mesh.Hops(donorSpec.Core, farBank))
	hopGain := 2 * (dDonorFar - dDonorNear) * tradeHopCycles * wayBytes / donorTotal
	if hopGain <= missCost {
		if on {
			in.Prov.Eliminated(obs.StageTrade, int(spec.VM), int(lat),
				int(farBank), int(dFar), 0, obs.ElimTradeDonorCost)
		}
		return // not a net win for batch either: reject
	}

	// Apply the trade: lat moves a way near→far and gains comp in the far
	// bank; the donor shrinks by way+comp far and grows a way near. Bank
	// capacity is conserved in both banks.
	p.TradesAccepted++
	if on {
		in.Prov.Placed(obs.StageTrade, int(spec.VM), int(lat),
			int(farBank), int(dFar), wayBytes+comp)
		in.Prov.Score(obs.StageTrade, int(spec.VM), int(lat), hopGain-missCost)
	}
	pl.adjust(lat, nearBank, -wayBytes)
	pl.adjust(lat, farBank, wayBytes+comp)
	pl.adjust(donor, farBank, -(wayBytes + comp))
	pl.adjust(donor, nearBank, wayBytes)
}
