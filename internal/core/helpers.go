package core

import (
	"jumanji/internal/obs"
	"jumanji/internal/topo"
)

// sharedPoolSplit estimates how poolBytes of *unpartitioned* cache naturally
// divides among the given applications under LRU-like sharing: occupancy is
// proportional to each application's insertion rate (miss rate at its
// current share), iterated to a fixed point. This models the batch pool of
// the Static and Adaptive designs, where nothing enforces per-app shares.
// The shares come back by position (the i-th is apps[i]'s) in s.split,
// valid until the next call on s.
func sharedPoolSplit(s *placeScratch, in *Input, apps []AppID, poolBytes float64) []float64 {
	out, pressure := s.split[:0], s.pressure[:0]
	for range apps {
		out = append(out, 0)
		pressure = append(pressure, 0)
	}
	s.split, s.pressure = out, pressure
	if len(apps) == 0 || poolBytes <= 0 {
		return out
	}
	// Start from an even split.
	for i := range apps {
		out[i] = poolBytes / float64(len(apps))
	}
	for iter := 0; iter < 30; iter++ {
		total := 0.0
		for i, a := range apps {
			spec := in.Apps[a]
			// Insertion pressure = miss rate at current occupancy.
			pr := spec.MissRatio.Eval(out[i]) * spec.AccessRate
			if pr < 1e-9 {
				pr = 1e-9 // idle apps keep a sliver (cold data lingers)
			}
			pressure[i] = pr
			total += pr
		}
		for i := range apps {
			// Damped update for stable convergence.
			target := poolBytes * pressure[i] / total
			out[i] = 0.5*out[i] + 0.5*target
		}
	}
	return out
}

// stripe spreads bytes for app uniformly over all banks (the S-NUCA
// placement used by Static, Adaptive and VM-Part).
func stripe(in *Input, pl *Placement, app AppID, bytes float64) {
	banks := in.Machine.Banks()
	per := bytes / float64(banks)
	for b := 0; b < banks; b++ {
		pl.Add(app, topo.TileID(b), per)
	}
	if in.Prov.Enabled() {
		spec := in.Apps[app]
		in.Prov.Simple(obs.StageStripe, int(spec.VM), int(app), spec.LatencyCritical, bytes, bytes)
	}
}

// greedyFill places `size` bytes for app into the nearest banks (by hop
// distance from the app's core) that are marked in allowed (nil = all banks;
// otherwise indexed by bank), consuming balance. It returns the bytes that
// did not fit. stage and blockReason feed the provenance recorder:
// blockReason is the constraint behind the allowed mask (security-domain
// isolation for per-VM masks, region boundary for sharded sub-meshes).
func greedyFill(in *Input, pl *Placement, app AppID, size float64, balance []float64, allowed []bool, stage, blockReason string) float64 {
	spec := in.Apps[app]
	remaining := size
	on := in.Prov.Enabled()
	if on {
		in.Prov.Decision(stage, int(spec.VM), int(app), spec.LatencyCritical, size)
	}
	for _, b := range in.Machine.Mesh.BanksByDistanceView(spec.Core) {
		if remaining <= 1e-9 {
			return 0
		}
		if allowed != nil && !allowed[b] {
			if on {
				in.Prov.Eliminated(stage, int(spec.VM), int(app),
					int(b), in.Machine.Mesh.Hops(spec.Core, b), balance[b], blockReason)
			}
			continue
		}
		avail := balance[b]
		if avail <= 0 {
			if on {
				in.Prov.Eliminated(stage, int(spec.VM), int(app),
					int(b), in.Machine.Mesh.Hops(spec.Core, b), avail, obs.ElimCapacity)
			}
			continue
		}
		take := avail
		if remaining < take {
			take = remaining
		}
		pl.Add(app, b, take)
		balance[b] -= take
		remaining -= take
		if on {
			in.Prov.Placed(stage, int(spec.VM), int(app),
				int(b), in.Machine.Mesh.Hops(spec.Core, b), take)
		}
	}
	return remaining
}

// appendByDescendingRate appends to dst the *positions* (indices into apps)
// ordered by access intensity, densest first — the order in which D-NUCA
// placers claim nearby banks so the hottest data lands closest. Positions let
// callers index a parallel sizes slice without an AppID→index map. The sort
// is a stable insertion sort: app counts are bounded by the core count, it
// allocates nothing, and stability makes its permutation identical to the
// sort.SliceStable it replaced (a stable sort's output permutation is
// unique), so placements are unchanged bit for bit.
func appendByDescendingRate(dst []int32, in *Input, apps []AppID) []int32 {
	base := len(dst)
	for i := range apps {
		dst = append(dst, int32(i))
	}
	ord := dst[base:]
	for i := 1; i < len(ord); i++ {
		for j := i; j > 0 && in.Apps[apps[ord[j]]].AccessRate > in.Apps[apps[ord[j-1]]].AccessRate; j-- {
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
	return dst
}

// vmDistance returns the minimum hop distance from bank b to any core
// hosting an application of vm.
func vmDistance(in *Input, vm VMID, b topo.TileID) int {
	best := -1
	for _, a := range in.Apps {
		if a.VM != vm {
			continue
		}
		d := in.Machine.Mesh.Hops(a.Core, b)
		if best < 0 || d < best {
			best = d
		}
	}
	return best
}

// newBalance returns a full per-bank capacity slice.
func newBalance(m Machine) []float64 {
	return fillBalance(make([]float64, m.Banks()), m)
}

// fillBalance resets balance (length Banks()) to full per-bank capacity.
func fillBalance(balance []float64, m Machine) []float64 {
	for i := range balance {
		balance[i] = m.BankBytes
	}
	return balance
}
