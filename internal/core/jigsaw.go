package core

import (
	"jumanji/internal/lookahead"
	"jumanji/internal/obs"
)

// JigsawPlacer is the state-of-the-art D-NUCA baseline [6, 8]: it minimizes
// data movement and nothing else. Capacity is divided among all virtual
// caches by Lookahead over their (access-rate-weighted) miss curves, and
// each VC's allocation is packed into the banks closest to its thread.
//
// Because latency-critical applications run at low utilization and generate
// little data movement, Jigsaw gives them very little space — the root cause
// of its tail-latency violations (Sec. III, Fig. 4b).
type JigsawPlacer struct{}

// Name implements Placer.
func (JigsawPlacer) Name() string { return "Jigsaw" }

// Place implements Placer.
func (p JigsawPlacer) Place(in *Input) *Placement {
	return p.PlaceInto(in, NewPlacement(in.Machine))
}

// PlaceInto implements ScratchPlacer.
func (JigsawPlacer) PlaceInto(in *Input, pl *Placement) *Placement {
	return jigsawPlace(in, true, pl)
}

// RawCurveJigsawPlacer is an ablation variant of Jigsaw that feeds raw
// (possibly cliffed) miss curves to Lookahead instead of convex hulls.
// The paper approximates DRRIP's miss curve by the hull (Sec. IV-A), so
// hulls are the faithful configuration; see BenchmarkAblationHull.
type RawCurveJigsawPlacer struct{}

// Name implements Placer.
func (RawCurveJigsawPlacer) Name() string { return "Jigsaw (raw curves)" }

// Place implements Placer.
func (p RawCurveJigsawPlacer) Place(in *Input) *Placement {
	return p.PlaceInto(in, NewPlacement(in.Machine))
}

// PlaceInto implements ScratchPlacer.
func (RawCurveJigsawPlacer) PlaceInto(in *Input, pl *Placement) *Placement {
	return jigsawPlace(in, false, pl)
}

func jigsawPlace(in *Input, hull bool, pl *Placement) *Placement {
	mustValidate(in)
	pl.Reset(in.Machine)
	s := getPlaceScratch(in)
	defer putPlaceScratch(s)
	balance := s.balance

	// Divide capacity by pure data-movement utility: every app (batch and
	// latency-critical alike) competes on its absolute miss-rate curve.
	apps := s.batch[:0]
	reqs := s.reqs[:0]
	wayBytes := in.Machine.WayBytes()
	for i := range in.Apps {
		apps = append(apps, AppID(i))
		r := lookahead.Request{
			Min:  wayBytes, // every VC keeps a sliver of cache
			Step: wayBytes,
			Max:  in.Machine.TotalBytes(),
		}
		if hull {
			// The cached hull brings its kept convexity verdict.
			e := s.appEntry(in, AppID(i))
			r.Curve, r.Convex = e.hull, e.isConvex()
		} else {
			spec := in.Apps[i]
			r.Curve = spec.MissRatio.ScaleInto(s.arena.Alloc(len(spec.MissRatio.M)), spec.AccessRate)
		}
		reqs = append(reqs, r)
	}
	s.batch, s.reqs = apps, reqs
	s.sizes = lookahead.AllocateInto(s.sizes[:0], in.Machine.TotalBytes(), reqs)

	// Pack the hottest VCs closest to their threads. Positions equal AppIDs
	// here (apps is the identity list), so sizes indexes directly.
	s.order = appendByDescendingRate(s.order[:0], in, apps)
	if in.Prov.Enabled() {
		for i, app := range apps {
			in.Prov.Score(obs.StageBatch, int(in.Apps[app].VM), int(app), reqs[i].Curve.Eval(s.sizes[i]))
		}
	}
	for _, pos := range s.order {
		greedyFill(in, pl, apps[pos], s.sizes[pos], balance, nil, obs.StageBatch, obs.ElimSecurityDomain)
	}
	return pl
}
