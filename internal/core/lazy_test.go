package core

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"jumanji/internal/chaos"
	"jumanji/internal/lookahead"
	"jumanji/internal/mrc"
	"jumanji/internal/obs"
	"jumanji/internal/topo"
)

// VM-Part (vmPartWays), Jumanji's bank stage (jumanjiLookahead) and the
// sharded region stage (vmBankNeeds) build their per-VM curves only when
// lookahead.CanGrow says lookahead can grant beyond the minima. The eager*
// functions below keep those stages' request building as it was before:
// every curve is built first, then lookahead runs. LazyCounts.Check runs
// both forms on one input and requires the same bits.

// The lazy call sites, indexing LazyCounts.
const (
	SiteVMPart = iota
	SiteBanks
	SiteRegions
	numSites
)

var siteNames = [numSites]string{"VM-Part", "Jumanji bank stage", "region stage"}

// curveFaults are the chaos curve corruptions each checked input is also
// run under.
var curveFaults = []chaos.Fault{chaos.CurveNaN, chaos.CurveNegative, chaos.CurveNonMonotone}

// LazyCounts tallies, per lazy call site, the inputs on which lookahead
// could not grant beyond the minima (the curves were skipped) and those on
// which it could (they were built). A site that only ever takes one branch
// is compared on one branch only, so RequireBothBranches asks for both.
type LazyCounts struct {
	Skipped, Built [numSites]int
}

// Check compares the given lazy call sites (all three if none are given)
// with their eager references on in and on copies of in whose first batch
// app's curve carries each curve fault.
func (c *LazyCounts) Check(t testing.TB, in *Input, sites ...int) {
	t.Helper()
	if len(sites) == 0 {
		sites = []int{SiteVMPart, SiteBanks, SiteRegions}
	}
	c.check(t, in, "clean", sites)
	batch := in.AppendBatchApps(nil)
	if len(batch) == 0 {
		return
	}
	for _, f := range curveFaults {
		c.check(t, corruptCurve(in, batch[0], f), string(f), sites)
	}
}

func (c *LazyCounts) check(t testing.TB, in *Input, label string, sites []int) {
	t.Helper()
	checks := [numSites]func(testing.TB, *Input, string) outcome{checkVMPart, checkBanks, checkRegions}
	for _, site := range sites {
		c.tally(site, checks[site](t, in, label))
	}
}

// tally records one outcome: grew is CanGrow's answer, reached false when
// the stage ended before lookahead ran.
func (c *LazyCounts) tally(site int, o outcome) {
	if !o.reached {
		return
	}
	if o.grew {
		c.Built[site]++
	} else {
		c.Skipped[site]++
	}
}

// RequireBothBranches fails unless every site both skipped and built its
// curves at least once.
func (c *LazyCounts) RequireBothBranches(t testing.TB) {
	t.Helper()
	for site := 0; site < numSites; site++ {
		if c.Skipped[site] == 0 || c.Built[site] == 0 {
			t.Errorf("%s: curves skipped on %d inputs, built on %d; want both branches taken",
				siteNames[site], c.Skipped[site], c.Built[site])
		}
	}
}

// outcome is what one stage did on one input.
type outcome struct{ reached, grew bool }

// corruptCurve returns a copy of in whose app's miss-ratio curve carries
// fault at its middle point, the way internal/system's chaos injection
// corrupts a curve: NaN, a negative point, or a rise.
func corruptCurve(in *Input, app AppID, fault chaos.Fault) *Input {
	out := *in
	out.Apps = append([]AppSpec(nil), in.Apps...)
	c := in.Apps[app].MissRatio
	m := append([]float64(nil), c.M...)
	pt := len(m) / 2
	switch fault {
	case chaos.CurveNaN:
		m[pt] = math.NaN()
	case chaos.CurveNegative:
		m[pt] = -1 - math.Abs(m[pt])
	case chaos.CurveNonMonotone:
		m[pt] = m[pt-1] + math.Max(1, m[pt-1])
	}
	out.Apps[app].MissRatio = mrc.Curve{Unit: c.Unit, M: m}
	return &out
}

// requireSameBits fails unless a and b are equal float for float, bit for
// bit (NaNs included).
func requireSameBits(t testing.TB, a, b []float64, label string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d values vs %d", label, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: value %d: %v (%#x) vs %v (%#x)", label, i,
				a[i], math.Float64bits(a[i]), b[i], math.Float64bits(b[i]))
		}
	}
}

// checkVMPart compares VM-Part's lazy sizes and placement with the eager
// reference's.
func checkVMPart(t testing.TB, in *Input, label string) outcome {
	t.Helper()
	label = "VM-Part/" + label
	lazyPl := VMPartPlacer{}.Place(in)

	s := getPlaceScratch(in)
	defer putPlaceScratch(s)
	poolWays := placeAdaptiveLatCrit(in, NewPlacement(in.Machine), s)
	lazy := append([]float64(nil), vmPartWays(in, s, poolWays)...)

	eagerPl := NewPlacement(in.Machine)
	eager, o := eagerVMPartPlace(in, eagerPl)
	requireSameBits(t, lazy, eager, label+" sizes")
	requireBitwiseEqual(t, in, lazyPl, eagerPl, label)
	return o
}

// eagerVMPartPlace is VM-Part with eagerVMPartWays and the map-based pool
// split VM-Part used before sharedPoolSplit returned slices.
func eagerVMPartPlace(in *Input, pl *Placement) ([]float64, outcome) {
	pl.Reset(in.Machine)
	s := getPlaceScratch(in)
	defer putPlaceScratch(s)
	poolWays := placeAdaptiveLatCrit(in, pl, s)
	sizes, vms, o := eagerVMPartWays(in, s, poolWays)
	for i, vm := range vms {
		_, batch := in.AppendAppsOf(nil, nil, vm)
		vmWaysPerBank := sizes[i] / wayStripeBytes(in)
		split := sharedPoolSplitMap(in, batch, sizes[i])
		for _, app := range batch {
			stripe(in, pl, app, split[app])
			pl.SetUnpartitioned(app)
			pl.SetGroupWays(app, vmWaysPerBank)
		}
	}
	return sizes, o
}

// eagerVMPartWays is vmPartWays building every VM's combined curve before
// lookahead runs. It returns the sizes and the VMs they belong to.
func eagerVMPartWays(in *Input, s *placeScratch, poolWays float64) ([]float64, []VMID, outcome) {
	var reqs []lookahead.Request
	var vmsWithBatch []VMID
	for _, vm := range in.AppendVMs(nil) {
		_, batch := in.AppendAppsOf(nil, nil, vm)
		if len(batch) == 0 {
			continue
		}
		vmsWithBatch = append(vmsWithBatch, vm)
		reqs = append(reqs, lookahead.Request{
			Curve: combinedBatchCurveArena(s, in, batch),
			Min:   wayStripeBytes(in), // every VM keeps at least one way
			Step:  wayStripeBytes(in),
		})
	}
	poolBytes := poolWays * wayStripeBytes(in)
	if minTotal := wayStripeBytes(in) * float64(len(reqs)); minTotal > poolBytes {
		scale := poolBytes / minTotal
		for i := range reqs {
			reqs[i].Min *= scale
			reqs[i].Step *= scale
		}
	}
	grew := lookahead.CanGrow(poolBytes, reqs)
	return lookahead.Allocate(poolBytes, reqs), vmsWithBatch, outcome{reached: true, grew: grew}
}

// combinedBatchCurveArena is VM-Part's and Ideal Batch's per-VM curve as
// they built it before reading the hull cache: each app's scaled curve
// hulled afresh, then the hulls combined. The result is backed by s.arena.
func combinedBatchCurveArena(s *placeScratch, in *Input, batch []AppID) mrc.Curve {
	curves := s.curves[:0]
	for _, app := range batch {
		spec := in.Apps[app]
		scaled := spec.MissRatio.ScaleInto(s.arena.Alloc(len(spec.MissRatio.M)), spec.AccessRate)
		curves = append(curves, s.arena.ConvexHull(scaled))
	}
	s.curves = curves
	return s.arena.CombineHulls(curves...)
}

// sharedPoolSplitMap is sharedPoolSplit as it was, keyed by AppID in a map
// built afresh on every iteration.
func sharedPoolSplitMap(in *Input, apps []AppID, poolBytes float64) map[AppID]float64 {
	out := make(map[AppID]float64, len(apps))
	if len(apps) == 0 || poolBytes <= 0 {
		return out
	}
	for _, a := range apps {
		out[a] = poolBytes / float64(len(apps))
	}
	for iter := 0; iter < 30; iter++ {
		total := 0.0
		pressure := make(map[AppID]float64, len(apps))
		for _, a := range apps {
			spec := in.Apps[a]
			pr := spec.MissRatio.Eval(out[a]) * spec.AccessRate
			if pr < 1e-9 {
				pr = 1e-9
			}
			pressure[a] = pr
			total += pr
		}
		for _, a := range apps {
			target := poolBytes * pressure[a] / total
			out[a] = 0.5*out[a] + 0.5*target
		}
	}
	return out
}

// checkBanks compares Jumanji's bank stage with the eager reference through
// the same shrink-and-retry attempts PlaceInto makes: per attempt, the
// error, the batch sizes and the bank owners must match.
func checkBanks(t testing.TB, in *Input, label string) outcome {
	t.Helper()
	label = "Jumanji bank stage/" + label
	lazyStage := func(in *Input, pl *Placement, s *placeScratch) ([]float64, outcome, error) {
		sizes, err := jumanjiLookahead(in, pl, s)
		return sizes, outcome{}, err
	}
	scaled := *in
	for attempt := 0; attempt < 16; attempt++ {
		lazySizes, lazyOwner, _, lazyErr := bankStage(&scaled, lazyStage)
		eagerSizes, eagerOwner, o, eagerErr := bankStage(&scaled, eagerJumanjiLookahead)
		at := fmt.Sprintf("%s attempt %d", label, attempt)
		if fmt.Sprint(lazyErr) != fmt.Sprint(eagerErr) {
			t.Fatalf("%s: lazy error %v, eager error %v", at, lazyErr, eagerErr)
		}
		requireSameBits(t, lazySizes, eagerSizes, at+" sizes")
		if fmt.Sprint(lazyOwner) != fmt.Sprint(eagerOwner) {
			t.Fatalf("%s: owners differ:\nlazy  %v\neager %v", at, lazyOwner, eagerOwner)
		}
		if lazyErr == nil {
			return o
		}
		scaled = shrinkLatSizes(scaled, 0.9)
	}
	return outcome{}
}

// bankStage runs JumanjiPlacer.place up to and including assignBanks, with
// divide standing in for jumanjiLookahead, and returns copies of the batch
// sizes and the bank owners.
func bankStage(in *Input, divide func(*Input, *Placement, *placeScratch) ([]float64, outcome, error)) ([]float64, []VMID, outcome, error) {
	s := getPlaceScratch(in)
	defer putPlaceScratch(s)
	s.vms = in.AppendVMs(s.vms[:0])
	pl := NewPlacement(in.Machine)
	latRes := latCritPlace(in, pl, s.balance, true, s)
	if latRes.unplaced > 0 {
		return nil, nil, outcome{}, fmt.Errorf("%g bytes unplaced", latRes.unplaced)
	}
	if len(s.vms) > in.Machine.Banks() {
		return nil, nil, outcome{}, fmt.Errorf("%d VMs exceed %d banks", len(s.vms), in.Machine.Banks())
	}
	sizes, o, err := divide(in, pl, s)
	if err != nil {
		return nil, nil, o, err
	}
	sizes = append([]float64(nil), sizes...)
	owner, err := handOutBanks(in, latRes, s, sizes)
	return sizes, append([]VMID(nil), owner...), o, err
}

// eagerJumanjiLookahead is jumanjiLookahead building every VM's curve
// before lookahead runs.
func eagerJumanjiLookahead(in *Input, pl *Placement, s *placeScratch) ([]float64, outcome, error) {
	m := in.Machine
	vms := s.vms
	latOf := s.latOf
	clear(latOf)
	for _, app := range in.AppendLatCritApps(nil) {
		latOf[in.Apps[app].VM] += pl.TotalOf(app)
	}
	var reqs []lookahead.Request
	minTotal := 0.0
	for _, vm := range vms {
		_, batch := in.AppendAppsOf(nil, nil, vm)
		curve := flatCurve(in, &s.arena)
		if len(batch) > 0 {
			curve = s.arena.ConvexHull(combinedBatchHullArena(s, in, batch))
		}
		r := lookahead.BankGranularRequest(latOf[vm], m.BankBytes)
		r.Curve = curve
		if len(batch) > 0 && r.Min < in.Machine.WayBytes()*float64(len(batch)) {
			r.Min += m.BankBytes
		}
		reqs = append(reqs, r)
		minTotal += r.Min
	}
	latTotal := 0.0
	for _, vm := range vms {
		latTotal += latOf[vm]
	}
	batchBalance := m.TotalBytes() - latTotal
	if minTotal > batchBalance+1e-6 {
		return nil, outcome{}, fmt.Errorf("core: bank-granular minima (%g) exceed batch capacity (%g)", minTotal, batchBalance)
	}
	o := outcome{reached: true, grew: lookahead.CanGrow(batchBalance, reqs)}
	return lookahead.Allocate(batchBalance, reqs), o, nil
}

// checkRegions compares the sharded region stage's bank needs and region
// choices (default regions) with the eager reference's.
func checkRegions(t testing.TB, in *Input, label string) outcome {
	t.Helper()
	label = "region stage/" + label
	regs := topo.Partition(in.Machine.Mesh, DefaultRegionDim, DefaultRegionDim)
	lazyStage := func(in *Input, s *shardScratch) outcome {
		vmBankNeeds(in, s)
		return outcome{}
	}
	lazyNeed, lazyRegion, _ := regionStage(in, regs, lazyStage)
	eagerNeed, eagerRegion, o := regionStage(in, regs, eagerVMBankNeeds)
	if fmt.Sprint(lazyNeed) != fmt.Sprint(eagerNeed) {
		t.Fatalf("%s: needs differ:\nlazy  %v\neager %v", label, lazyNeed, eagerNeed)
	}
	if fmt.Sprint(lazyRegion) != fmt.Sprint(eagerRegion) {
		t.Fatalf("%s: regions differ:\nlazy  %v\neager %v", label, lazyRegion, eagerRegion)
	}
	return o
}

// regionStage runs assignVMsToRegions with needs standing in for
// vmBankNeeds and returns copies of s.need and s.region.
func regionStage(in *Input, regs *topo.Regions, needs func(*Input, *shardScratch) outcome) ([]int, []topo.RegionID, outcome) {
	s := getShardScratch()
	defer putShardScratch(s)
	s.vms = in.AppendVMs(s.vms[:0])
	if len(s.vms) > in.Machine.Banks() {
		return nil, nil, outcome{} // ShardedPlacer delegates to the flat placer
	}
	o := needs(in, s)
	assignNeediestFirst(in, regs, s)
	return append([]int(nil), s.need...), append([]topo.RegionID(nil), s.region...), o
}

// eagerVMBankNeeds is vmBankNeeds building every VM's entitlement curve
// before lookahead runs.
func eagerVMBankNeeds(in *Input, s *shardScratch) outcome {
	m := in.Machine
	wayBytes := m.WayBytes()
	var latOf []float64
	var reqs []lookahead.Request
	latTotal, minTotal := 0.0, 0.0
	for _, vm := range s.vms {
		latApps, batch := in.AppendAppsOf(nil, nil, vm)
		lat := 0.0
		for _, app := range latApps {
			sz := in.LatSizes[app]
			if sz < wayBytes {
				sz = wayBytes
			}
			lat += sz
		}
		latOf = append(latOf, lat)
		latTotal += lat
		curve := flatCurve(in, &s.arena)
		if len(batch) > 0 {
			nb := m.Banks() + 1
			var curves []mrc.Curve
			for _, app := range batch {
				spec := in.Apps[app]
				d := s.arena.Curve(m.BankBytes, nb)
				for k := range d.M {
					d.M[k] = spec.MissRatio.Eval(float64(k)*m.BankBytes) * spec.AccessRate
				}
				curves = append(curves, s.arena.ConvexHull(d))
			}
			curve = s.arena.ConvexHull(s.arena.CombineHulls(curves...))
		}
		r := lookahead.BankGranularRequest(lat, m.BankBytes)
		r.Curve = curve
		if len(batch) > 0 && r.Min < wayBytes*float64(len(batch)) {
			r.Min += m.BankBytes
		}
		reqs = append(reqs, r)
		minTotal += r.Min
	}
	batchBalance := m.TotalBytes() - latTotal
	if batchBalance < minTotal {
		batchBalance = minTotal
	}
	o := outcome{reached: true, grew: lookahead.CanGrow(batchBalance, reqs)}
	sizes := lookahead.Allocate(batchBalance, reqs)
	s.need = s.need[:0]
	for i := range s.vms {
		banks := int((latOf[i]+sizes[i])/m.BankBytes + 0.5)
		if banks < 1 {
			banks = 1
		}
		s.need = append(s.need, banks)
	}
	return o
}

// LazyProbe checks every input it places with Counts.Check at Sites (all
// three if empty), then places it with Inner. As a ShardedPlacer's Inner it
// sees the region sub-inputs.
type LazyProbe struct {
	T      testing.TB
	Counts *LazyCounts
	Sites  []int
	Inner  ScratchPlacer
}

// Name implements Placer.
func (p LazyProbe) Name() string { return p.Inner.Name() }

// Place implements Placer.
func (p LazyProbe) Place(in *Input) *Placement { return p.PlaceInto(in, NewPlacement(in.Machine)) }

// PlaceInto implements ScratchPlacer.
func (p LazyProbe) PlaceInto(in *Input, pl *Placement) *Placement {
	p.T.Helper()
	p.Counts.Check(p.T, in, p.Sites...)
	return p.Inner.PlaceInto(in, pl)
}

// tightWorkload is the 5×4 case-study shape with 4.5 MB latency-critical
// targets: the four VMs' bank-granular minima fill the machine, and its
// batch ways are fewer than its VMs, so no lazy site can grant.
func tightWorkload(rng *rand.Rand) *Input {
	in := testWorkload(4, 4, rng)
	for id := range in.LatSizes {
		in.LatSizes[id] = 4.5 * in.Machine.BankBytes
	}
	return in
}

// TestLazyCurvesMatchEager pins the lazy call sites to their eager
// references. On the 5×4 case-study shape lookahead grants beyond the
// minima at every site; on tightWorkload no site can. On testWorkloadOn's
// 16×16 fleet shape VM-Part cannot; there the bank stage is checked on each
// region's sub-input, the way the sharded placer runs it.
func TestLazyCurvesMatchEager(t *testing.T) {
	var c LazyCounts
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 3; trial++ {
		c.Check(t, testWorkload(4, 4, rng))
	}
	c.Check(t, tightWorkload(rng))
	m := Machine{Mesh: topo.NewMesh(16, 16), BankBytes: 1 << 20, WaysPerBank: 32}
	for _, seed := range []int64{1, 2} {
		in := testWorkloadOn(m, m.Banks()/9, 4, rand.New(rand.NewSource(seed)))
		LazyProbe{T: t, Counts: &c, Sites: []int{SiteVMPart, SiteRegions}, Inner: ShardedPlacer{
			Inner: LazyProbe{T: t, Counts: &c, Sites: []int{SiteBanks}, Inner: JumanjiPlacer{}},
		}}.Place(in)
	}
	t.Logf("curves skipped %v, built %v (VM-Part, bank stage, region stage)", c.Skipped, c.Built)
	c.RequireBothBranches(t)
}

// TestSharedPoolSplitMatchesMap pins the slice-based pool split to the
// map-based one it replaced, bit for bit, over whole-machine and per-VM
// batch sets and pools from a sliver to the whole LLC.
func TestSharedPoolSplitMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, in := range []*Input{testWorkload(4, 4, rng), fleetInput(t, 16, 28)} {
		sets := [][]AppID{in.AppendBatchApps(nil), nil}
		for _, vm := range in.AppendVMs(nil) {
			_, batch := in.AppendAppsOf(nil, nil, vm)
			sets = append(sets, batch)
		}
		s := getPlaceScratch(in)
		for _, apps := range sets {
			for _, pool := range []float64{-1, 0, in.Machine.WayBytes(), 3.5 * wayStripeBytes(in), in.Machine.TotalBytes()} {
				got := sharedPoolSplit(s, in, apps, pool)
				want := sharedPoolSplitMap(in, apps, pool)
				if len(got) != len(apps) {
					t.Fatalf("pool %g: %d shares for %d apps", pool, len(got), len(apps))
				}
				for i, app := range apps {
					if math.Float64bits(got[i]) != math.Float64bits(want[app]) {
						t.Fatalf("pool %g app %d: share %v, map split %v", pool, app, got[i], want[app])
					}
				}
			}
		}
		putPlaceScratch(s)
	}
}

// TestProvenanceDoesNotSteerPlacement pins that a provenance recorder only
// records: every placer gives the same placement bits with one attached as
// without. A recorder makes VM-Part and Jumanji build every per-VM curve
// for scoring, so on tightWorkload and the 16×16 fleet shape this also
// compares their eager and lazy paths end to end.
func TestProvenanceDoesNotSteerPlacement(t *testing.T) {
	placers := []func() Placer{
		func() Placer { return StaticPlacer{} },
		func() Placer { return AdaptivePlacer{} },
		func() Placer { return VMPartPlacer{} },
		func() Placer { return JigsawPlacer{} },
		func() Placer { return RawCurveJigsawPlacer{} },
		func() Placer { return JumanjiPlacer{} },
		func() Placer { return JumanjiPlacer{Insecure: true} },
		func() Placer { return FixedPlacer{} },
		func() Placer { return FixedPlacer{Nearest: true} },
		func() Placer { return ShardedPlacer{} },
		func() Placer { return ShardedPlacer{Inner: JigsawPlacer{}} },
		func() Placer { return IdealBatchPlacer{} },
		func() Placer { return &TradePlacer{} },
	}
	rng := rand.New(rand.NewSource(23))
	inputs := []*Input{testWorkload(4, 4, rng), tightWorkload(rng), fleetInput(t, 16, 28)}
	for _, in := range inputs {
		for _, newPlacer := range placers {
			p := newPlacer()
			switch p.(type) {
			case IdealBatchPlacer, *TradePlacer:
				if in.Machine.Banks() > 20 {
					continue // flat 5×4 sensitivity studies
				}
			}
			off := PlaceWith(p, in, nil)
			on := *in
			on.Prov = obs.NewProvRecorder(obs.NewEventLog(io.Discard), p.Name(), nil)
			on.Prov.StartEpoch(0, 0)
			withProv := PlaceWith(newPlacer(), &on, nil)
			on.Prov.Flush()
			requireBitwiseEqual(t, in, off, withProv, fmt.Sprintf("%s on %dx%d", p.Name(), in.Machine.Mesh.W, in.Machine.Mesh.H))
		}
	}
}

// TestMismatchedBatchUnitsPanic pins that VM-Part and Jumanji reject a VM
// whose batch curves disagree on Unit — which combining them requires —
// whether or not lookahead would read the combined curve: on the 5×4
// machine it would, on the 16×16 fleet it would not.
func TestMismatchedBatchUnitsPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, in := range []*Input{testWorkload(4, 4, rng), fleetInput(t, 16, 28)} {
		_, batch := in.AppendAppsOf(nil, nil, 0)
		c := in.Apps[batch[1]].MissRatio
		in.Apps[batch[1]].MissRatio = mrc.Curve{Unit: 2 * c.Unit, M: c.M}
		for _, p := range []Placer{VMPartPlacer{}, JumanjiPlacer{}} {
			func() {
				defer func() {
					r := recover()
					if r == nil || !strings.Contains(fmt.Sprint(r), "mix units") {
						t.Errorf("%s on %d banks: recovered %v, want the mixed-units panic", p.Name(), in.Machine.Banks(), r)
					}
				}()
				p.Place(in)
			}()
		}
	}
}
