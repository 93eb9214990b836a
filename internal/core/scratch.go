// alloc-guarded: placeScratch carries every per-placement temporary the epoch
// loop's placers need; new per-call heap allocation sites here are caught by
// cmd/allocvet and the TestAllocGuard* suite.

package core

import (
	"sync"

	"jumanji/internal/lookahead"
	"jumanji/internal/mrc"
)

// placeScratch pools the temporaries of one placement computation: bank
// balances and ownerships, per-VM app lists, lookahead requests and results,
// each app's hull-cache entry, and an mrc.Arena backing every curve built
// during the call. Placers with value receivers cannot carry state across
// epochs, so PlaceInto bodies borrow a placeScratch from placeScratchPool
// instead; every buffer reaches its high-water mark during the first
// placement and is reused afterwards (the property TestAllocGuardPlace pins).
//
// All slice fields follow the Append protocol (resliced to [:0] at each use
// site); the maps are retained and cleared. The arena is Reset once per
// borrow, so arena-backed curves never outlive the placement that made them.
// A borrow serves one placement of one Input: the entry slots are emptied
// at borrow time and then filled from that Input's hull cache by appEntry.
type placeScratch struct {
	arena    mrc.Arena
	balance  []float64
	claims   []VMID       // per-bank latency-critical owner, -1 = unclaimed
	owner    []VMID       // per-bank VM owner, -1 = free
	allowed  []bool       // per-bank membership mask for greedyFill
	entries  []*hullEntry // per-app hull-cache entry, nil = not looked up yet
	vms      []VMID
	lat      []AppID // AppendAppsOf scratch
	batch    []AppID
	latApps  []AppID // AppendLatCritApps scratch
	reqs     []lookahead.Request
	sizes    []float64
	batchVMs []VMID    // VMs holding batch apps, in VM order
	split    []float64 // sharedPoolSplit's shares, by position
	pressure []float64 // sharedPoolSplit's per-iteration pressures
	order    []int32   // appendByDescendingRate scratch
	curves   []mrc.Curve
	runs     [][]float64 // combinedBatchHullArena's gain runs, one per curve
	latOf    map[VMID]float64
	needed   map[VMID]int
}

var placeScratchPool = sync.Pool{New: func() any {
	return &placeScratch{
		latOf:  map[VMID]float64{}, // alloc: ok (pool warmup)
		needed: map[VMID]int{},     // alloc: ok (pool warmup)
	}
}}

// getPlaceScratch borrows a scratch for one placement of in: sized for its
// machine's bank count, with the per-bank slices reset (balance full,
// claims/owner -1, allowed false), one empty entry slot per app and the
// arena empty.
func getPlaceScratch(in *Input) *placeScratch {
	s := placeScratchPool.Get().(*placeScratch)
	s.arena.Reset()
	m := in.Machine
	banks := m.Banks()
	if cap(s.balance) < banks {
		s.balance = make([]float64, banks) // alloc: ok (pool warmup)
		s.claims = make([]VMID, banks)     // alloc: ok (pool warmup)
		s.owner = make([]VMID, banks)      // alloc: ok (pool warmup)
		s.allowed = make([]bool, banks)    // alloc: ok (pool warmup)
	}
	s.balance = fillBalance(s.balance[:banks], m)
	s.claims = s.claims[:banks]
	s.owner = s.owner[:banks]
	s.allowed = s.allowed[:banks]
	for i := 0; i < banks; i++ {
		s.claims[i] = -1
		s.owner[i] = -1
		s.allowed[i] = false
	}
	if cap(s.entries) < len(in.Apps) {
		s.entries = make([]*hullEntry, len(in.Apps)) // alloc: ok (pool warmup)
	}
	s.entries = s.entries[:len(in.Apps)]
	clear(s.entries)
	return s
}

func putPlaceScratch(s *placeScratch) {
	placeScratchPool.Put(s)
}

// combinedBatchHullArena builds the VM-combined absolute miss-rate curve of
// batch using the Whirlpool model (Sec. VI-D), on the way grid: the apps'
// hulls (appEntry) merged by mrc.MergeGainRuns over the gain runs their
// entries keep, which equals mrc.CombineHullsInto of the hulls bit for bit.
// The result is backed by s.arena (valid until the scratch is returned).
func combinedBatchHullArena(s *placeScratch, in *Input, batch []AppID) mrc.Curve {
	curves, runs := s.curves[:0], s.runs[:0]
	n := 1
	for _, app := range batch {
		e := s.appEntry(in, app)
		curves = append(curves, e.hull)
		runs = append(runs, e.gainRun())
		n += len(e.hull.M) - 1
	}
	s.curves, s.runs = curves, runs
	return mrc.MergeGainRuns(s.arena.Alloc(n), curves, runs)
}

// appEntry returns app's hull-cache entry for the placement's Input: its
// hull is app's absolute miss-rate convex hull (its miss-ratio curve scaled
// by its access rate, then hulled), and it keeps the hull's gain run and
// convexity verdict. The first call of a borrow reads it from the Input's
// hull cache (Input.hullCache), which rebuilds it only when the app's curve
// or access rate changed bits since the cache last built it; the slot keeps
// it for the rest of the borrow, so every stage of the placement reads the
// same hull and the bits are checked once per placement. Every placer hulls
// each app at most once per placement this way.
//
// The hull pass stays although internal/system already hands the placers
// hulls: a hull resampled through float arithmetic is not a fixed point of
// ConvexHull. Of the 21 batch and latency-critical profiles' hulls at 640
// and 8,192 points, each scaled by 16 access rates, 576 of 672 differ from
// their re-hull in at least one bit (and 34 of the 42 unscaled hulls do),
// so skipping the pass would change the curves every stage reads.
func (s *placeScratch) appEntry(in *Input, app AppID) *hullEntry {
	if e := s.entries[app]; e != nil {
		return e
	}
	e := in.hullCache().entry(in.Apps[app], app, len(in.Apps), &s.arena)
	s.entries[app] = e
	return e
}
