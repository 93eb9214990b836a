package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"jumanji/internal/topo"
	"jumanji/internal/vtb"
)

// Placement is the product of a placer: how many bytes each application
// holds in each LLC bank, this epoch.
//
// Storage is dense and index-addressed: applications and banks are small
// contiguous IDs, so the allocation matrix is one flat []float64 of shape
// apps×banks and every side table is a slice indexed by AppID. Accessors
// therefore iterate in naturally deterministic (ascending) order — float
// accumulations match the sorted-map iteration the previous map-of-maps
// layout had to enforce by hand — and a Placement can be Reset and reused
// across epochs without reallocating.
type Placement struct {
	Machine Machine

	banks int
	napps int       // materialized application rows
	alloc []float64 // napps×banks, row-major: alloc[app*banks+bank]

	// Side tables, indexed by AppID (see the setter/getter docs).
	unpartitioned []bool
	overlay       []bool
	groupWays     []float64
	timeShared    []float64
	nTimeShared   int

	// Lazily maintained per-app totals and per-bank used-bytes. Both are
	// recomputed on demand in ascending index order (never accumulated
	// incrementally across Adds), so the float results are bit-identical to
	// a from-scratch walk no matter how the placement was built.
	totals      []float64
	totalsDirty []bool
	used        []float64
	usedDirty   []bool

	// WayMasks scratch, reused across calls.
	wmShares []wayShare
	wmOrder  []int
}

// NewPlacement returns an empty placement for the machine.
func NewPlacement(m Machine) *Placement {
	p := &Placement{}
	p.Reset(m)
	return p
}

// Reset reinitializes p to an empty placement for machine m, retaining all
// backing storage. Placers call it on entry so one scratch Placement per
// run cell replaces a fresh set of allocations every epoch.
func (p *Placement) Reset(m Machine) {
	p.Machine = m
	p.banks = m.Banks()
	p.napps = 0
	p.alloc = p.alloc[:0]
	p.unpartitioned = p.unpartitioned[:0]
	p.overlay = p.overlay[:0]
	p.groupWays = p.groupWays[:0]
	p.timeShared = p.timeShared[:0]
	p.nTimeShared = 0
	p.totals = p.totals[:0]
	p.totalsDirty = p.totalsDirty[:0]
	if cap(p.used) < p.banks {
		p.used = make([]float64, p.banks)
		p.usedDirty = make([]bool, p.banks)
	}
	p.used = p.used[:p.banks]
	p.usedDirty = p.usedDirty[:p.banks]
	for b := range p.usedDirty {
		p.usedDirty[b] = true
	}
}

// ensureApp materializes application rows up to and including app.
func (p *Placement) ensureApp(app AppID) {
	if int(app) < p.napps {
		return
	}
	n := int(app) + 1
	// Grow the rows in one step: reslice within capacity (growing it once
	// if short) and zero the new tail, which may hold values from before
	// the last Reset.
	if old, need := len(p.alloc), n*p.banks; old < need {
		p.alloc = slices.Grow(p.alloc, need-old)[:need]
		clear(p.alloc[old:])
	}
	for len(p.unpartitioned) < n {
		p.unpartitioned = append(p.unpartitioned, false)
		p.overlay = append(p.overlay, false)
		p.groupWays = append(p.groupWays, 0)
		p.timeShared = append(p.timeShared, 0)
		p.totals = append(p.totals, 0)
		p.totalsDirty = append(p.totalsDirty, true)
	}
	p.napps = n
}

// row returns app's per-bank allocation row, or nil for an unmaterialized app.
func (p *Placement) row(app AppID) []float64 {
	if int(app) < 0 || int(app) >= p.napps {
		return nil
	}
	return p.alloc[int(app)*p.banks : (int(app)+1)*p.banks]
}

// Add reserves bytes of bank b for app. Adding zero or negative bytes is a
// no-op (placers naturally produce zero remainders).
func (p *Placement) Add(app AppID, b topo.TileID, bytes float64) {
	if bytes <= 0 {
		return
	}
	p.ensureApp(app)
	p.alloc[int(app)*p.banks+int(b)] += bytes
	p.totalsDirty[app] = true
	p.usedDirty[b] = true
}

// addToEveryBank is Add(app, b, bytes) for every bank b in order, as one
// call: the same += per bank, one ensureApp, and the same early return when
// bytes <= 0 (a NaN is added).
func (p *Placement) addToEveryBank(app AppID, bytes float64) {
	if bytes <= 0 {
		return
	}
	p.ensureApp(app)
	row := p.alloc[int(app)*p.banks : (int(app)+1)*p.banks]
	for b := range row {
		row[b] += bytes
	}
	p.totalsDirty[app] = true
	for b := range p.usedDirty {
		p.usedDirty[b] = true
	}
}

// adjust adds delta bytes (possibly negative) to app's share of bank b,
// clamping tiny float residue at zero (the dense equivalent of deleting the
// map entry). TradePlacer uses it to apply accepted trades.
func (p *Placement) adjust(app AppID, b topo.TileID, delta float64) {
	p.ensureApp(app)
	i := int(app)*p.banks + int(b)
	p.alloc[i] += delta
	if p.alloc[i] < 1e-6 {
		p.alloc[i] = 0
	}
	p.totalsDirty[app] = true
	p.usedDirty[b] = true
}

// SetUnpartitioned marks app as sharing unenforced (estimated) space: it
// gets no way mask and sees the bank's full associativity.
func (p *Placement) SetUnpartitioned(app AppID) {
	p.ensureApp(app)
	p.unpartitioned[app] = true
}

// Unpartitioned reports whether app's space is an *estimate* of natural
// sharing rather than an enforced partition (the batch pool of the Static
// and Adaptive designs). Unpartitioned applications do not get way masks and
// remain exposed to cross-application conflicts.
func (p *Placement) Unpartitioned(app AppID) bool {
	return int(app) < p.napps && p.unpartitioned[app]
}

// SetOverlay marks app as placed in the Ideal-Batch overlay LLC.
func (p *Placement) SetOverlay(app AppID) {
	p.ensureApp(app)
	if !p.overlay[app] {
		p.overlay[app] = true
		// The app's bytes leave the physical bank accounting.
		for b := 0; b < p.banks; b++ {
			p.usedDirty[b] = true
		}
	}
}

// Overlay reports whether app lives in the Ideal-Batch overlay LLC: its bank
// coordinates are in a *separate copy* of the LLC, so it does not contend
// for physical bank capacity with the rest.
func (p *Placement) Overlay(app AppID) bool {
	return int(app) < p.napps && p.overlay[app]
}

// SetGroupWays overrides the effective associativity app sees: apps sharing
// a pool compete within the pool's ways, not their own share (e.g. VM-Part
// batch apps see their VM's per-bank ways).
func (p *Placement) SetGroupWays(app AppID, ways float64) {
	p.ensureApp(app)
	p.groupWays[app] = ways
}

// GroupWays returns app's pool associativity override, or 0 when unset.
func (p *Placement) GroupWays(app AppID) float64 {
	if int(app) >= p.napps {
		return 0
	}
	return p.groupWays[app]
}

// SetTimeShared marks app's banks as time-multiplexed with another VM at the
// given share of bank time (Sec. IV-B oversubscription): the shared banks
// are flushed on context switch, so security holds but the app restarts cold
// every switch.
func (p *Placement) SetTimeShared(app AppID, share float64) {
	p.ensureApp(app)
	if p.timeShared[app] == 0 && share > 0 {
		p.nTimeShared++
	}
	p.timeShared[app] = share
}

// TimeShared returns app's share of bank time under time multiplexing, or 0
// when app is not time-shared.
func (p *Placement) TimeShared(app AppID) float64 {
	if int(app) >= p.napps {
		return 0
	}
	return p.timeShared[app]
}

// TimeSharedCount returns how many applications are time-shared.
func (p *Placement) TimeSharedCount() int { return p.nTimeShared }

// TotalOf returns app's total allocated bytes.
//
// The cached sum runs in bank order, not insertion order: float addition is
// not associative, so accumulating across Adds would make the total depend
// on placer call order at the ulp level — and those ulps feed back into
// placement decisions. Absent banks contribute an exact +0, which leaves the
// (non-negative) sum bitwise unchanged.
func (p *Placement) TotalOf(app AppID) float64 {
	if int(app) < 0 || int(app) >= p.napps {
		return 0
	}
	if p.totalsDirty[app] {
		row := p.row(app)
		var t float64
		for _, v := range row {
			t += v
		}
		p.totals[app] = t
		p.totalsDirty[app] = false
	}
	return p.totals[app]
}

// BankUsed returns the bytes of bank b committed to physical allocations
// (overlay applications excluded). Apps are summed in ID order so the float
// accumulation is deterministic (see TotalOf).
func (p *Placement) BankUsed(b topo.TileID) float64 {
	if p.usedDirty[b] {
		var t float64
		for app := 0; app < p.napps; app++ {
			if p.overlay[app] {
				continue
			}
			t += p.alloc[app*p.banks+int(b)]
		}
		p.used[b] = t
		p.usedDirty[b] = false
	}
	return p.used[b]
}

// AllocRow returns app's per-bank allocation as a read-only slice indexed
// by bank ID (nil for an app with no allocation). It aliases the
// placement's storage: callers must not modify or retain it across Adds.
// Iterating it in index order visits banks ascending, the canonical
// deterministic accumulation order.
func (p *Placement) AllocRow(app AppID) []float64 { return p.row(app) }

// BankCount returns the number of banks in which app holds space, without
// materializing the bank list.
func (p *Placement) BankCount(app AppID) int {
	n := 0
	for _, v := range p.row(app) {
		if v > 0 {
			n++
		}
	}
	return n
}

// BanksOf returns app's banks (ascending) and matching byte weights.
func (p *Placement) BanksOf(app AppID) (banks []topo.TileID, bytes []float64) {
	row := p.row(app)
	for b, v := range row {
		if v > 0 {
			banks = append(banks, topo.TileID(b))
			bytes = append(bytes, v)
		}
	}
	return banks, bytes
}

// AppendAppsInBank appends the applications holding space in bank b,
// ascending, to dst and returns it. Overlay applications are excluded: they
// are not physically in the bank. Passing a reused dst[:0] makes the
// per-epoch security sweep allocation-free.
func (p *Placement) AppendAppsInBank(dst []AppID, b topo.TileID) []AppID {
	for app := 0; app < p.napps; app++ {
		if p.overlay[app] {
			continue
		}
		if p.alloc[app*p.banks+int(b)] > 0 {
			dst = append(dst, AppID(app))
		}
	}
	return dst
}

// AvgHops returns the capacity-weighted mean one-way hop distance from
// app's core to its allocated banks, or 0 for an empty allocation. It
// panics if core is outside the mesh. The row is walked with running bank
// coordinates, which gives each bank Mesh.Hops's distance without a
// division per bank; the sums accumulate in bank order.
func (p *Placement) AvgHops(app AppID, core topo.TileID) float64 {
	row := p.row(app)
	mesh := p.Machine.Mesh
	c := mesh.Coord(core)
	total, sum := 0.0, 0.0
	x, y := 0, 0
	for _, w := range row {
		if w > 0 {
			total += w * float64(absInt(x-c.X)+absInt(y-c.Y))
			sum += w
		}
		if x++; x == mesh.W {
			x, y = 0, y+1
		}
	}
	if sum <= 0 {
		return 0
	}
	return total / sum
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Descriptor builds the VC placement descriptor realizing app's allocation
// (bank shares proportional to bytes). It returns false for an empty
// allocation.
func (p *Placement) Descriptor(app AppID) (vtb.Descriptor, bool) {
	row := p.row(app)
	var shares map[topo.TileID]float64
	for b, v := range row {
		if v > 0 {
			if shares == nil {
				shares = make(map[topo.TileID]float64)
			}
			shares[topo.TileID(b)] = v
		}
	}
	if shares == nil {
		return vtb.Descriptor{}, false
	}
	return vtb.NewDescriptor(shares), true
}

// MeanWays returns the effective associativity app's data sees. For apps in
// a shared pool (GroupWays set) it is the pool's per-bank ways; for
// unpartitioned apps the full bank associativity; otherwise the
// capacity-weighted mean ways of the app's own partition.
func (p *Placement) MeanWays(app AppID) float64 {
	if w := p.GroupWays(app); w > 0 {
		return w
	}
	if p.Unpartitioned(app) {
		return float64(p.Machine.WaysPerBank)
	}
	row := p.row(app)
	wayBytes := p.Machine.WayBytes()
	var total, weight float64
	for _, by := range row {
		if by > 0 {
			total += (by / wayBytes) * by
			weight += by
		}
	}
	if weight <= 0 {
		return 0
	}
	return total / weight
}

// Validate checks the placement against physical capacity and the input:
// non-negative allocations, no over-committed bank, and every app present.
func (p *Placement) Validate(in *Input) error {
	if p.napps > len(in.Apps) {
		return fmt.Errorf("core: placement for unknown app %d", p.napps-1)
	}
	for app := 0; app < p.napps; app++ {
		for b, bytes := range p.row(AppID(app)) {
			// NaN slips past a plain `bytes < 0` check and then poisons every
			// sum it touches, so it needs its own test.
			if math.IsNaN(bytes) {
				return fmt.Errorf("core: app %d has NaN bytes in bank %d", app, b)
			}
			if bytes < 0 {
				return fmt.Errorf("core: app %d has negative bytes in bank %d", app, b)
			}
		}
	}
	for b := 0; b < p.banks; b++ {
		if used := p.BankUsed(topo.TileID(b)); used > p.Machine.BankBytes*(1+1e-9) {
			return fmt.Errorf("core: bank %d over-committed: %g > %g", b, used, p.Machine.BankBytes)
		}
	}
	for i := range in.Apps {
		if p.TotalOf(AppID(i)) <= 0 {
			return fmt.Errorf("core: app %d (%s) received no capacity", i, in.Apps[i].Name)
		}
	}
	return nil
}

// AppendVMsSharingBank appends the distinct VMs with physical space in bank
// b to dst (ascending) and returns it. Passing a reused dst[:0] avoids a
// per-call allocation.
func (p *Placement) AppendVMsSharingBank(dst []VMID, in *Input, b topo.TileID) []VMID {
	start := len(dst)
	for app := 0; app < p.napps; app++ {
		if p.overlay[app] || p.alloc[app*p.banks+int(b)] <= 0 {
			continue
		}
		vm := in.Apps[app].VM
		seen := false
		for _, v := range dst[start:] {
			if v == vm {
				seen = true
				break
			}
		}
		if !seen {
			dst = append(dst, vm)
		}
	}
	sortVMIDs(dst[start:])
	return dst
}

// IsVMIsolated reports whether no bank is shared by two VMs — Jumanji's
// security guarantee (Sec. VI-D).
func (p *Placement) IsVMIsolated(in *Input) bool {
	for b := 0; b < p.banks; b++ {
		first := VMID(-1)
		hasFirst := false
		for app := 0; app < p.napps; app++ {
			if p.overlay[app] || p.alloc[app*p.banks+b] <= 0 {
				continue
			}
			vm := in.Apps[app].VM
			if !hasFirst {
				first, hasFirst = vm, true
			} else if vm != first {
				return false
			}
		}
	}
	return true
}

// MovedFraction estimates how much of app's cached data a placement change
// from prev to p invalidates. Data homes follow the placement descriptor's
// *bank distribution*, so the moved fraction is the total-variation
// distance between the old and new normalized distributions: pure capacity
// resizes (same bank shares, e.g. a striped S-NUCA allocation shrinking)
// move nothing — Intel CAT revokes ways lazily — while descriptor changes
// that re-home entries trigger the Sec. IV-A background coherence walk.
// A nil prev (first epoch) moves nothing.
func (p *Placement) MovedFraction(app AppID, prev *Placement) float64 {
	if prev == nil {
		return 0
	}
	cur := p.row(app)
	old := prev.row(app)
	curTotal := p.TotalOf(app)
	oldTotal := prev.TotalOf(app)
	if curTotal <= 0 || oldTotal <= 0 {
		return 0
	}
	// Total variation: half the L1 distance between the share distributions.
	// Banks are walked in ascending order, so the float accumulation order
	// never depends on how the placement was built (see TotalOf). A bank in
	// neither allocation adds an exact +0 to the non-negative sum, so it is
	// skipped. A NaN total still makes the result NaN: it needs a NaN or
	// infinite entry in its row, and that bank is walked.
	tv := 0.0
	for b := 0; b < p.banks; b++ {
		var o, c float64
		if b < len(old) {
			o = old[b]
		}
		if b < len(cur) {
			c = cur[b]
		}
		if o == 0 && c == 0 {
			continue
		}
		d := o/oldTotal - c/curTotal
		if d < 0 {
			d = -d
		}
		tv += d
	}
	return tv / 2
}

type wayShare struct {
	app   AppID
	exact float64
	ways  int
	rem   float64
}

// WayMasks computes disjoint per-application way masks for bank b from the
// byte allocations (largest-remainder rounding to whole ways), skipping
// unpartitioned and overlay applications. The masks drive the Intel CAT
// model in the detailed simulator.
func (p *Placement) WayMasks(b topo.TileID) map[AppID]uint64 {
	shares := p.wmShares[:0]
	wayBytes := p.Machine.WayBytes()
	for app := 0; app < p.napps; app++ {
		if p.unpartitioned[app] || p.overlay[app] {
			continue
		}
		if bytes := p.alloc[app*p.banks+int(b)]; bytes > 0 {
			exact := bytes / wayBytes
			shares = append(shares, wayShare{app: AppID(app), exact: exact, ways: int(exact), rem: exact - float64(int(exact))})
		}
	}
	p.wmShares = shares
	if len(shares) == 0 {
		return nil
	}
	assigned := 0
	for i := range shares {
		assigned += shares[i].ways
	}
	// Distribute leftover ways by largest remainder, but never beyond the
	// bank's associativity.
	order := p.wmOrder[:0]
	for i := range shares {
		order = append(order, i)
	}
	p.wmOrder = order
	sort.SliceStable(order, func(i, j int) bool { return shares[order[i]].rem > shares[order[j]].rem })
	for _, i := range order {
		if assigned >= p.Machine.WaysPerBank {
			break
		}
		if shares[i].rem > 0 {
			shares[i].ways++
			assigned++
		}
	}
	masks := make(map[AppID]uint64, len(shares))
	next := 0
	for _, s := range shares {
		if s.ways == 0 {
			continue
		}
		var mask uint64
		for w := 0; w < s.ways && next < p.Machine.WaysPerBank; w++ {
			mask |= 1 << uint(next)
			next++
		}
		if mask != 0 {
			masks[s.app] = mask
		}
	}
	return masks
}
