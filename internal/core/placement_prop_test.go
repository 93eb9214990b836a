package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"jumanji/internal/topo"
)

// refPlacement is the retained map-of-maps reference implementation of
// Placement (the layout before the dense refactor), kept verbatim so the
// property test below can assert the dense accessors are bit-for-bit
// identical to it under arbitrary operation sequences.
type refPlacement struct {
	Machine       Machine
	Alloc         map[AppID]map[topo.TileID]float64
	Unpartitioned map[AppID]bool
	OverlayApps   map[AppID]bool
	GroupWays     map[AppID]float64
	TimeShared    map[AppID]float64
}

func newRefPlacement(m Machine) *refPlacement {
	return &refPlacement{
		Machine:       m,
		Alloc:         make(map[AppID]map[topo.TileID]float64),
		Unpartitioned: make(map[AppID]bool),
		OverlayApps:   make(map[AppID]bool),
		GroupWays:     make(map[AppID]float64),
		TimeShared:    make(map[AppID]float64),
	}
}

func (p *refPlacement) Add(app AppID, b topo.TileID, bytes float64) {
	if bytes <= 0 {
		return
	}
	m, ok := p.Alloc[app]
	if !ok {
		m = make(map[topo.TileID]float64)
		p.Alloc[app] = m
	}
	m[b] += bytes
}

func (p *refPlacement) adjust(app AppID, b topo.TileID, delta float64) {
	m := p.Alloc[app]
	if m == nil {
		m = make(map[topo.TileID]float64)
		p.Alloc[app] = m
	}
	m[b] += delta
	if m[b] < 1e-6 {
		delete(m, b)
	}
}

func (p *refPlacement) TotalOf(app AppID) float64 {
	m := p.Alloc[app]
	var t float64
	for b := 0; b < p.Machine.Banks(); b++ {
		t += m[topo.TileID(b)]
	}
	return t
}

func (p *refPlacement) BankUsed(b topo.TileID) float64 {
	apps := make([]AppID, 0, len(p.Alloc))
	for app := range p.Alloc {
		apps = append(apps, app)
	}
	sort.Slice(apps, func(i, j int) bool { return apps[i] < apps[j] })
	var t float64
	for _, app := range apps {
		if p.OverlayApps[app] {
			continue
		}
		t += p.Alloc[app][b]
	}
	return t
}

func (p *refPlacement) BanksOf(app AppID) (banks []topo.TileID, bytes []float64) {
	m := p.Alloc[app]
	banks = make([]topo.TileID, 0, len(m))
	for b := range m {
		banks = append(banks, b)
	}
	sort.Slice(banks, func(i, j int) bool { return banks[i] < banks[j] })
	bytes = make([]float64, len(banks))
	for i, b := range banks {
		bytes[i] = m[b]
	}
	return banks, bytes
}

func (p *refPlacement) AppendAppsInBank(dst []AppID, b topo.TileID) []AppID {
	var out []AppID
	for app, banks := range p.Alloc {
		if p.OverlayApps[app] {
			continue
		}
		if banks[b] > 0 {
			out = append(out, app)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return append(dst, out...)
}

func (p *refPlacement) AvgHops(app AppID, core topo.TileID) float64 {
	banks, bytes := p.BanksOf(app)
	total, sum := 0.0, 0.0
	for i, b := range banks {
		total += bytes[i] * float64(p.Machine.Mesh.Hops(core, b))
		sum += bytes[i]
	}
	if sum <= 0 {
		return 0
	}
	return total / sum
}

func (p *refPlacement) MeanWays(app AppID) float64 {
	if w, ok := p.GroupWays[app]; ok && w > 0 {
		return w
	}
	if p.Unpartitioned[app] {
		return float64(p.Machine.WaysPerBank)
	}
	banks, bytes := p.BanksOf(app)
	if len(banks) == 0 {
		return 0
	}
	wayBytes := p.Machine.WayBytes()
	var total, weight float64
	for _, by := range bytes {
		total += (by / wayBytes) * by
		weight += by
	}
	return total / weight
}

func (p *refPlacement) Validate(in *Input) error {
	for app, banks := range p.Alloc {
		if int(app) < 0 || int(app) >= len(in.Apps) {
			return fmt.Errorf("core: placement for unknown app %d", app)
		}
		for b, bytes := range banks {
			if int(b) < 0 || int(b) >= p.Machine.Banks() {
				return fmt.Errorf("core: app %d placed in invalid bank %d", app, b)
			}
			if bytes < 0 {
				return fmt.Errorf("core: app %d has negative bytes in bank %d", app, b)
			}
		}
	}
	for b := 0; b < p.Machine.Banks(); b++ {
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

func (p *refPlacement) AppendVMsSharingBank(dst []VMID, in *Input, b topo.TileID) []VMID {
	seen := make(map[VMID]bool)
	for _, app := range p.AppendAppsInBank(nil, b) {
		seen[in.Apps[app].VM] = true
	}
	out := make([]VMID, 0, len(seen))
	for vm := range seen {
		out = append(out, vm)
	}
	sortVMIDs(out)
	return append(dst, out...)
}

func (p *refPlacement) MovedFraction(app AppID, prev *refPlacement) float64 {
	if prev == nil {
		return 0
	}
	cur := p.Alloc[app]
	old := prev.Alloc[app]
	curTotal := p.TotalOf(app)
	oldTotal := prev.TotalOf(app)
	if len(old) == 0 || len(cur) == 0 || curTotal <= 0 || oldTotal <= 0 {
		return 0
	}
	tv := 0.0
	for b := 0; b < p.Machine.Banks(); b++ {
		id := topo.TileID(b)
		d := old[id]/oldTotal - cur[id]/curTotal
		if d < 0 {
			d = -d
		}
		tv += d
	}
	return tv / 2
}

func (p *refPlacement) WayMasks(b topo.TileID) map[AppID]uint64 {
	type share struct {
		app   AppID
		exact float64
		ways  int
		rem   float64
	}
	var shares []share
	wayBytes := p.Machine.WayBytes()
	for app, banks := range p.Alloc {
		if p.Unpartitioned[app] || p.OverlayApps[app] {
			continue
		}
		if bytes := banks[b]; bytes > 0 {
			exact := bytes / wayBytes
			shares = append(shares, share{app: app, exact: exact, ways: int(exact), rem: exact - float64(int(exact))})
		}
	}
	if len(shares) == 0 {
		return nil
	}
	sort.Slice(shares, func(i, j int) bool { return shares[i].app < shares[j].app })
	assigned := 0
	for i := range shares {
		assigned += shares[i].ways
	}
	order := make([]int, len(shares))
	for i := range order {
		order[i] = i
	}
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

// mutatePair applies one random operation to both placements identically.
func mutatePair(rng *rand.Rand, in *Input, dense *Placement, ref *refPlacement) {
	app := AppID(rng.Intn(len(in.Apps)))
	b := topo.TileID(rng.Intn(in.Machine.Banks()))
	switch rng.Intn(10) {
	case 0, 1, 2, 3, 4: // Add dominates, as in real placers.
		bytes := (rng.Float64()*2 - 0.1) * in.Machine.WayBytes() // ~5% non-positive no-ops
		dense.Add(app, b, bytes)
		ref.Add(app, b, bytes)
	case 5, 6: // trade-style adjust, including removals and tiny residue
		delta := (rng.Float64() - 0.5) * in.Machine.WayBytes()
		if rng.Intn(4) == 0 {
			delta = -dense.TotalOf(app) // drive shares to the 1e-6 clamp
		}
		dense.adjust(app, b, delta)
		ref.adjust(app, b, delta)
	case 7:
		dense.SetOverlay(app)
		ref.OverlayApps[app] = true
	case 8:
		dense.SetUnpartitioned(app)
		ref.Unpartitioned[app] = true
		w := rng.Float64() * float64(in.Machine.WaysPerBank)
		dense.SetGroupWays(app, w)
		ref.GroupWays[app] = w
	case 9:
		s := rng.Float64()
		dense.SetTimeShared(app, s)
		ref.TimeShared[app] = s
	}
}

// comparePair asserts every accessor of the dense placement matches the
// map-based reference bit-for-bit (==, no tolerance).
func comparePair(t *testing.T, in *Input, dense, densePrev *Placement, ref, refPrev *refPlacement) {
	t.Helper()
	m := in.Machine
	queryApps := len(in.Apps) + 2 // also probe apps beyond the materialized rows
	for a := 0; a < queryApps; a++ {
		app := AppID(a)
		core := in.Apps[a%len(in.Apps)].Core
		if got, want := dense.TotalOf(app), ref.TotalOf(app); got != want {
			t.Fatalf("TotalOf(%d) = %v, ref %v", app, got, want)
		}
		if got, want := dense.AvgHops(app, core), ref.AvgHops(app, core); got != want {
			t.Fatalf("AvgHops(%d) = %v, ref %v", app, got, want)
		}
		if got, want := dense.MeanWays(app), ref.MeanWays(app); got != want {
			t.Fatalf("MeanWays(%d) = %v, ref %v", app, got, want)
		}
		if got, want := dense.MovedFraction(app, densePrev), ref.MovedFraction(app, refPrev); got != want {
			t.Fatalf("MovedFraction(%d) = %v, ref %v", app, got, want)
		}
		gb, gby := dense.BanksOf(app)
		wb, wby := ref.BanksOf(app)
		if len(gb) != len(wb) {
			t.Fatalf("BanksOf(%d): %d banks, ref %d", app, len(gb), len(wb))
		}
		for i := range gb {
			if gb[i] != wb[i] || gby[i] != wby[i] {
				t.Fatalf("BanksOf(%d)[%d] = (%d, %v), ref (%d, %v)", app, i, gb[i], gby[i], wb[i], wby[i])
			}
		}
	}
	for b := 0; b < m.Banks(); b++ {
		id := topo.TileID(b)
		if got, want := dense.BankUsed(id), ref.BankUsed(id); got != want {
			t.Fatalf("BankUsed(%d) = %v, ref %v", b, got, want)
		}
		ga, wa := dense.AppendAppsInBank(nil, id), ref.AppendAppsInBank(nil, id)
		if len(ga) != len(wa) {
			t.Fatalf("AppendAppsInBank(%d): %v, ref %v", b, ga, wa)
		}
		for i := range ga {
			if ga[i] != wa[i] {
				t.Fatalf("AppendAppsInBank(%d): %v, ref %v", b, ga, wa)
			}
		}
		gv, wv := dense.AppendVMsSharingBank(nil, in, id), ref.AppendVMsSharingBank(nil, in, id)
		if len(gv) != len(wv) {
			t.Fatalf("AppendVMsSharingBank(%d): %v, ref %v", b, gv, wv)
		}
		for i := range gv {
			if gv[i] != wv[i] {
				t.Fatalf("AppendVMsSharingBank(%d): %v, ref %v", b, gv, wv)
			}
		}
		gm, wm := dense.WayMasks(id), ref.WayMasks(id)
		if len(gm) != len(wm) {
			t.Fatalf("WayMasks(%d) = %v, ref %v", b, gm, wm)
		}
		for app, mask := range wm {
			if gm[app] != mask {
				t.Fatalf("WayMasks(%d)[%d] = %b, ref %b", b, app, gm[app], mask)
			}
		}
	}
	gotErr, wantErr := dense.Validate(in), ref.Validate(in)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("Validate: %v, ref %v", gotErr, wantErr)
	}
}

// TestPlacementDenseMatchesReference drives the dense Placement and the
// retained map-based reference through identical random operation
// sequences — Adds, trade adjusts, and side-table updates — and asserts
// every accessor agrees bit-for-bit at every step, including across a Reset
// (scratch reuse must leave no residue).
func TestPlacementDenseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := testWorkload(4, 4, rng)
	for trial := 0; trial < 25; trial++ {
		dense := NewPlacement(in.Machine)
		ref := newRefPlacement(in.Machine)
		// Exercise Reset reuse on odd trials: a dirty placement Reset must
		// behave exactly like a fresh one.
		if trial%2 == 1 {
			for i := 0; i < 30; i++ {
				mutatePair(rng, in, dense, newRefPlacement(in.Machine))
			}
			dense.Reset(in.Machine)
		}
		var densePrev *Placement
		var refPrev *refPlacement
		if trial%3 == 0 { // sometimes compare MovedFraction against a real prev
			densePrev = NewPlacement(in.Machine)
			refPrev = newRefPlacement(in.Machine)
			for i := 0; i < 40; i++ {
				app := AppID(rng.Intn(len(in.Apps)))
				b := topo.TileID(rng.Intn(in.Machine.Banks()))
				bytes := rng.Float64() * in.Machine.WayBytes()
				densePrev.Add(app, b, bytes)
				refPrev.Add(app, b, bytes)
			}
		}
		steps := 1 + rng.Intn(120)
		for s := 0; s < steps; s++ {
			mutatePair(rng, in, dense, ref)
		}
		comparePair(t, in, dense, densePrev, ref, refPrev)
	}
}

// avgHopsReference is AvgHops as one Mesh.Hops call per bank.
func avgHopsReference(p *Placement, app AppID, c topo.TileID) float64 {
	total, sum := 0.0, 0.0
	for b, w := range p.AllocRow(app) {
		if w > 0 {
			total += w * float64(p.Machine.Mesh.Hops(c, topo.TileID(b)))
			sum += w
		}
	}
	if sum <= 0 {
		return 0
	}
	return total / sum
}

// TestAvgHopsMatchesMeshHops pins AvgHops's running-coordinate walk to the
// Mesh.Hops form bitwise, from every core, on random rows (zeros, magnitudes
// spread over many binades), an all-zero row and an unmaterialized app, on
// 1×N, N×1, 5×4 and 16×16 meshes.
func TestAvgHopsMatchesMeshHops(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, d := range [][2]int{{1, 9}, {9, 1}, {5, 4}, {16, 16}} {
		m := DefaultMachine()
		m.Mesh = topo.NewMesh(d[0], d[1])
		p := NewPlacement(m)
		const rows = 6
		for app := 1; app < rows; app++ { // app 0 stays all-zero
			for b := 0; b < m.Banks(); b++ {
				if rng.Intn(3) > 0 {
					p.Add(AppID(app), topo.TileID(b), rng.Float64()*math.Ldexp(1, rng.Intn(60)-20))
				}
			}
		}
		for app := 0; app <= rows; app++ { // app rows is unmaterialized
			for c := 0; c < m.Banks(); c++ {
				got := p.AvgHops(AppID(app), topo.TileID(c))
				want := avgHopsReference(p, AppID(app), topo.TileID(c))
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%dx%d app %d core %d: AvgHops %v, Mesh.Hops form %v", d[0], d[1], app, c, got, want)
				}
			}
		}
	}
}
