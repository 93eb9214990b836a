package main

import (
	"math"
	"sort"

	"jumanji/internal/core"
)

// timedPlacer is the benchmark's placement probe: a core.ScratchPlacer that
// forwards every call to core.PlaceWith on the wrapped placer, records a
// "core.place" span around it, and counts calls whose input is bit-identical
// to the previous call's. It is handed to system.Run and driver.Config in
// traced passes only; untraced passes use the bare placer.
//
// One timedPlacer serves one sequential caller (a system.Run or a driver),
// so it needs no lock; the caller sets parent and op before each call that
// should nest under a different span.
type timedPlacer struct {
	inner  core.Placer
	tr     *tracer
	parent int
	op     int

	prev    inputCopy
	hasPrev bool
}

func newTimedPlacer(inner core.Placer, tr *tracer, parent, op int) *timedPlacer {
	return &timedPlacer{inner: inner, tr: tr, parent: parent, op: op}
}

// Name implements core.Placer.
func (p *timedPlacer) Name() string { return p.inner.Name() }

// Place implements core.Placer.
func (p *timedPlacer) Place(in *core.Input) *core.Placement { return p.PlaceInto(in, nil) }

// PlaceInto implements core.ScratchPlacer.
func (p *timedPlacer) PlaceInto(in *core.Input, pl *core.Placement) *core.Placement {
	// The repeat check is the benchmark's own work: its span keeps it out
	// of the caller's self time.
	id := p.tr.begin("bench.probe", "", p.parent, p.op)
	if p.hasPrev && p.prev.equal(in) {
		p.tr.count("core.place.repeats", 1)
	}
	p.prev.store(in)
	p.hasPrev = true
	p.tr.end(id)

	id = p.tr.begin("core.place", p.inner.Name(), p.parent, p.op)
	pl = core.PlaceWith(p.inner, in, pl)
	p.tr.end(id)
	return pl
}

// inputCopy holds a deep copy of a core.Input's placement-relevant fields
// (everything but the provenance sink), reusing its buffers across calls.
type inputCopy struct {
	machine core.Machine
	apps    []appCopy
	lat     []latSize
}

type appCopy struct {
	name  string
	vm    core.VMID
	core  int
	lc    bool
	unit  uint64
	curve []uint64
	rate  uint64
}

type latSize struct {
	app  core.AppID
	size uint64
}

func (c *inputCopy) store(in *core.Input) {
	c.machine = in.Machine
	if cap(c.apps) < len(in.Apps) {
		c.apps = append(c.apps[:cap(c.apps)], make([]appCopy, len(in.Apps)-cap(c.apps))...)
	}
	c.apps = c.apps[:len(in.Apps)]
	for i, a := range in.Apps {
		ac := &c.apps[i]
		ac.name, ac.vm, ac.core, ac.lc = a.Name, a.VM, int(a.Core), a.LatencyCritical
		ac.unit, ac.rate = math.Float64bits(a.MissRatio.Unit), math.Float64bits(a.AccessRate)
		ac.curve = ac.curve[:0]
		for _, m := range a.MissRatio.M {
			ac.curve = append(ac.curve, math.Float64bits(m))
		}
	}
	c.lat = sortedLatSizes(c.lat[:0], in.LatSizes)
}

func (c *inputCopy) equal(in *core.Input) bool {
	m := in.Machine
	if m.Mesh.W != c.machine.Mesh.W || m.Mesh.H != c.machine.Mesh.H ||
		math.Float64bits(m.BankBytes) != math.Float64bits(c.machine.BankBytes) ||
		m.WaysPerBank != c.machine.WaysPerBank || len(in.Apps) != len(c.apps) ||
		len(in.LatSizes) != len(c.lat) {
		return false
	}
	for i, a := range in.Apps {
		ac := &c.apps[i]
		if a.Name != ac.name || a.VM != ac.vm || int(a.Core) != ac.core || a.LatencyCritical != ac.lc ||
			math.Float64bits(a.MissRatio.Unit) != ac.unit || math.Float64bits(a.AccessRate) != ac.rate ||
			len(a.MissRatio.M) != len(ac.curve) {
			return false
		}
		for j, v := range a.MissRatio.M {
			if math.Float64bits(v) != ac.curve[j] {
				return false
			}
		}
	}
	for _, l := range c.lat {
		s, ok := in.LatSizes[l.app]
		if !ok || math.Float64bits(s) != l.size {
			return false
		}
	}
	return true
}

func sortedLatSizes(dst []latSize, m map[core.AppID]float64) []latSize {
	for app, s := range m {
		dst = append(dst, latSize{app: app, size: math.Float64bits(s)})
	}
	sort.Slice(dst, func(i, j int) bool { return dst[i].app < dst[j].app })
	return dst
}
