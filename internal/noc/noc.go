// Package noc models the mesh network-on-chip connecting tiles (Table II:
// 128-bit flits and links, X-Y routing, 2-cycle pipelined routers, 1-cycle
// links). It provides both an analytic per-hop latency for the epoch
// performance model and an event-driven message model with per-link
// contention for the detailed simulator — NoC contention is part of the
// port-attack signal in Fig. 11.
package noc

import (
	"fmt"

	"jumanji/internal/obs"
	"jumanji/internal/sim"
	"jumanji/internal/topo"
)

// Config describes NoC timing.
type Config struct {
	RouterDelay sim.Time // cycles per router traversal (Fig. 18 sweeps 1..3)
	LinkDelay   sim.Time // cycles per link traversal
	FlitBytes   int      // bytes per flit (128-bit flits = 16 B)
}

// DefaultConfig returns the Table II NoC: 2-cycle routers, 1-cycle links,
// 16-byte flits.
func DefaultConfig() Config {
	return Config{RouterDelay: 2, LinkDelay: 1, FlitBytes: 16}
}

// Flits returns the number of flits needed to carry a payload of the given
// size (minimum 1, for header-only control messages).
func (c Config) Flits(payloadBytes int) int {
	if c.FlitBytes <= 0 {
		panic("noc: non-positive flit size")
	}
	if payloadBytes <= 0 {
		return 1
	}
	return (payloadBytes + c.FlitBytes - 1) / c.FlitBytes
}

// HopCycles returns the uncontended cycles consumed per hop.
func (c Config) HopCycles() sim.Time {
	return c.RouterDelay + c.LinkDelay
}

// UncontendedLatency returns the cycles for a message of the given payload
// to travel `hops` hops with no contention: per-hop router+link delay plus
// serialization of the remaining flits behind the head flit.
func (c Config) UncontendedLatency(hops, payloadBytes int) sim.Time {
	if hops <= 0 {
		return 0
	}
	head := sim.Time(hops) * c.HopCycles()
	tail := sim.Time(c.Flits(payloadBytes) - 1) // body flits pipeline behind the head
	return head + tail
}

// edge is a directed link between adjacent tiles.
type edge struct {
	from, to topo.TileID
}

// Network is an event-driven mesh NoC with per-link FIFO contention.
// Each directed link is a single-server queue occupied for one flit-time
// per flit of a traversing message.
type Network struct {
	cfg   Config
	mesh  topo.Mesh
	eng   *sim.Engine
	links map[edge]*sim.Server

	// routeFree recycles route buffers across messages: Send pops one (or
	// allocates on a cold start), holds it for the message's lifetime, and the
	// delivery branch pushes it back. The engine is single-threaded, so no
	// locking; steady-state traffic routes without touching the heap.
	routeFree [][]topo.TileID

	// Delivered counts messages that completed traversal.
	Delivered uint64

	// Optional registry metrics (nil when uninstrumented).
	obsDelivered *obs.Counter
	obsHops      *obs.Counter
	obsLatency   *obs.Histogram
}

// Instrument registers delivery count, hop count, and end-to-end latency
// metrics under prefix.{delivered,hops,latency_cycles}. A nil registry
// leaves the network uninstrumented.
func (n *Network) Instrument(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	n.obsDelivered = reg.Counter(prefix + ".delivered")
	n.obsHops = reg.Counter(prefix + ".hops")
	n.obsLatency = reg.Histogram(prefix+".latency_cycles", 0, 512, 64)
}

// New builds a network over the mesh on the given engine.
func New(eng *sim.Engine, mesh topo.Mesh, cfg Config) *Network {
	if cfg.FlitBytes <= 0 {
		panic("noc: config needs positive FlitBytes")
	}
	n := &Network{cfg: cfg, mesh: mesh, eng: eng, links: make(map[edge]*sim.Server)}
	for id := 0; id < mesh.Tiles(); id++ {
		from := topo.TileID(id)
		p := mesh.Coord(from)
		for _, q := range []topo.Point{{X: p.X + 1, Y: p.Y}, {X: p.X - 1, Y: p.Y}, {X: p.X, Y: p.Y + 1}, {X: p.X, Y: p.Y - 1}} {
			if q.X < 0 || q.X >= mesh.W || q.Y < 0 || q.Y >= mesh.H {
				continue
			}
			to := mesh.ID(q)
			n.links[edge{from, to}] = sim.NewServer(eng, 1)
		}
	}
	return n
}

// Send injects a message of payloadBytes from tile `from` to tile `to`.
// done (may be nil) is invoked on delivery with the total network latency.
// A message to the local tile is delivered immediately with zero latency.
// Traversal is hop-by-hop: at each hop the message occupies the link for
// its serialization time plus the link delay, then pays the router delay.
func (n *Network) Send(from, to topo.TileID, payloadBytes int, done func(latency sim.Time)) {
	start := n.eng.Now()
	if from == to {
		if done != nil {
			done(0)
		}
		return
	}
	var buf []topo.TileID
	if k := len(n.routeFree); k > 0 {
		buf, n.routeFree = n.routeFree[k-1][:0], n.routeFree[:k-1]
	}
	route := n.mesh.RouteAppend(buf, from, to)
	flits := sim.Time(n.cfg.Flits(payloadBytes))
	var hop func(i int)
	hop = func(i int) {
		if i == len(route)-1 {
			n.Delivered++
			n.obsDelivered.Inc()
			n.obsHops.Add(uint64(len(route) - 1))
			n.obsLatency.Observe(float64(n.eng.Now() - start))
			n.routeFree = append(n.routeFree, route)
			if done != nil {
				done(n.eng.Now() - start)
			}
			return
		}
		link, ok := n.links[edge{route[i], route[i+1]}]
		if !ok {
			panic(fmt.Sprintf("noc: no link %d->%d on route", route[i], route[i+1]))
		}
		// The link is occupied for the full serialization time; the router
		// pipeline delay is paid after the link transfer.
		link.Use(flits*n.cfg.LinkDelay, func() {
			n.eng.Schedule(n.cfg.RouterDelay, func() { hop(i + 1) })
		})
	}
	hop(0)
}

// QueuedCycles returns total cycles messages spent queueing on links —
// an aggregate congestion measure.
func (n *Network) QueuedCycles() uint64 {
	var total uint64
	for _, s := range n.links {
		total += s.TotalQueuedCycles
	}
	return total
}
