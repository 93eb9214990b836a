package cache

import (
	"jumanji/internal/bank"
	"jumanji/internal/noc"
	"jumanji/internal/obs"
	"jumanji/internal/sim"
	"jumanji/internal/topo"
)

// TimedLLC is the event-driven LLC path used by the attack demonstrations:
// a request travels the NoC from the requesting core's tile to the target
// bank, contends for the bank's limited ports, then the response travels
// back. Total latency — including NoC and port queueing — is what the
// attacker measures in the Fig. 11 port attack.
type TimedLLC struct {
	eng   *sim.Engine
	net   *noc.Network
	banks []*bank.TimedBank

	// ReqBytes and RespBytes size the request and response messages
	// (a header-only request and a 64 B data response by default).
	ReqBytes, RespBytes int
}

// TimedConfig configures a TimedLLC.
type TimedConfig struct {
	Mesh        topo.Mesh
	NoC         noc.Config
	Bank        bank.Config
	BankPorts   int      // ports per bank (1 in the port-attack setting)
	BankLatency sim.Time // port occupancy per access (Table II: 13 cycles)
}

// DefaultTimedConfig returns the Table II timed LLC over the given mesh.
func DefaultTimedConfig(mesh topo.Mesh) TimedConfig {
	return TimedConfig{
		Mesh:        mesh,
		NoC:         noc.DefaultConfig(),
		Bank:        bank.Config{Sets: 512, Ways: 32, LineSize: 64, Policy: bank.DRRIP},
		BankPorts:   1,
		BankLatency: 13,
	}
}

// NewTimed builds the event-driven LLC on the given engine.
func NewTimed(eng *sim.Engine, cfg TimedConfig) *TimedLLC {
	t := &TimedLLC{
		eng:       eng,
		net:       noc.New(eng, cfg.Mesh, cfg.NoC),
		banks:     make([]*bank.TimedBank, cfg.Mesh.Tiles()),
		ReqBytes:  0,
		RespBytes: int(cfg.Bank.LineSize),
	}
	for i := range t.banks {
		t.banks[i] = bank.NewTimed(eng, cfg.Bank, cfg.BankPorts, cfg.BankLatency)
	}
	return t
}

// Instrument registers NoC metrics (noc.{delivered,hops,latency_cycles})
// for the timed LLC's network. A nil registry is a no-op.
func (t *TimedLLC) Instrument(reg *obs.Registry) {
	t.net.Instrument(reg, "noc")
}

// Bank returns the timed bank at tile b.
func (t *TimedLLC) Bank(b topo.TileID) *bank.TimedBank { return t.banks[b] }

// Result is the outcome of a timed LLC access.
type Result struct {
	Hit     bool
	Latency sim.Time // issue-to-response cycles including all queueing
}

// Access issues an LLC access from tile `from` to bank `target` and invokes
// done (may be nil) with the end-to-end result.
func (t *TimedLLC) Access(from, target topo.TileID, addr uint64, p bank.PartitionID, done func(Result)) {
	start := t.eng.Now()
	t.net.Send(from, target, t.ReqBytes, func(sim.Time) {
		t.banks[target].AccessTimed(addr, p, func(r bank.AccessResult) {
			t.net.Send(target, from, t.RespBytes, func(sim.Time) {
				if done != nil {
					done(Result{Hit: r.Hit, Latency: t.eng.Now() - start})
				}
			})
		})
	})
}
