package obs

import (
	"bytes"
	"fmt"

	"jumanji/internal/obs/tsdb"
	"jumanji/internal/parallel"
)

// Sinks is a run's observability bundle and the one place its sinks are
// declared: jumanji.Options, harness.Options, and system.Config embed it, so
// handing a run its sinks is one assignment (cfg.Sinks = o.Sinks). Every
// field is optional; nil disables it at the cost of a nil check.
//
// Metrics, Events, Trace, TS, and Prov are the deterministic sinks. They are
// single-threaded, so a fan-out gives each cell private mirrors (Cell) and
// folds them back in cell order (Merge), which keeps the merged bytes
// identical at any worker count. Spans is concurrency-safe and shared by
// every cell as-is. Progress and the Publish hooks belong to the fan-out:
// the sweep engine and Merge read them, and a simulator run ignores them.
type Sinks struct {
	// Metrics is the counter/gauge/histogram registry.
	Metrics *Registry
	// Events receives the JSONL epoch decision log.
	Events *EventLog
	// Trace receives Chrome trace events, one lane per run, so runs sharing
	// a Trace render as stacked timelines.
	Trace *Trace
	// TS is the flight-recorder time-series store. With Metrics also set, a
	// run samples the registry into it once per epoch (Recorder): counter
	// deltas, gauge values, and per-epoch histogram quantiles.
	TS *tsdb.DB
	// Prov is the placement-provenance log: schema v3 placement_decision
	// and placement_valve records saying why each VM/app landed where it
	// did.
	Prov *EventLog
	// Spans times simulator phases (placement, epoch model, per-run cells)
	// on the wall clock.
	Spans *Spans
	// Progress is updated lock-free as a fan-out's cells complete; live
	// readers (the -status server) snapshot it. It never affects results.
	Progress *parallel.Progress
	// PublishMetrics receives a snapshot of Metrics after every merge, the
	// point where no worker holds the registry.
	PublishMetrics func([]MetricSnapshot)
	// PublishTimeseries receives a dump of TS after every merge.
	PublishTimeseries func([]tsdb.SeriesData)
	// PublishProvenance receives each merged cell's decoded provenance
	// records, in cell order.
	PublishProvenance func([]Event)
}

// Cell is one worker cell's private set of observability sinks. The
// parallel experiment engine cannot hand concurrent runs the user's shared
// sinks (every deterministic sink is single-goroutine by design), so each
// cell records into a Cell mirroring which user sinks are enabled, and the
// cells merge back in cell-index order once the pool drains. Because merging
// is order-deterministic — counters add, event logs renumber their sequence,
// trace lanes remap to the next free pids, tsdb samples append in series
// registration order — the merged output is byte-for-byte what a serial run
// would have produced.
type Cell struct {
	// Sinks holds the cell-private deterministic sinks, each nil when the
	// corresponding user sink is nil, plus the shared Spans. Progress and
	// the publish hooks stay with the fan-out and are nil here.
	Sinks

	eventsBuf *bytes.Buffer
	provBuf   *bytes.Buffer
}

// Cell returns private sinks mirroring the enabled deterministic ones among
// s, sharing s.Spans. The cell's EventLogs write into in-memory buffers
// replayed at merge time; its Trace accumulates events for lane-remapped
// merging and is never Closed; its TS has s.TS's per-series capacity.
func (s Sinks) Cell() *Cell {
	c := &Cell{Sinks: Sinks{Spans: s.Spans}}
	if s.Metrics != nil {
		c.Metrics = NewRegistry()
	}
	if s.Events != nil {
		c.eventsBuf = &bytes.Buffer{}
		c.Events = NewEventLog(c.eventsBuf)
	}
	if s.Trace != nil {
		c.Trace = NewTrace(nil)
	}
	if s.TS != nil {
		c.TS = tsdb.New(s.TS.Cap())
	}
	if s.Prov != nil {
		c.provBuf = &bytes.Buffer{}
		c.Prov = NewEventLog(c.provBuf)
	}
	return c
}

// Merge folds cells into s in slice order, skipping nil cells, then fires
// the publish hooks: PublishProvenance once per cell that recorded
// provenance, in cell order, and PublishMetrics and PublishTimeseries once
// with the merged state. Callers merge each cell exactly once, from the
// goroutine that owns s; the hooks run there and receive copies, safe to
// hand to other goroutines. The first event-log error (from this or an
// earlier append) is returned, matching EventLog's poison-on-error
// convention.
func (s Sinks) Merge(cells []*Cell) error {
	for _, c := range cells {
		if c == nil {
			continue
		}
		s.Metrics.Merge(c.Metrics)
		s.Trace.Merge(c.Trace)
		s.TS.Merge(c.TS)
		if c.provBuf != nil {
			if err := s.Prov.AppendJSONL(c.provBuf.Bytes()); err != nil {
				return err
			}
		}
		if c.eventsBuf != nil {
			if err := s.Events.AppendJSONL(c.eventsBuf.Bytes()); err != nil {
				return err
			}
		}
		if s.PublishProvenance != nil && c.provBuf != nil && c.provBuf.Len() > 0 {
			evs, err := DecodeEventLog(c.provBuf.Bytes())
			if err != nil {
				return fmt.Errorf("obs: decoding cell provenance: %w", err)
			}
			s.PublishProvenance(evs)
		}
	}
	if s.PublishMetrics != nil {
		s.PublishMetrics(s.Metrics.Snapshot())
	}
	if s.PublishTimeseries != nil {
		s.PublishTimeseries(s.TS.Dump())
	}
	return nil
}
