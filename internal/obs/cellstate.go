package obs

import (
	"bytes"
	"encoding/json"
	"fmt"

	"jumanji/internal/obs/tsdb"
)

// MetricState is one metric's full internal state — unlike MetricSnapshot it
// is lossless (counter counts stay uint64, a gauge remembers whether it was
// ever set) and preserves registration order by slice position, so a
// registry rebuilt from it merges exactly like the original.
type MetricState struct {
	Name  string
	Kind  Kind
	Count uint64   // counter count, or histogram observation count
	Value float64  // gauge value
	Set   bool     // gauge was ever set (merge semantics depend on it)
	Sum   float64  // histogram observation sum
	Lo    float64  // histogram lower bound
	Hi    float64  // histogram upper bound
	Bins  []uint64 // histogram bin counts
}

// CellState is a serializable snapshot of a Cell's private sinks, the unit
// the cell journal persists. All fields are exported (gob carries them) and
// the encoding is lossless with respect to merging: replaying a journalled
// CellState through CellFromState and Sinks.Merge produces byte-identical
// user sink output to re-running the cell.
type CellState struct {
	Metrics      []MetricState
	Events       []byte // the cell's JSONL event-log bytes, verbatim
	Trace        []byte // the cell's trace events as a JSON array
	TS           []byte // the cell's tsdb dump (versioned JSON, carries capacity)
	Prov         []byte // the cell's provenance JSONL bytes, verbatim
	TraceNextPid int
}

// State snapshots the cell's sinks. Each enabled sink contributes its
// complete internal state; disabled sinks contribute nothing and replay as
// no-ops.
func (c *Cell) State() (CellState, error) {
	var st CellState
	if c == nil {
		return st, nil
	}
	if c.Metrics != nil {
		st.Metrics = c.Metrics.state()
	}
	if c.eventsBuf != nil {
		st.Events = bytes.Clone(c.eventsBuf.Bytes())
	}
	if c.provBuf != nil {
		st.Prov = bytes.Clone(c.provBuf.Bytes())
	}
	if c.Trace != nil {
		b, err := json.Marshal(c.Trace.events)
		if err != nil {
			return CellState{}, fmt.Errorf("obs: encoding cell trace: %w", err)
		}
		st.Trace = b
		st.TraceNextPid = c.Trace.nextPid
	}
	if c.TS != nil {
		var buf bytes.Buffer
		if err := c.TS.Write(&buf); err != nil {
			return CellState{}, fmt.Errorf("obs: encoding cell tsdb: %w", err)
		}
		st.TS = buf.Bytes()
	}
	return st, nil
}

func (r *Registry) state() []MetricState {
	out := make([]MetricState, 0, len(r.order))
	for _, name := range r.order {
		switch m := r.byName[name].(type) {
		case *Counter:
			out = append(out, MetricState{Name: name, Kind: KindCounter, Count: m.n})
		case *Gauge:
			out = append(out, MetricState{Name: name, Kind: KindGauge, Value: m.v, Set: m.set})
		case *Histogram:
			out = append(out, MetricState{
				Name: name, Kind: KindHistogram,
				Count: m.count, Sum: m.sum, Lo: m.lo, Hi: m.hi,
				Bins: append([]uint64(nil), m.bins...),
			})
		}
	}
	return out
}

// CellFromState reconstructs a replayable Cell from a journalled snapshot.
// The result merges through Sinks.Merge exactly like the original cell would
// have; merging a sink the current run has disabled is naturally a no-op.
func CellFromState(st CellState) (*Cell, error) {
	c := &Cell{}
	if len(st.Metrics) > 0 {
		r := NewRegistry()
		for _, m := range st.Metrics {
			switch m.Kind {
			case KindCounter:
				r.Counter(m.Name).n = m.Count
			case KindGauge:
				g := r.Gauge(m.Name)
				g.v, g.set = m.Value, m.Set
			case KindHistogram:
				if len(m.Bins) == 0 || m.Hi <= m.Lo {
					return nil, fmt.Errorf("obs: cell state histogram %q has invalid shape", m.Name)
				}
				h := r.Histogram(m.Name, m.Lo, m.Hi, len(m.Bins))
				copy(h.bins, m.Bins)
				h.count, h.sum = m.Count, m.Sum
			default:
				return nil, fmt.Errorf("obs: cell state metric %q has unknown kind %d", m.Name, m.Kind)
			}
		}
		c.Metrics = r
	}
	if st.Events != nil {
		c.eventsBuf = bytes.NewBuffer(st.Events)
	}
	if st.Prov != nil {
		c.provBuf = bytes.NewBuffer(st.Prov)
	}
	if st.Trace != nil {
		t := NewTrace(nil)
		// UseNumber keeps numeric args as their original literals, so the
		// merged trace file's bytes match an uninterrupted run exactly.
		dec := json.NewDecoder(bytes.NewReader(st.Trace))
		dec.UseNumber()
		if err := dec.Decode(&t.events); err != nil {
			return nil, fmt.Errorf("obs: decoding cell trace: %w", err)
		}
		if st.TraceNextPid > 0 {
			t.nextPid = st.TraceNextPid
		}
		c.Trace = t
	}
	if st.TS != nil {
		db, err := tsdb.Read(bytes.NewReader(st.TS))
		if err != nil {
			return nil, fmt.Errorf("obs: decoding cell tsdb: %w", err)
		}
		c.TS = db
	}
	return c, nil
}
