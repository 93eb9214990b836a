// Package obs is the simulator's observability layer: a typed metrics
// registry (counters, gauges, histograms), a structured JSONL decision log
// for epoch-level controller actions, a Chrome trace-event exporter
// loadable in Perfetto or chrome://tracing, a placement-provenance log, a
// flight recorder that samples the registry into obs/tsdb once per epoch,
// and wall-clock phase timers (Spans).
//
// The whole package is nil-safe: a nil *Registry hands out nil metrics, and
// every metric, event-log, trace, and span method is a no-op on a nil
// receiver. Instrumented hot paths therefore cost one nil check per update
// when observability is disabled — BenchmarkObsOverhead and
// TestAllocGuardSpans guard the bound.
//
// Sinks bundles a run's sinks; it is the one type the run configurations
// embed. Like the rest of the simulator, its five deterministic sinks — the
// metrics Registry, the Events decision log, the Trace, the TS
// flight-recorder store, and the Prov provenance log — are single-threaded:
// one run owns its sinks. Runs on different goroutines must use separate
// sinks; the parallel experiment engine gives each worker cell private
// mirrors of all five (Sinks.Cell), then folds them into the user-visible
// ones *in cell order* — never in completion order — via Sinks.Merge.
// Cell-order merging is what makes a parallel run's sink output
// byte-identical to a serial run's: counter sums and histogram bins
// commute, but gauge last-write-wins, event sequence numbers, trace lane
// numbering, and time-series registration order all depend on merge order,
// so the order is pinned.
//
// Spans is the one deliberate exception to both rules: it measures host
// wall-clock time (Go's monotonic clock via time.Now/time.Since, so
// timings are immune to wall-clock steps), which is inherently
// nondeterministic, so it is mutex-protected, shared across workers, and
// kept out of the deterministic sinks unless explicitly exported
// (Spans.WriteTrace).
//
// The subpackages render and serve this package's snapshots: obs/prom
// writes Prometheus text exposition format, obs/statusz serves it over
// HTTP together with live sweep progress.
package obs

import (
	"fmt"
	"io"
	"sort"
)

// Kind distinguishes metric types in snapshots.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Counter is a monotonically increasing event count. The zero of a nil
// Counter is usable: all methods no-op, so disabled instrumentation costs
// one nil check.
type Counter struct {
	name string
	n    uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.n++
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.n += n
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n
}

// Gauge is a last-write-wins instantaneous value.
type Gauge struct {
	name string
	v    float64
	set  bool
}

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
		g.set = true
	}
}

// Add adjusts the current value by d.
func (g *Gauge) Add(d float64) {
	if g != nil {
		g.v += d
		g.set = true
	}
}

// Value returns the last value set (0 on nil or never-set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram counts observations into nbins equal-width bins over [lo, hi].
// Out-of-range observations clamp into the first or last bin, so Count
// always equals the bin sum.
type Histogram struct {
	name   string
	lo, hi float64
	bins   []uint64
	count  uint64
	sum    float64
}

// Observe records one sample.
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	width := (h.hi - h.lo) / float64(len(h.bins))
	i := int((x - h.lo) / width)
	if i < 0 {
		i = 0
	}
	if i >= len(h.bins) {
		i = len(h.bins) - 1
	}
	h.bins[i]++
	h.count++
	h.sum += x
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean returns the mean observation (0 with no observations or on nil).
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Bins returns a copy of the bin counts (nil on nil).
func (h *Histogram) Bins() []uint64 {
	if h == nil {
		return nil
	}
	out := make([]uint64, len(h.bins))
	copy(out, h.bins)
	return out
}

// Registry owns a run's metrics. A nil *Registry is the disabled state: it
// hands out nil metrics whose methods compile to no-ops.
type Registry struct {
	byName map[string]any
	order  []string
}

// NewRegistry returns an enabled, empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]any)}
}

// Enabled reports whether the registry collects anything.
func (r *Registry) Enabled() bool { return r != nil }

// Counter returns the counter registered under name, creating it on first
// use. It panics if name is already registered as a different metric type
// (a programming error, like every misuse in this simulator). A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if m, ok := r.byName[name]; ok {
		c, ok := m.(*Counter)
		if !ok {
			panic(fmt.Sprintf("obs: %q already registered as a %T", name, m))
		}
		return c
	}
	c := &Counter{name: name}
	r.register(name, c)
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if m, ok := r.byName[name]; ok {
		g, ok := m.(*Gauge)
		if !ok {
			panic(fmt.Sprintf("obs: %q already registered as a %T", name, m))
		}
		return g
	}
	g := &Gauge{name: name}
	r.register(name, g)
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use with nbins equal-width bins over [lo, hi]. Re-registration with
// different bounds panics: two call sites disagreeing about a metric's
// shape is a bug.
func (r *Registry) Histogram(name string, lo, hi float64, nbins int) *Histogram {
	if r == nil {
		return nil
	}
	if m, ok := r.byName[name]; ok {
		h, ok := m.(*Histogram)
		if !ok {
			panic(fmt.Sprintf("obs: %q already registered as a %T", name, m))
		}
		if h.lo != lo || h.hi != hi || len(h.bins) != nbins {
			panic(fmt.Sprintf("obs: histogram %q re-registered with different shape", name))
		}
		return h
	}
	if nbins <= 0 || hi <= lo {
		panic(fmt.Sprintf("obs: invalid histogram %q shape [%g, %g)/%d", name, lo, hi, nbins))
	}
	h := &Histogram{name: name, lo: lo, hi: hi, bins: make([]uint64, nbins)}
	r.register(name, h)
	return h
}

func (r *Registry) register(name string, m any) {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.byName[name] = m
	r.order = append(r.order, name)
}

// Merge folds src's metrics into r: counters and histogram bins add;
// gauges take src's value when src ever set one, so merging worker
// registries in cell order gives "last write wins" the same meaning it has
// in a serial run. Metrics missing from r are created (in src's
// registration order, keeping name registration deterministic); histograms
// present in both must agree on shape, enforced by the same panic as
// re-registration. Merging a nil src, or into a nil r, is a no-op.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	for _, name := range src.order {
		switch m := src.byName[name].(type) {
		case *Counter:
			r.Counter(name).Add(m.n)
		case *Gauge:
			if m.set {
				r.Gauge(name).Set(m.v)
			} else {
				r.Gauge(name) // register the name without clobbering a value
			}
		case *Histogram:
			h := r.Histogram(name, m.lo, m.hi, len(m.bins))
			for i, b := range m.bins {
				h.bins[i] += b
			}
			h.count += m.count
			h.sum += m.sum
		}
	}
}

// MetricSnapshot is one metric's state at snapshot time.
type MetricSnapshot struct {
	Name  string
	Kind  Kind
	Value float64  // counter count or gauge value; histogram mean
	Count uint64   // histogram observation count
	Sum   float64  // histogram observation sum
	Lo    float64  // histogram lower bound
	Hi    float64  // histogram upper bound
	Bins  []uint64 // histogram bin counts
}

// Snapshot returns every metric's current state, sorted by name.
// A nil registry snapshots to nil.
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil {
		return nil
	}
	names := make([]string, len(r.order))
	copy(names, r.order)
	sort.Strings(names)
	out := make([]MetricSnapshot, 0, len(names))
	for _, name := range names {
		switch m := r.byName[name].(type) {
		case *Counter:
			out = append(out, MetricSnapshot{Name: name, Kind: KindCounter, Value: float64(m.n)})
		case *Gauge:
			out = append(out, MetricSnapshot{Name: name, Kind: KindGauge, Value: m.v})
		case *Histogram:
			out = append(out, MetricSnapshot{
				Name: name, Kind: KindHistogram,
				Value: m.Mean(), Count: m.count, Sum: m.sum,
				Lo: m.lo, Hi: m.hi, Bins: m.Bins(),
			})
		}
	}
	return out
}

// WriteText dumps every metric as one "name kind value" line, sorted by
// name — the -metrics output of the CLIs. A nil registry writes nothing.
func (r *Registry) WriteText(w io.Writer) error {
	for _, s := range r.Snapshot() {
		var err error
		switch s.Kind {
		case KindHistogram:
			_, err = fmt.Fprintf(w, "%s histogram count=%d sum=%g mean=%g\n", s.Name, s.Count, s.Sum, s.Value)
		default:
			_, err = fmt.Fprintf(w, "%s %s %g\n", s.Name, s.Kind, s.Value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
