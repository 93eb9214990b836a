package obs

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"jumanji/internal/obs/tsdb"
)

// CLI bundles the standard observability flags shared by the commands
// (-events, -tracefile, -metrics, -tsdb, -provenance, -spans, -cpuprofile,
// -memprofile) and owns the files behind them. Open creates every requested
// file up front, so a bad path fails before the run starts. Usage:
//
//	var cli obs.CLI
//	cli.RegisterFlags(flag.CommandLine)
//	flag.Parse()
//	if err := cli.Open(); err != nil { ... }
//	defer cli.Close()
//	opts.Sinks = cli.Sinks()
//
// Flags left empty cost nothing: their sinks are nil and every sink method
// no-ops on nil.
type CLI struct {
	EventsPath  string
	TracePath   string
	MetricsPath string
	TSDBPath    string
	ProvPath    string
	CPUProfile  string
	MemProfile  string
	SpansOn     bool

	sinks                       Sinks
	metricsOut, tsdbOut, memOut *os.File
	files                       []*os.File
	cpuOn                       bool
}

// RegisterFlags declares the observability flags on fs.
func (c *CLI) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.EventsPath, "events", "", "write the JSONL epoch decision log to this file")
	fs.StringVar(&c.TracePath, "tracefile", "", "write a Chrome trace-event file (loadable in Perfetto) to this path")
	fs.StringVar(&c.MetricsPath, "metrics", "", "dump the metric registry as text to this file after the run, or '-' for stderr")
	fs.StringVar(&c.TSDBPath, "tsdb", "", "record per-epoch metric time series (flight recorder) and dump them as JSON to this file; implies metric collection")
	fs.StringVar(&c.ProvPath, "provenance", "", "write the JSONL placement-provenance log (why every VM landed where it did) to this file")
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write a pprof heap profile to this file")
	fs.BoolVar(&c.SpansOn, "spans", false, "time simulator phases on the wall clock; summary to stderr at exit (implied by -status)")
}

// Open creates every requested output file, including those written only at
// Close (-metrics, -tsdb, -memprofile), and starts CPU profiling. It is a
// no-op for every flag left empty.
func (c *CLI) Open() error {
	var err error
	create := func(path string) *os.File {
		if path == "" || err != nil {
			return nil
		}
		f, ferr := os.Create(path)
		if ferr != nil {
			err = ferr
			return nil
		}
		c.files = append(c.files, f)
		return f
	}
	events, trace, prov := create(c.EventsPath), create(c.TracePath), create(c.ProvPath)
	if c.MetricsPath != "-" {
		c.metricsOut = create(c.MetricsPath)
	}
	c.tsdbOut, c.memOut = create(c.TSDBPath), create(c.MemProfile)
	cpu := create(c.CPUProfile)
	if err != nil {
		return err
	}
	if events != nil {
		c.sinks.Events = NewEventLog(events)
	}
	if trace != nil {
		c.sinks.Trace = NewTrace(trace)
	}
	if prov != nil {
		c.sinks.Prov = NewEventLog(prov)
	}
	if c.MetricsPath != "" || c.TSDBPath != "" {
		// The flight recorder samples the registry, so -tsdb forces one on
		// even without -metrics.
		c.sinks.Metrics = NewRegistry()
	}
	if c.tsdbOut != nil {
		c.sinks.TS = tsdb.New(tsdb.DefaultCapacity)
	}
	if c.SpansOn {
		c.sinks.Spans = NewSpans()
		if trace != nil {
			// With both -spans and -tracefile, the phase timings land in the
			// trace as their own "wall clock" lane at Close.
			c.sinks.Spans.EnableTrace()
		}
	}
	if cpu != nil {
		if err := pprof.StartCPUProfile(cpu); err != nil {
			return err
		}
		c.cpuOn = true
	}
	return nil
}

// Sinks returns the sinks the flags enabled: Metrics (-metrics or -tsdb),
// Events, Trace, TS, Prov, and Spans. Progress and the publish hooks are
// left for the caller to fill in.
func (c *CLI) Sinks() Sinks { return c.sinks }

// Close finishes every sink: stops the CPU profile, writes the heap
// profile, flushes the trace, dumps the metrics and time series, and closes
// the files. It returns the first error but always attempts every step.
func (c *CLI) Close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	s := c.sinks
	if c.cpuOn {
		pprof.StopCPUProfile()
		c.cpuOn = false
	}
	if c.memOut != nil {
		runtime.GC() // fresh statistics for the heap profile
		keep(pprof.WriteHeapProfile(c.memOut))
	}
	if s.Spans != nil {
		s.Spans.WriteTrace(s.Trace) // before Close; no-op when -tracefile is unset
		keep(s.Spans.WriteText(os.Stderr))
	}
	if s.Trace != nil {
		keep(s.Trace.Close())
	}
	keep(s.Events.Err())
	keep(s.Prov.Err())
	if c.tsdbOut != nil {
		keep(s.TS.Write(c.tsdbOut))
	}
	if c.MetricsPath == "-" {
		keep(s.Metrics.WriteText(os.Stderr))
	} else if c.metricsOut != nil {
		keep(s.Metrics.WriteText(c.metricsOut))
	}
	for _, f := range c.files {
		if err := f.Close(); err != nil {
			keep(fmt.Errorf("obs: closing %s: %w", f.Name(), err))
		}
	}
	c.files = nil
	return first
}
