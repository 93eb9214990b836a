package jumanji

import (
	"bytes"
	"testing"

	"jumanji/internal/obs"
	"jumanji/internal/obs/tsdb"
)

// renderSinks runs f with all five deterministic sinks on at the given
// worker count and returns each sink's bytes: metrics text, event log,
// trace, tsdb dump, and provenance log.
func renderSinks(t *testing.T, parallel int, f func(Options) error) [5]string {
	t.Helper()
	var ev, tr, prov bytes.Buffer
	opts := fastOptions()
	opts.Parallel = parallel
	opts.Metrics = obs.NewRegistry()
	opts.Events = obs.NewEventLog(&ev)
	opts.Trace = obs.NewTrace(&tr)
	opts.TS = tsdb.New(tsdb.DefaultCapacity)
	opts.Prov = obs.NewEventLog(&prov)
	if err := f(opts); err != nil {
		t.Fatal(err)
	}
	if err := opts.Events.Err(); err != nil {
		t.Fatalf("parallel=%d: event log: %v", parallel, err)
	}
	if err := opts.Prov.Err(); err != nil {
		t.Fatalf("parallel=%d: provenance log: %v", parallel, err)
	}
	if err := opts.Trace.Close(); err != nil {
		t.Fatalf("parallel=%d: trace: %v", parallel, err)
	}
	var metrics, ts bytes.Buffer
	if err := opts.Metrics.WriteText(&metrics); err != nil {
		t.Fatalf("parallel=%d: metrics: %v", parallel, err)
	}
	if opts.TS.NumSeries() == 0 {
		t.Errorf("parallel=%d: flight recorder recorded no series", parallel)
	}
	if err := opts.TS.Write(&ts); err != nil {
		t.Fatalf("parallel=%d: tsdb: %v", parallel, err)
	}
	return [5]string{metrics.String(), ev.String(), tr.String(), ts.String(), prov.String()}
}

// TestParallelPublicSinksEquivalence holds the public fan-outs to the
// harness's guarantee (TestParallelSinksEquivalence): with every
// deterministic sink on, Compare and TailVsAllocation write the same bytes
// into each sink at any worker count, because their cells record into
// private sinks merged back in cell order.
func TestParallelPublicSinksEquivalence(t *testing.T) {
	cases := []struct {
		name string
		run  func(Options) error
	}{
		{"Compare", func(o Options) error {
			_, err := Compare(o, CaseStudy("xapian", 1), Static, Jigsaw, Jumanji)
			return err
		}},
		{"TailVsAllocation", func(o Options) error {
			_, err := TailVsAllocation(o, "xapian", []float64{0.5, 1, 2, 6})
			return err
		}},
	}
	names := [5]string{"metrics", "event log", "trace", "tsdb dump", "provenance log"}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			serial := renderSinks(t, 1, c.run)
			fanned := renderSinks(t, 4, c.run)
			for i, name := range names {
				if serial[i] == "" {
					t.Errorf("%s recorded nothing", name)
				}
				if serial[i] != fanned[i] {
					t.Errorf("%s differs between Parallel 1 and 4 (%d vs %d bytes)",
						name, len(serial[i]), len(fanned[i]))
				}
			}
		})
	}
}
