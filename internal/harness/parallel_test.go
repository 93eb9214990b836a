package harness

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"jumanji/internal/core"
	"jumanji/internal/obs"
	"jumanji/internal/obs/tsdb"
)

// renderAll13And14 runs Fig. 13 and Fig. 14 and returns their rendered text.
func renderAll13And14(o Options) string {
	var buf bytes.Buffer
	must(Fig13(o)).Render(&buf)
	RenderFig14(&buf, must(Fig14(o)))
	return buf.String()
}

// TestParallelEquivalence is the engine's core guarantee: the same seed
// produces byte-identical rendered output whether the cells run serially or
// across eight workers. Fig. 13 covers the full mix×design product and
// Fig. 14 the vulnerability aggregation on top of it.
func TestParallelEquivalence(t *testing.T) {
	o := Options{Mixes: 2, Epochs: 12, Warmup: 4, Seed: 1}
	o.Parallel = 1
	serial := renderAll13And14(o)
	o.Parallel = 8
	fanned := renderAll13And14(o)
	if serial != fanned {
		t.Fatalf("parallel=8 output differs from parallel=1:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, fanned)
	}
	if serial == "" {
		t.Fatal("empty rendered output")
	}
}

// TestParallelSinksEquivalence extends the guarantee to the observability
// sinks: metrics text, the JSONL decision log, the Chrome trace, and the
// flight-recorder dump must all be byte-identical between serial and fanned
// runs, because cells record into private sinks merged back in cell order.
func TestParallelSinksEquivalence(t *testing.T) {
	run := func(parallel int) (metrics, events, trace, ts string) {
		var evBuf, trBuf bytes.Buffer
		o := Options{Mixes: 2, Epochs: 10, Warmup: 3, Seed: 1, Parallel: parallel}
		o.Metrics = obs.NewRegistry()
		o.Events = obs.NewEventLog(&evBuf)
		o.Trace = obs.NewTrace(&trBuf)
		o.TS = tsdb.New(tsdb.DefaultCapacity)
		must(Fig5(o))
		if err := o.Events.Err(); err != nil {
			t.Fatalf("parallel=%d: event log error: %v", parallel, err)
		}
		if err := o.Trace.Close(); err != nil {
			t.Fatalf("parallel=%d: trace close: %v", parallel, err)
		}
		var mBuf bytes.Buffer
		if err := o.Metrics.WriteText(&mBuf); err != nil {
			t.Fatalf("parallel=%d: metrics: %v", parallel, err)
		}
		var tsBuf bytes.Buffer
		if err := o.TS.Write(&tsBuf); err != nil {
			t.Fatalf("parallel=%d: tsdb: %v", parallel, err)
		}
		return mBuf.String(), evBuf.String(), trBuf.String(), tsBuf.String()
	}
	m1, e1, t1, ts1 := run(1)
	m4, e4, t4, ts4 := run(4)
	if m1 != m4 {
		t.Errorf("metrics differ between parallel=1 and parallel=4:\n%s\nvs\n%s", m1, m4)
	}
	if e1 != e4 {
		t.Errorf("event logs differ between parallel=1 and parallel=4")
	}
	if t1 != t4 {
		t.Errorf("traces differ between parallel=1 and parallel=4")
	}
	if ts1 != ts4 {
		t.Errorf("tsdb dumps differ between parallel=1 and parallel=4")
	}
	if e1 == "" || t1 == "" {
		t.Fatal("sinks recorded nothing")
	}
	if db, err := tsdb.Read(strings.NewReader(ts4)); err != nil {
		t.Errorf("merged tsdb dump fails to read back: %v", err)
	} else if db.NumSeries() == 0 {
		t.Error("flight recorder recorded no series")
	}
	if _, err := obs.ValidateEventLog([]byte(e4)); err != nil {
		t.Errorf("merged event log fails validation: %v", err)
	}
	if _, err := obs.ValidateTraceJSON([]byte(t4)); err != nil {
		t.Errorf("merged trace fails validation: %v", err)
	}
}

// TestMixPrefixIndependent is the seed-derivation regression test: mix K's
// workload and outcome depend only on K's own coordinates, never on how many
// mixes run around it. Under the old sequential scheme (base + K*constant on
// a shared rand.Rand) this held only by accident of run order; cellSeed
// makes it structural.
func TestMixPrefixIndependent(t *testing.T) {
	b := caseStudyBuilder("xapian", true)
	placers := []core.Placer{core.StaticPlacer{}, core.JumanjiPlacer{}}
	small := Options{Mixes: 2, Epochs: 10, Warmup: 3, Seed: 1}
	large := small
	large.Mixes = 5
	few := must(runMixCells(small, b, placers))
	many := must(runMixCells(large, b, placers))
	if len(few) != 2 || len(many) != 5 {
		t.Fatalf("cell counts %d/%d", len(few), len(many))
	}
	for k := range few {
		if !reflect.DeepEqual(few[k], many[k]) {
			t.Errorf("mix %d outcome changed with Mixes count:\n%+v\nvs\n%+v", k, few[k], many[k])
		}
	}
}

// TestCellSeedProperties pins down the derivation: distinct labels and cells
// decorrelate, identical coordinates reproduce.
func TestCellSeedProperties(t *testing.T) {
	if cellSeed(1, "a", 0) != cellSeed(1, "a", 0) {
		t.Error("cellSeed not deterministic")
	}
	seen := map[int64]string{}
	for _, label := range []string{"case/xapian/high/mix", "case/xapian/high/arrivals", "mixed/high/mix"} {
		for cell := 0; cell < 100; cell++ {
			s := cellSeed(1, label, cell)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision between %s/%d and %s", label, cell, prev)
			}
			seen[s] = label
		}
	}
	if cellSeed(1, "a", 0) == cellSeed(2, "a", 0) {
		t.Error("base seed does not affect cell seed")
	}
}
