package obs

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"
	"time"

	"jumanji/internal/obs/tsdb"
)

// populate writes a representative mix of metrics, events, trace, tsdb, and
// provenance activity into a cell, the way a worker run would. Disabled
// (nil) sinks ignore their share.
func populate(c *Cell) {
	c.Metrics.Counter("system.epochs").Add(40)
	c.Metrics.Gauge("run.tail").Set(1.25)
	c.Metrics.Gauge("run.never_set") // registered but unset: merge must not clobber
	h := c.Metrics.Histogram("lat", 0, 2, 10)
	h.Observe(0.5)
	h.Observe(1.9)
	h.Observe(7.0) // clamps to last bin

	c.Events.EmitRunStart(RunStart{
		Design: "jumanji", Epochs: 4, Warmup: 1, Banks: 36, BankBytes: 768 * 1024,
		Apps: []AppInfo{{App: 0, Name: "xapian", LatencyCritical: true}},
	})
	c.Events.EmitRunEnd(RunEnd{Design: "jumanji", WorstNormTail: 1.02, BatchWeightedSpeedup: 1.1})

	c.TS.Append("system.epochs", 0, 1)
	c.TS.Append("system.epochs", 1, 1)
	c.TS.Append("system.lat_norm.p95", 1, 0.9)

	lane := c.Trace.Lane("jumanji")
	c.Trace.Span(lane, 0, "epoch", "epoch", 0, 100000, map[string]any{"epoch": 0, "vulnerability": 0.125})
	c.Trace.Instant(lane, 0, "reconfigure", 100000, map[string]any{"moved_fraction_max": 0.2})
	c.Trace.Counter(lane, "alloc_mb", 0, map[string]float64{"xapian": 2.5})

	c.Prov.EmitPlacementDecision(&PlacementDecision{
		Epoch: 1, TimeUs: 100000, Design: "jumanji", Stage: StageLatCrit,
		VM: 0, App: 0, Name: "xapian", LatencyCritical: true, Region: -1,
		TargetBytes: 2 << 20, PlacedBytes: 2 << 20,
		Candidates: []BankCandidate{{Bank: 3, Dist: 1, TakenBytes: 2 << 20}},
	})
}

// sinkNames orders the deterministic sinks in mergeAll's output.
var sinkNames = [5]string{"metrics", "events", "trace", "tsdb", "provenance"}

// allSinks returns fresh deterministic sinks, the i-th enabled when bit i of
// mask is set (bits in sinkNames order), writing into bufs.
func allSinks(mask int, bufs *[3]bytes.Buffer) Sinks {
	var s Sinks
	if mask&1 != 0 {
		s.Metrics = NewRegistry()
	}
	if mask&2 != 0 {
		s.Events = NewEventLog(&bufs[0])
	}
	if mask&4 != 0 {
		s.Trace = NewTrace(&bufs[1])
	}
	if mask&8 != 0 {
		s.TS = tsdb.New(64)
	}
	if mask&16 != 0 {
		s.Prov = NewEventLog(&bufs[2])
	}
	return s
}

// mergeAll folds a cell into fresh, fully enabled user sinks and renders
// every sink to bytes, the same way the CLIs do.
func mergeAll(t *testing.T, c *Cell) [5]string {
	t.Helper()
	var bufs [3]bytes.Buffer
	s := allSinks(31, &bufs)
	if err := s.Merge([]*Cell{c}); err != nil {
		t.Fatal(err)
	}
	var regBuf bytes.Buffer
	if err := s.Metrics.WriteText(&regBuf); err != nil {
		t.Fatal(err)
	}
	if err := s.Trace.Close(); err != nil {
		t.Fatal(err)
	}
	var tsBuf bytes.Buffer
	if err := s.TS.Write(&tsBuf); err != nil {
		t.Fatal(err)
	}
	return [5]string{regBuf.String(), bufs[0].String(), bufs[1].String(), tsBuf.String(), bufs[2].String()}
}

// The journal's core guarantee: a cell snapshotted, gob-encoded (as the
// journal stores it), decoded, and rebuilt merges byte-identically to the
// original cell — for every on/off combination of the five deterministic
// sinks. Each enabled sink must also record something, so a sink that Cell
// forgets to mirror, State forgets to snapshot, or CellFromState forgets to
// rebuild fails here.
func TestCellStateRoundTripByteIdentical(t *testing.T) {
	empty := mergeAll(t, nil)
	for mask := 0; mask < 32; mask++ {
		var bufs [3]bytes.Buffer
		orig := allSinks(mask, &bufs).Cell()
		populate(orig)

		st, err := orig.State()
		if err != nil {
			t.Fatalf("mask %05b: %v", mask, err)
		}
		var payload bytes.Buffer
		if err := gob.NewEncoder(&payload).Encode(st); err != nil {
			t.Fatalf("mask %05b: %v", mask, err)
		}
		var decoded CellState
		if err := gob.NewDecoder(bytes.NewReader(payload.Bytes())).Decode(&decoded); err != nil {
			t.Fatalf("mask %05b: %v", mask, err)
		}
		replayed, err := CellFromState(decoded)
		if err != nil {
			t.Fatalf("mask %05b: %v", mask, err)
		}

		got, want := mergeAll(t, replayed), mergeAll(t, orig)
		for i, name := range sinkNames {
			if on := mask&(1<<i) != 0; on == (want[i] == empty[i]) {
				t.Errorf("mask %05b: %s enabled=%t but the original cell recorded %q", mask, name, on, want[i])
			}
			if got[i] != want[i] {
				t.Errorf("mask %05b: %s diverges:\noriginal:\n%s\nreplayed:\n%s", mask, name, want[i], got[i])
			}
		}
	}
}

// A replayed cell must preserve exact counter integers (beyond float64
// precision) and the gauge set flag.
func TestCellStateLossless(t *testing.T) {
	c := Sinks{Metrics: NewRegistry()}.Cell()
	const big = uint64(1)<<60 + 3
	c.Metrics.Counter("huge").Add(big)
	c.Metrics.Gauge("unset")

	st, err := c.State()
	if err != nil {
		t.Fatal(err)
	}
	back, err := CellFromState(st)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Metrics.Counter("huge").Value(); got != big {
		t.Fatalf("counter = %d, want %d", got, big)
	}

	user := NewRegistry()
	user.Gauge("unset").Set(42)
	user.Merge(back.Metrics)
	if got := user.Gauge("unset").Value(); got != 42 {
		t.Fatalf("unset replayed gauge clobbered user value: %g", got)
	}
}

func TestCellStateDisabledSinks(t *testing.T) {
	// A fully disabled cell round-trips to a cell that merges as a no-op.
	c := Sinks{}.Cell()
	st, err := c.State()
	if err != nil {
		t.Fatal(err)
	}
	back, err := CellFromState(st)
	if err != nil {
		t.Fatal(err)
	}
	if back.Metrics != nil || back.Trace != nil || back.eventsBuf != nil || back.TS != nil {
		t.Fatal("disabled sinks resurrected")
	}
	if err := (Sinks{}).Merge([]*Cell{back}); err != nil {
		t.Fatal(err)
	}

	var nilCell *Cell
	if _, err := nilCell.State(); err != nil {
		t.Fatal(err)
	}
}

func TestCellStateRejectsCorruptMetrics(t *testing.T) {
	if _, err := CellFromState(CellState{Metrics: []MetricState{{Name: "h", Kind: KindHistogram}}}); err == nil {
		t.Fatal("histogram with no bins must be rejected")
	}
	if _, err := CellFromState(CellState{Metrics: []MetricState{{Name: "x", Kind: Kind(99)}}}); err == nil {
		t.Fatal("unknown metric kind must be rejected")
	}
	// States no registry produces: each would panic the registry's
	// constructors, or a later Merge, instead of returning an error.
	for name, ms := range map[string][]MetricState{
		"empty name":         {{Kind: KindCounter}},
		"counter then gauge": {{Name: "x", Kind: KindCounter}, {Name: "x", Kind: KindGauge}},
		"repeated counter":   {{Name: "x", Kind: KindCounter}, {Name: "x", Kind: KindCounter}},
		"NaN bounds":         {{Name: "h", Kind: KindHistogram, Lo: math.NaN(), Hi: math.NaN(), Bins: []uint64{1}}},
		"NaN low bound":      {{Name: "h", Kind: KindHistogram, Lo: math.NaN(), Hi: 1, Bins: []uint64{1}}},
		"infinite bound":     {{Name: "h", Kind: KindHistogram, Lo: 0, Hi: math.Inf(1), Bins: []uint64{1}}},
		"reversed bounds":    {{Name: "h", Kind: KindHistogram, Lo: 1, Hi: 0, Bins: []uint64{1}}},
	} {
		if _, err := CellFromState(CellState{Metrics: ms}); err == nil {
			t.Errorf("%s: state accepted", name)
		}
	}
	if _, err := CellFromState(CellState{Trace: []byte("not json")}); err == nil {
		t.Fatal("corrupt trace bytes must be rejected")
	}
	if _, err := CellFromState(CellState{TS: []byte("not json")}); err == nil {
		t.Fatal("corrupt tsdb bytes must be rejected")
	}
}

func TestSpansActiveTracking(t *testing.T) {
	s := NewSpans()
	if got := s.Active(); got != nil {
		t.Fatalf("Active before TrackActive = %v", got)
	}
	// Spans started before tracking are invisible, by design.
	pre := s.Start("before")
	s.TrackActive()

	a := s.Start("system.epoch_model")
	time.Sleep(time.Millisecond)
	b := s.Start("core.place")
	act := s.Active()
	if len(act) != 2 {
		t.Fatalf("Active = %v, want 2 spans", act)
	}
	if act[0].Name != "system.epoch_model" || act[1].Name != "core.place" {
		t.Fatalf("Active order = %v, want oldest first", act)
	}
	b.Stop()
	a.Stop()
	pre.Stop()
	if act := s.Active(); len(act) != 0 {
		t.Fatalf("Active after Stop = %v", act)
	}

	var nilSpans *Spans
	nilSpans.TrackActive()
	if nilSpans.Active() != nil {
		t.Fatal("nil Spans Active != nil")
	}
}
