package system

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"jumanji/internal/core"
	"jumanji/internal/obs"
	"jumanji/internal/obs/tsdb"
)

// TestRunObservability is the schema acceptance test for the analytic
// layer: run the case-study workload with all three sinks attached, then
// validate every emitted JSONL record and trace event against the
// documented schema, and check the metric registry saw the run.
func TestRunObservability(t *testing.T) {
	cfg, wl := caseStudy(t, 1, true)
	var events, traceBuf bytes.Buffer
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	cfg.Events = obs.NewEventLog(&events)
	cfg.Trace = obs.NewTrace(&traceBuf)

	res := Run(cfg, wl, core.JumanjiPlacer{}, testEpochs, testWarmup)
	if res == nil {
		t.Fatal("nil result")
	}
	if err := cfg.Events.Err(); err != nil {
		t.Fatalf("event log error: %v", err)
	}

	counts, err := obs.ValidateEventLog(events.Bytes())
	if err != nil {
		t.Fatalf("event log fails schema validation: %v", err)
	}
	if counts[obs.TypeRunStart] != 1 || counts[obs.TypeRunEnd] != 1 {
		t.Fatalf("got %d run_start and %d run_end, want 1 each", counts[obs.TypeRunStart], counts[obs.TypeRunEnd])
	}
	if counts[obs.TypeEpoch] != testEpochs {
		t.Fatalf("got %d epoch records, want %d", counts[obs.TypeEpoch], testEpochs)
	}

	// Reconfiguration epochs must carry controller actions with sane
	// classifications; the controllers must have acted at least once over
	// 60 epochs of the bursty case study.
	sawAction := false
	for _, line := range bytes.Split(events.Bytes(), []byte("\n")) {
		if !bytes.Contains(line, []byte(`"type":"epoch"`)) {
			continue
		}
		var env struct {
			Data obs.Epoch `json:"data"`
		}
		if err := json.Unmarshal(line, &env); err != nil {
			t.Fatal(err)
		}
		if env.Data.Reconfigured && len(env.Data.Actions) > 0 {
			sawAction = true
		}
	}
	if !sawAction {
		t.Error("no epoch record carried controller actions")
	}

	if err := cfg.Trace.Close(); err != nil {
		t.Fatalf("trace close: %v", err)
	}
	n, err := obs.ValidateTraceJSON(traceBuf.Bytes())
	if err != nil {
		t.Fatalf("trace fails validation: %v", err)
	}
	if n == 0 {
		t.Fatal("empty trace")
	}

	if got := reg.Counter("system.epochs").Value(); got != uint64(testEpochs) {
		t.Errorf("system.epochs = %d, want %d", got, testEpochs)
	}
	if reg.Counter("system.reconfigs").Value() == 0 {
		t.Error("no reconfigurations counted")
	}
	var text strings.Builder
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "system.epochs counter") {
		t.Errorf("WriteText missing system.epochs:\n%s", text.String())
	}
}

// TestRunWithoutSinksUnchanged pins the zero-cost claim's correctness half:
// attaching sinks must not change the simulation's results.
func TestRunWithoutSinksUnchanged(t *testing.T) {
	cfg, wl := caseStudy(t, 2, true)
	plain := Run(cfg, wl, core.JumanjiPlacer{}, 30, 10)

	cfg2, wl2 := caseStudy(t, 2, true)
	cfg2.Metrics = obs.NewRegistry()
	var events, traceBuf bytes.Buffer
	cfg2.Events = obs.NewEventLog(&events)
	cfg2.Trace = obs.NewTrace(&traceBuf)
	instrumented := Run(cfg2, wl2, core.JumanjiPlacer{}, 30, 10)

	if plain.WorstNormTail != instrumented.WorstNormTail ||
		plain.BatchWeightedSpeedup != instrumented.BatchWeightedSpeedup {
		t.Fatalf("instrumentation changed results: %v/%v vs %v/%v",
			plain.WorstNormTail, plain.BatchWeightedSpeedup,
			instrumented.WorstNormTail, instrumented.BatchWeightedSpeedup)
	}
}

// TestRunRecordsSetupSpan pins the run's span layers: one system.setup span
// for the run's set-up and one system.epoch_model span per epoch.
func TestRunRecordsSetupSpan(t *testing.T) {
	cfg, wl := caseStudy(t, 1, true)
	cfg.Spans = obs.NewSpans()
	const epochs = 12
	Run(cfg, wl, core.JumanjiPlacer{}, epochs, 2)
	counts := map[string]uint64{}
	for _, s := range cfg.Spans.Snapshot() {
		counts[s.Name] = s.Count
	}
	if got := counts["span.system.setup.seconds"]; got != 1 {
		t.Errorf("system.setup spans = %d, want 1 (all: %v)", got, counts)
	}
	if got := counts["span.system.epoch_model.seconds"]; got != epochs {
		t.Errorf("system.epoch_model spans = %d, want %d (all: %v)", got, epochs, counts)
	}
}

// TestRunRecordsFlightRecorder pins the tentpole's sampling contract: with
// Metrics and TS attached, every epoch lands one sample per active series —
// counter deltas of exactly 1 for system.epochs, a moved-fraction point per
// epoch — and nothing is recorded without a registry to sample.
func TestRunRecordsFlightRecorder(t *testing.T) {
	cfg, wl := caseStudy(t, 1, true)
	cfg.Metrics = obs.NewRegistry()
	cfg.TS = tsdb.New(1024)
	Run(cfg, wl, core.JumanjiPlacer{}, testEpochs, testWarmup)

	epochs := cfg.TS.Lookup("system.epochs")
	if epochs == nil {
		t.Fatalf("no system.epochs series; recorded %d series", cfg.TS.NumSeries())
	}
	if epochs.Len() != testEpochs {
		t.Fatalf("system.epochs has %d samples, want %d", epochs.Len(), testEpochs)
	}
	for i := 0; i < epochs.Len(); i++ {
		if s := epochs.At(i); s.Value != 1 || s.Epoch != int32(i) {
			t.Fatalf("system.epochs sample %d = %+v, want delta 1 at epoch %d", i, s, i)
		}
	}
	if moved := cfg.TS.Lookup("system.moved_fraction"); moved == nil || moved.Len() != testEpochs {
		t.Error("system.moved_fraction was not recorded every epoch")
	}
	if lat := cfg.TS.Lookup("system.lat_norm.p95"); lat == nil || lat.Len() == 0 {
		t.Error("system.lat_norm.p95 quantile series was not recorded")
	}

	// Without Metrics the recorder has nothing to sample: TS stays empty.
	cfg2, wl2 := caseStudy(t, 1, true)
	cfg2.TS = tsdb.New(1024)
	Run(cfg2, wl2, core.JumanjiPlacer{}, testEpochs, testWarmup)
	if n := cfg2.TS.NumSeries(); n != 0 {
		t.Errorf("TS without Metrics recorded %d series, want 0", n)
	}
}

// TestEpochTimestampsAndChurnCauses decodes the event log and checks the
// simulated wall clock (epoch × EpochSeconds, in µs, strictly monotonic)
// and the reconfiguration cause classification: the first placement is
// "initial", every later one under ReconfigEpochs=1 is "periodic".
func TestEpochTimestampsAndChurnCauses(t *testing.T) {
	cfg, wl := caseStudy(t, 1, true)
	var events bytes.Buffer
	cfg.Events = obs.NewEventLog(&events)
	Run(cfg, wl, core.JumanjiPlacer{}, testEpochs, testWarmup)

	decoded, err := obs.DecodeEventLog(events.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var churns []obs.ReconfigChurn
	for _, ev := range decoded {
		switch ev.Type {
		case obs.TypeEpoch:
			var e obs.Epoch
			if err := json.Unmarshal(ev.Data, &e); err != nil {
				t.Fatal(err)
			}
			if want := float64(e.Epoch) * cfg.EpochSeconds * 1e6; e.TimeUs != want {
				t.Fatalf("epoch %d time_us = %g, want %g", e.Epoch, e.TimeUs, want)
			}
		case obs.TypeReconfigChurn:
			var c obs.ReconfigChurn
			if err := json.Unmarshal(ev.Data, &c); err != nil {
				t.Fatal(err)
			}
			churns = append(churns, c)
		}
	}
	if len(churns) != testEpochs {
		t.Fatalf("got %d churn records, want one per epoch (%d)", len(churns), testEpochs)
	}
	if churns[0].Cause != "initial" {
		t.Errorf("first reconfiguration cause = %q, want initial", churns[0].Cause)
	}
	for _, c := range churns[1:] {
		if c.Cause != "periodic" {
			t.Errorf("epoch %d cause = %q, want periodic", c.Epoch, c.Cause)
		}
	}
}

// TestObserveViolationAttribution drives the attribution path directly with
// a hand-built violating epoch, so the breakdown arithmetic is checked
// exactly: the additive components come from the perf, and what the model
// cannot account for is attributed to queueing.
func TestObserveViolationAttribution(t *testing.T) {
	cfg := DefaultConfig()
	var events bytes.Buffer
	cfg.Events = obs.NewEventLog(&events)
	o := &runObserver{cfg: &cfg, design: "TestDesign"}

	q := &queueState{workKI: 100, deadline: 1e6}
	apps := []*appState{{id: 0, name: "lc0", baseCPI: 1, apki: 20, queue: q}}
	in := &core.Input{LatSizes: map[core.AppID]float64{0: 4 << 20}}
	p := perf{CPI: 2.5, MissRatio: 0.1, AvgHops: 2}
	sample := EpochSample{LatNorm: []float64{1.5}}

	o.observeViolations(7, in, sample, apps, []perf{p})
	if err := o.cfg.Events.Err(); err != nil {
		t.Fatal(err)
	}
	decoded, err := obs.DecodeEventLog(events.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 1 || decoded[0].Type != obs.TypeSLOViolation {
		t.Fatalf("got %d events (%v), want one slo_violation", len(decoded), decoded)
	}
	var v obs.SLOViolation
	if err := json.Unmarshal(decoded[0].Data, &v); err != nil {
		t.Fatal(err)
	}
	if v.Design != "TestDesign" || v.Name != "lc0" || v.Epoch != 7 || v.LatNorm != 1.5 {
		t.Fatalf("violation header = %+v", v)
	}
	// perReq = 100e3 instructions; access = perReq × apki/1000 = 2000.
	bd := v.Breakdown
	if want := 100e3 * 1.0; bd.BaseCycles != want {
		t.Errorf("base = %g, want %g", bd.BaseCycles, want)
	}
	if want := 2000 * cfg.BankLatency; bd.BankCycles != want {
		t.Errorf("bank = %g, want %g", bd.BankCycles, want)
	}
	if want := 2000 * 2 * 2 * cfg.HopCycles(); bd.NoCCycles != want {
		t.Errorf("noc = %g, want %g", bd.NoCCycles, want)
	}
	if want := 2000 * 0.1 * cfg.MemLatency; bd.MemCycles != want {
		t.Errorf("mem = %g, want %g", bd.MemCycles, want)
	}
	// Observed latency 1.5e6 cycles; service = perReq × CPI = 250e3; the
	// rest is queueing, which dominates every other component here.
	if want := 1.5*1e6 - 100e3*2.5; bd.QueueCycles != want {
		t.Errorf("queue = %g, want %g", bd.QueueCycles, want)
	}
	if v.Dominant != "queue" {
		t.Errorf("dominant = %q, want queue", v.Dominant)
	}
	if want := q.deadline - 1.5e6; v.SlackCycles != want {
		t.Errorf("slack = %g, want %g", v.SlackCycles, want)
	}
	if v.AllocBytes != 4<<20 {
		t.Errorf("alloc = %g, want %d", v.AllocBytes, 4<<20)
	}
}
