package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jumanji/internal/harness"
	"jumanji/internal/journal"
	"jumanji/internal/obs"
	"jumanji/internal/obs/tsdb"
)

// genRun executes a small figure with every recorded sink enabled and
// writes the artifacts into dir, returning their paths.
func genRun(t *testing.T, dir string) (events, ts, trace, prov string) {
	t.Helper()
	events = filepath.Join(dir, "run.jsonl")
	ts = filepath.Join(dir, "run.ts.json")
	trace = filepath.Join(dir, "run.trace.json")
	prov = filepath.Join(dir, "run.prov.jsonl")

	evF, err := os.Create(events)
	if err != nil {
		t.Fatal(err)
	}
	trF, err := os.Create(trace)
	if err != nil {
		t.Fatal(err)
	}
	pvF, err := os.Create(prov)
	if err != nil {
		t.Fatal(err)
	}
	o := harness.Options{Mixes: 2, Epochs: 10, Warmup: 3, Seed: 1, Parallel: 2}
	o.Metrics = obs.NewRegistry()
	o.Events = obs.NewEventLog(evF)
	o.Trace = obs.NewTrace(trF)
	o.TS = tsdb.New(tsdb.DefaultCapacity)
	o.Prov = obs.NewEventLog(pvF)
	if _, err := harness.Fig5(o); err != nil {
		t.Fatal(err)
	}
	if err := o.Events.Err(); err != nil {
		t.Fatal(err)
	}
	if err := o.Prov.Err(); err != nil {
		t.Fatal(err)
	}
	if err := o.Trace.Close(); err != nil {
		t.Fatal(err)
	}
	if err := evF.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pvF.Close(); err != nil {
		t.Fatal(err)
	}
	if err := trF.Close(); err != nil {
		t.Fatal(err)
	}
	tsF, err := os.Create(ts)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.TS.Write(tsF); err != nil {
		t.Fatal(err)
	}
	if err := tsF.Close(); err != nil {
		t.Fatal(err)
	}
	return events, ts, trace, prov
}

func render(t *testing.T, events, ts, journalPath, trace, prov string) (html, md string) {
	t.Helper()
	in, err := loadInputs(events, ts, journalPath, trace, prov)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := buildReport("test report", 10, in)
	if err != nil {
		t.Fatal(err)
	}
	var h, m bytes.Buffer
	if err := renderHTML(&h, rep); err != nil {
		t.Fatal(err)
	}
	if err := renderMarkdown(&m, rep); err != nil {
		t.Fatal(err)
	}
	return h.String(), m.String()
}

// TestReportByteIdentical pins the determinism acceptance criterion: two
// independent runs with the same seed produce byte-identical reports, in
// both formats, because every timestamp comes from recorded (simulated)
// data rather than generation time. The trace file is excluded — span
// timings are wall-clock by design — so the report's span section is
// exercised separately below.
func TestReportByteIdentical(t *testing.T) {
	e1, t1, _, p1 := genRun(t, t.TempDir())
	e2, t2, _, p2 := genRun(t, t.TempDir())
	h1, m1 := render(t, e1, t1, "", "", p1)
	h2, m2 := render(t, e2, t2, "", "", p2)
	if h1 != h2 {
		t.Error("HTML reports differ between identical runs")
	}
	if m1 != m2 {
		t.Error("markdown reports differ between identical runs")
	}
	if !strings.Contains(h1, "<html>") || !strings.Contains(h1, "</html>") {
		t.Error("HTML report is not a complete document")
	}
	if !strings.Contains(h1, "SLO timeline") || !strings.Contains(m1, "## SLO timeline") {
		t.Error("reports are missing the SLO timeline section")
	}
	if !strings.Contains(h1, "Recorded time series") {
		t.Error("HTML report is missing the time-series section")
	}
	if !strings.Contains(h1, "Placement provenance") || !strings.Contains(m1, "## Placement provenance") {
		t.Error("reports are missing the placement-provenance section")
	}
	if !strings.Contains(m1, "Most-contested banks") || !strings.Contains(m1, "Per-VM placement rationale") {
		t.Error("provenance section is missing its rationale/contested-banks tables")
	}
}

// TestReportSectionsSynthetic drives every section from hand-built inputs,
// so the assertions are exact: a violation with a known dominant component,
// a churn record with a known cause, a series that fires the SLO-onset
// alert, a journalled cell, and a trace span.
func TestReportSectionsSynthetic(t *testing.T) {
	dir := t.TempDir()

	events := filepath.Join(dir, "ev.jsonl")
	evF, err := os.Create(events)
	if err != nil {
		t.Fatal(err)
	}
	log := obs.NewEventLog(evF)
	log.EmitRunStart(obs.RunStart{Design: "Jumanji", Epochs: 3, Warmup: 0, Banks: 20, BankBytes: 1 << 20,
		Apps: []obs.AppInfo{{App: 0, Name: "xapian", LatencyCritical: true, DeadlineCycles: 1e6}}})
	log.EmitEpoch(obs.Epoch{Epoch: 0, TimeUs: 0, Reconfigured: true, WorstLatNorm: 0.8})
	log.EmitReconfigChurn(obs.ReconfigChurn{Epoch: 0, TimeUs: 0, Cause: "initial",
		MaxMovedFraction: 0.25, MovedBytes: 4 << 20, InvalidatedLines: 65536, AppsMoved: 1})
	log.EmitEpoch(obs.Epoch{Epoch: 1, TimeUs: 1e5, Reconfigured: false, WorstLatNorm: 1.4})
	log.EmitSLOViolation(obs.SLOViolation{Epoch: 1, TimeUs: 1e5, App: 0, Name: "xapian", Design: "Jumanji",
		LatNorm: 1.4, SlackCycles: -4e5, AllocBytes: 2 << 20,
		Breakdown: obs.LatencyBreakdown{BaseCycles: 100, BankCycles: 50, NoCCycles: 30, MemCycles: 80, QueueCycles: 300},
		Dominant:  "queue"})
	log.EmitRunEnd(obs.RunEnd{Design: "Jumanji", WorstNormTail: 1.4, BatchWeightedSpeedup: 1.1, Vulnerability: 0})
	if err := log.Err(); err != nil {
		t.Fatal(err)
	}
	if err := evF.Close(); err != nil {
		t.Fatal(err)
	}

	ts := filepath.Join(dir, "run.ts.json")
	db := tsdb.New(64)
	db.Append("system.lat_norm.p95", 0, 0.8)
	db.Append("system.lat_norm.p95", 1, 1.4)
	tsF, err := os.Create(ts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Write(tsF); err != nil {
		t.Fatal(err)
	}
	tsF.Close()

	jpath := filepath.Join(dir, "run.journal")
	jw, err := journal.Create(jpath, "test-fingerprint")
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Append("fig5/synthetic", 0, 1, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	trace := filepath.Join(dir, "run.trace.json")
	trF, err := os.Create(trace)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace(trF)
	lane := tr.Lane("wall clock")
	tr.Span(lane, 0, "core.place", "span", 0, 1500, nil)
	tr.Span(lane, 0, "core.place", "span", 2000, 500, nil)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	trF.Close()

	html, md := render(t, events, ts, jpath, trace, "")
	for _, want := range []string{
		"Jumanji",             // run row
		"queue",               // dominant component
		"initial",             // churn cause
		tsdb.RuleSLOOnset,     // replayed alert
		"system.lat_norm.p95", // series row
		"fig5/synthetic",      // journal label
		"core.place",          // span row
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown report is missing %q", want)
		}
		if !strings.Contains(html, want) {
			t.Errorf("HTML report is missing %q", want)
		}
	}
	// The dominant share divides by the full breakdown (560 cycles), so
	// queue's 300 cycles is 53.6%.
	if !strings.Contains(md, "53.6%") {
		t.Errorf("markdown report is missing the dominant-share percentage; got:\n%s", md)
	}
}

// TestReportProvenanceSynthetic drives the provenance section from a
// hand-built log: a VM whose banks change between two reconfigurations,
// eliminated candidates naming a contested bank, and a run-wide valve —
// exact rows, not just non-emptiness.
func TestReportProvenanceSynthetic(t *testing.T) {
	dir := t.TempDir()
	prov := filepath.Join(dir, "prov.jsonl")
	pvF, err := os.Create(prov)
	if err != nil {
		t.Fatal(err)
	}
	log := obs.NewEventLog(pvF)
	r := obs.NewProvRecorder(log, "Jumanji", []string{"xapian"})

	r.StartEpoch(0, 0)
	r.Decision(obs.StageVMBanks, 0, -1, false, 2<<20)
	r.Eliminated(obs.StageVMBanks, 0, -1, 5, 1, 0, obs.ElimSecurityDomain)
	r.Placed(obs.StageVMBanks, 0, -1, 2, 1, 1<<20)
	r.Placed(obs.StageVMBanks, 0, -1, 3, 2, 1<<20)
	r.Flush()

	r.StartEpoch(1, 1e5)
	r.Valve(obs.ValveShrinkLatSizes, -1, 1, 0.9, "lat-crit data did not fit")
	r.Decision(obs.StageVMBanks, 0, -1, false, 2<<20)
	r.Eliminated(obs.StageVMBanks, 0, -1, 5, 1, 0, obs.ElimSecurityDomain)
	r.Placed(obs.StageVMBanks, 0, -1, 2, 1, 1<<20)
	r.Placed(obs.StageVMBanks, 0, -1, 7, 3, 1<<20)
	r.Flush()

	if err := log.Err(); err != nil {
		t.Fatal(err)
	}
	if err := pvF.Close(); err != nil {
		t.Fatal(err)
	}

	in, err := loadInputs("", "", "", "", prov)
	if err != nil {
		t.Fatal(err)
	}
	if in.Prov.Records != 2 || in.Prov.Valves != 1 {
		t.Fatalf("aggregate = %d decisions, %d valves; want 2, 1", in.Prov.Records, in.Prov.Valves)
	}
	rep, err := buildReport("prov report", 10, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ProvVMs) != 1 {
		t.Fatalf("ProvVMs = %+v; want one row", rep.ProvVMs)
	}
	vm := rep.ProvVMs[0]
	if vm.Design != "Jumanji" || vm.VM != 0 || vm.Epoch != 1 || vm.Epochs != 2 {
		t.Fatalf("vm row = %+v; want Jumanji vm 0 at epoch 1 over 2 reconfigs", vm)
	}
	if len(vm.Banks) != 2 || vm.Banks[0] != 2 || vm.Banks[1] != 7 {
		t.Fatalf("vm banks = %v; want [2 7]", vm.Banks)
	}
	if vm.Eliminated[obs.ElimSecurityDomain] != 1 {
		t.Fatalf("vm eliminations = %v; want one security-domain conflict", vm.Eliminated)
	}
	// Bank 5 lost both contests; ranked first.
	if len(rep.ProvBanks) == 0 || rep.ProvBanks[0].Bank != 5 || rep.ProvBanks[0].Contested != 2 {
		t.Fatalf("ProvBanks = %+v; want bank 5 contested twice first", rep.ProvBanks)
	}
	// Epoch 1 swapped bank 3 for bank 7; the why line carries the epoch's
	// elimination pressure and the run-wide valve.
	if len(rep.ProvMoves) != 1 {
		t.Fatalf("ProvMoves = %+v; want one move", rep.ProvMoves)
	}
	mv := rep.ProvMoves[0]
	if mv.Epoch != 1 || len(mv.Gained) != 1 || mv.Gained[0] != 7 || len(mv.Lost) != 1 || mv.Lost[0] != 3 {
		t.Fatalf("move = %+v; want gained [7] lost [3] at epoch 1", mv)
	}
	if !strings.Contains(mv.Why, obs.ElimSecurityDomain) || !strings.Contains(mv.Why, obs.ValveShrinkLatSizes) {
		t.Fatalf("move why = %q; want the elimination reason and the fired valve", mv.Why)
	}
	if len(rep.ProvValves) != 1 || rep.ProvValves[0].Valve != obs.ValveShrinkLatSizes || rep.ProvValves[0].Count != 1 {
		t.Fatalf("ProvValves = %+v", rep.ProvValves)
	}

	var h, m bytes.Buffer
	if err := renderHTML(&h, rep); err != nil {
		t.Fatal(err)
	}
	if err := renderMarkdown(&m, rep); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Placement provenance", "Most-contested banks", "why did VM X move", obs.ValveShrinkLatSizes} {
		if !strings.Contains(m.String(), want) {
			t.Errorf("markdown provenance section is missing %q", want)
		}
		if !strings.Contains(h.String(), want) {
			t.Errorf("HTML provenance section is missing %q", want)
		}
	}
}

// TestReportRejectsMalformedInputs: corrupt artifacts fail loudly instead
// of producing a silently empty report.
func TestReportRejectsMalformedInputs(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte("{\"v\":99,\"seq\":1,\"type\":\"epoch\",\"data\":{}}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadInputs(bad, "", "", "", ""); err == nil {
		t.Error("wrong-schema event log was accepted")
	}
	if _, err := loadInputs("", "", "", "", bad); err == nil {
		t.Error("wrong-schema provenance log was accepted")
	}
	badTS := filepath.Join(dir, "bad.ts.json")
	if err := os.WriteFile(badTS, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadInputs("", badTS, "", "", ""); err == nil {
		t.Error("malformed tsdb dump was accepted")
	}
}
