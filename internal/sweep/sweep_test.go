package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"jumanji/internal/chaos"
	"jumanji/internal/journal"
	"jumanji/internal/obs"
	"jumanji/internal/parallel"
)

// cellRes is a representative cell result: exported fields (the journal gob
// requirement) and a NaN in a slice, which the real harness produces for
// epochs with no latency sample and which JSON could not journal.
type cellRes struct {
	ID   float64
	Tail []float64
}

const nCells = 6

// runCell writes a deterministic signature into every sink, so byte
// comparison of the merged output catches any replay infidelity.
func runCell(i int, c *obs.Cell, _ context.Context) cellRes {
	c.Metrics.Counter("cells.done").Add(1)
	c.Metrics.Histogram("cells.val", 0, 10, 4).Observe(float64(i))
	c.Events.EmitRunEnd(obs.RunEnd{Design: fmt.Sprintf("cell-%d", i), WorstNormTail: float64(i) / 2})
	lane := c.Trace.Lane(fmt.Sprintf("cell-%d", i))
	c.Trace.Span(lane, 0, "cell", "cell", 0, 1000+float64(i), map[string]any{"i": i})
	return cellRes{ID: float64(i), Tail: []float64{math.NaN(), float64(i) * 2}}
}

// runSweep fans runCell over fresh sinks and renders everything to strings,
// returning the *RunError if the sweep degrades.
func runSweep(t *testing.T, e *Engine, workers int) (out []cellRes, metrics, events, trace string, rerr *RunError) {
	t.Helper()
	reg := obs.NewRegistry()
	var evBuf, trBuf bytes.Buffer
	s := obs.Sinks{Metrics: reg, Events: obs.NewEventLog(&evBuf), Trace: obs.NewTrace(&trBuf)}
	out, err := Cells(e, s, "lab", 42, workers, nCells, runCell)
	if err != nil && !errors.As(err, &rerr) {
		t.Fatal(err)
	}
	var mb bytes.Buffer
	if err := reg.WriteText(&mb); err != nil {
		t.Fatal(err)
	}
	if err := s.Trace.Close(); err != nil {
		t.Fatal(err)
	}
	return out, mb.String(), evBuf.String(), trBuf.String(), rerr
}

func wantRes(t *testing.T, out []cellRes) {
	t.Helper()
	if len(out) != nCells {
		t.Fatalf("got %d results, want %d", len(out), nCells)
	}
	for i, r := range out {
		if r.ID != float64(i) || !math.IsNaN(r.Tail[0]) || r.Tail[1] != float64(i)*2 {
			t.Fatalf("cell %d result corrupted: %+v", i, r)
		}
	}
}

// The headline acceptance test: a sweep killed partway (one cell panics, the
// rest journal), resumed from its journal, produces merged output
// byte-identical to a run that was never interrupted.
func TestResumeByteIdentical(t *testing.T) {
	_, wantM, wantE, wantT, rerr := runSweep(t, nil, 4)
	if rerr != nil {
		t.Fatalf("reference run degraded: %v", rerr)
	}

	// Interrupted run: cell 3 panics (injected), the other five journal.
	path := filepath.Join(t.TempDir(), "cells.journal")
	w, err := journal.Create(path, "fp-v1")
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{
		Journal:   w,
		KeepGoing: true,
		Chaos:     chaos.New(1).Pin(chaos.CellPanic, 3),
	}
	_, _, _, _, rerr = runSweep(t, e, 4)
	if rerr == nil || len(rerr.Report.Failed) != 1 || rerr.Report.Failed[0].Cell != 3 {
		t.Fatalf("interrupted run: %+v", rerr)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume: five cells replay from the journal, cell 3 runs live, and the
	// freshly completed cell is appended for the next crash.
	log, err := journal.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Check("fp-v1"); err != nil {
		t.Fatal(err)
	}
	if log.Len() != nCells-1 {
		t.Fatalf("journal has %d cells, want %d", log.Len(), nCells-1)
	}
	w, err = journal.OpenAppend(path, log)
	if err != nil {
		t.Fatal(err)
	}
	e2 := &Engine{Journal: w, Resume: log}
	out, m, ev, tr, rerr := runSweep(t, e2, 4)
	if rerr != nil {
		t.Fatalf("resume degraded: %v", rerr)
	}
	wantRes(t, out)
	if rep := e2.Report(); rep.Resumed != nCells-1 {
		t.Fatalf("resumed %d cells, want %d", rep.Resumed, nCells-1)
	}
	if m != wantM {
		t.Errorf("resumed metrics diverge:\nwant:\n%s\ngot:\n%s", wantM, m)
	}
	if ev != wantE {
		t.Errorf("resumed events diverge:\nwant:\n%s\ngot:\n%s", wantE, ev)
	}
	if tr != wantT {
		t.Errorf("resumed trace diverges:\nwant:\n%s\ngot:\n%s", wantT, tr)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// The journal is now complete: a second resume replays everything and is
	// still byte-identical.
	log, err = journal.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if log.Len() != nCells {
		t.Fatalf("journal after resume has %d cells, want %d", log.Len(), nCells)
	}
	e3 := &Engine{Resume: log}
	out, m, ev, tr, rerr = runSweep(t, e3, 4)
	if rerr != nil {
		t.Fatalf("full replay degraded: %v", rerr)
	}
	wantRes(t, out)
	if rep := e3.Report(); rep.Resumed != nCells {
		t.Fatalf("full replay resumed %d cells, want %d", rep.Resumed, nCells)
	}
	if m != wantM || ev != wantE || tr != wantT {
		t.Error("full replay output diverges from uninterrupted run")
	}
}

// An engine with journaling but no faults must not perturb output: the
// crash-safety layer observes, it never steers.
func TestEngineCleanRunMatchesFastPath(t *testing.T) {
	_, wantM, wantE, wantT, _ := runSweep(t, nil, 1)
	w, err := journal.Create(filepath.Join(t.TempDir(), "c.journal"), "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	_, m, ev, tr, rerr := runSweep(t, &Engine{Journal: w, KeepGoing: true}, 4)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if m != wantM || ev != wantE || tr != wantT {
		t.Error("journalled clean run diverges from plain run")
	}
}

// Keep-going: one forced panic, every other cell completes, and the report
// names the cell's coordinates, seed, repro command, and stack.
func TestKeepGoingReport(t *testing.T) {
	e := &Engine{
		KeepGoing: true,
		Chaos:     chaos.New(1).Pin(chaos.CellPanic, 2),
		Repro: func(label string, cell int) string {
			return fmt.Sprintf("figures -cell %s:%d -seed 42", label, cell)
		},
	}
	_, m, _, _, rerr := runSweep(t, e, 3)
	if rerr == nil {
		t.Fatal("degraded run returned cleanly")
	}
	rep := rerr.Report
	if len(rep.Failed) != 1 || len(rep.Skipped) != 0 {
		t.Fatalf("report = %+v, want exactly cell 2 failed", rep)
	}
	f := rep.Failed[0]
	if f.Label != "lab" || f.Cell != 2 || f.Seed != 42 {
		t.Fatalf("failure coordinates = %+v", f)
	}
	if f.Repro != "figures -cell lab:2 -seed 42" {
		t.Fatalf("repro = %q", f.Repro)
	}
	if !strings.Contains(fmt.Sprint(f.Value), "chaos: injected panic in cell lab:2") {
		t.Fatalf("panic value = %v", f.Value)
	}
	if len(f.Stack) == 0 {
		t.Fatal("no stack captured")
	}
	// Every survivor ran and merged: the per-cell counter counts 5 of 6.
	if !strings.Contains(m, fmt.Sprintf("cells.done counter %d", nCells-1)) {
		t.Fatalf("survivors did not all complete:\n%s", m)
	}
	if !strings.Contains(m, "sweep.cells_failed") {
		t.Error("degraded run missing sweep.cells_failed counter")
	}
	var buf bytes.Buffer
	rep.WriteText(&buf)
	for _, want := range []string{"FAILED cell lab:2 (seed 42)", "repro: figures -cell lab:2"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report text missing %q:\n%s", want, buf.String())
		}
	}
}

// Without keep-going a failure still drains gracefully: later cells are
// skipped (not zero-filled silently) and the report says which.
func TestFailFastSkips(t *testing.T) {
	e := &Engine{Chaos: chaos.New(1).Pin(chaos.CellPanic, 1)}
	_, m, _, _, rerr := runSweep(t, e, 1)
	if rerr == nil {
		t.Fatal("degraded run returned cleanly")
	}
	rep := rerr.Report
	if len(rep.Failed) != 1 || rep.Failed[0].Cell != 1 {
		t.Fatalf("failed = %+v", rep.Failed)
	}
	if len(rep.Skipped) != nCells-2 {
		t.Fatalf("skipped = %+v, want cells 2..%d", rep.Skipped, nCells-1)
	}
	if !strings.Contains(m, "sweep.cells_skipped") {
		t.Error("missing sweep.cells_skipped counter")
	}
}

// A tripped Stopper (the SIGINT path) skips every unstarted cell and marks
// the run interrupted.
func TestStopperInterrupts(t *testing.T) {
	stop := &parallel.Stopper{}
	stop.Stop()
	e := &Engine{Stop: stop, KeepGoing: true}
	_, _, _, _, rerr := runSweep(t, e, 2)
	if rerr == nil {
		t.Fatal("interrupted run returned cleanly")
	}
	rep := rerr.Report
	if !rep.Interrupted || len(rep.Skipped) != nCells || len(rep.Failed) != 0 {
		t.Fatalf("report = %+v", rep)
	}
}

// Single-cell repro mode: the matching label runs exactly its one cell and
// returns *OnlyDone; other labels run in full so the figure reaches it. An
// index past the sweep's end is an error of its own and runs nothing.
func TestOnlyMode(t *testing.T) {
	e := &Engine{Only: &CellRef{Label: "lab", Cell: 4}}
	reg := obs.NewRegistry()
	var evBuf bytes.Buffer
	s := obs.Sinks{Metrics: reg, Events: obs.NewEventLog(&evBuf), Trace: obs.NewTrace(nil)}

	out, err := Cells(e, s, "other", 42, 1, 3, runCell)
	if err != nil || len(out) != 3 || out[2].ID != 2 {
		t.Fatalf("non-target label did not run fully: %+v, %v", out, err)
	}

	_, err = Cells(e, s, "lab", 42, 1, nCells, runCell)
	var done *OnlyDone
	if !errors.As(err, &done) {
		t.Fatalf("err = %v, want *OnlyDone", err)
	}
	if done.Ref != (CellRef{Label: "lab", Cell: 4}) {
		t.Fatalf("OnlyDone ref = %+v", done.Ref)
	}
	if got := reg.Counter("cells.done").Value(); got != 3+1 {
		t.Fatalf("cells.done = %d, want 4 (full 'other' sweep + one 'lab' cell)", got)
	}

	e.Only = &CellRef{Label: "lab", Cell: nCells}
	_, err = Cells(e, s, "lab", 42, 1, nCells, runCell)
	if err == nil || errors.As(err, &done) {
		t.Fatalf("out-of-range cell: err = %v, want a non-OnlyDone error", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("has %d cells", nCells)) {
		t.Errorf("out-of-range error %q does not name the sweep's cell count", err)
	}
	if got := reg.Counter("cells.done").Value(); got != 3+1 {
		t.Fatalf("out-of-range cell ran a cell: cells.done = %d, want 4", got)
	}
}

func TestParseCellRef(t *testing.T) {
	ref, err := ParseCellRef("tailvsalloc/xapian:12")
	if err != nil || ref.Label != "tailvsalloc/xapian" || ref.Cell != 12 {
		t.Fatalf("ParseCellRef = %+v, %v", ref, err)
	}
	for _, bad := range []string{"", "lab", ":3", "lab:", "lab:-1", "lab:x"} {
		if _, err := ParseCellRef(bad); err == nil {
			t.Errorf("ParseCellRef(%q) accepted", bad)
		}
	}
	if (CellRef{Label: "fig12", Cell: 3}).String() != "fig12:3" {
		t.Error("CellRef.String format changed")
	}
}

// Soft deadline: a slow cell is logged as stuck (once) while it keeps
// running to completion.
func TestWatchdogSoftLogs(t *testing.T) {
	var logBuf bytes.Buffer
	e := &Engine{Soft: 20 * time.Millisecond, Log: &logBuf, KeepGoing: true}
	s := obs.Sinks{}
	out, err := Cells(e, s, "slow", 1, 2, 2, func(i int, c *obs.Cell, _ context.Context) int {
		if i == 0 {
			time.Sleep(120 * time.Millisecond)
		}
		return i + 10
	})
	if err != nil || out[0] != 10 || out[1] != 11 {
		t.Fatalf("out = %v, err = %v", out, err)
	}
	if got := logBuf.String(); !strings.Contains(got, "cell slow:0") || !strings.Contains(got, "past the soft deadline") {
		t.Fatalf("stuck log = %q", got)
	}
	if rep := e.Report(); rep.Stuck < 1 {
		t.Fatalf("Stuck = %d", rep.Stuck)
	}
}

// Hard deadline: a wedged cell's context is canceled, the panic it unwinds
// with is recorded as a failure, and the sweep finishes long before the
// wedge would have.
func TestWatchdogHardCancels(t *testing.T) {
	var logBuf bytes.Buffer
	e := &Engine{Hard: 30 * time.Millisecond, Log: &logBuf, KeepGoing: true}
	t0 := time.Now()
	_, err := Cells(e, obs.Sinks{}, "wedge", 1, 2, 2, func(i int, c *obs.Cell, ctx context.Context) int {
		if i == 0 {
			select {
			case <-ctx.Done():
				panic(fmt.Sprintf("canceled: %v", ctx.Err()))
			case <-time.After(10 * time.Second):
			}
		}
		return i
	})
	var rerr *RunError
	errors.As(err, &rerr)
	if elapsed := time.Since(t0); elapsed > 5*time.Second {
		t.Fatalf("hard deadline did not cancel (took %s)", elapsed)
	}
	if rerr == nil || len(rerr.Report.Failed) != 1 || rerr.Report.Failed[0].Cell != 0 {
		t.Fatalf("report = %+v", rerr)
	}
	if !strings.Contains(logBuf.String(), "exceeded the hard deadline") {
		t.Fatalf("hard log = %q", logBuf.String())
	}
}

// The disabled path must cost exactly what the historical inline fan-out
// cost: zero added allocations per cell.
func TestSweepAllocGuard(t *testing.T) {
	run := func(i int, c *obs.Cell, _ context.Context) int { return i }
	const n = 64
	baseline := testing.AllocsPerRun(20, func() {
		cells := make([]*obs.Cell, n)
		parallel.Map(1, n, func(i int) int {
			cells[i] = obs.Sinks{}.Cell()
			return run(i, cells[i], nil)
		})
		if err := (obs.Sinks{}).Merge(cells); err != nil {
			t.Fatal(err)
		}
	})
	got := testing.AllocsPerRun(20, func() {
		Cells(nil, obs.Sinks{}, "bench", 1, 1, n, run)
	})
	if got > baseline {
		t.Fatalf("disabled sweep path allocates %.0f/run, inline fan-out %.0f/run", got, baseline)
	}
}

// BenchmarkSweepOverhead is the recorded guard (BENCH_sweep.json, enforced
// by cmd/benchdiff in CI): the sweep layer's disabled path versus the bare
// inline fan-out it replaced, allocations pinned equal.
func BenchmarkSweepOverhead(b *testing.B) {
	run := func(i int, c *obs.Cell, _ context.Context) int { return i }
	const n = 64
	b.Run("baseline", func(b *testing.B) {
		b.ReportAllocs()
		for k := 0; k < b.N; k++ {
			cells := make([]*obs.Cell, n)
			parallel.Map(1, n, func(i int) int {
				cells[i] = obs.Sinks{}.Cell()
				return run(i, cells[i], nil)
			})
			if err := (obs.Sinks{}).Merge(cells); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("disabled", func(b *testing.B) {
		b.ReportAllocs()
		for k := 0; k < b.N; k++ {
			Cells(nil, obs.Sinks{}, "bench", 1, 1, n, run)
		}
	})
}

// enospcJournal is a journal.AppendFile whose writes fail with ENOSPC — the
// full-disk case the journal layer must surface, not swallow.
type enospcJournal struct{}

func (enospcJournal) Write([]byte) (int, error) { return 0, syscall.ENOSPC }
func (enospcJournal) Sync() error               { return nil }
func (enospcJournal) Close() error              { return nil }

// A sweep whose journal dies mid-run must still complete (results are
// computed in memory; only crash safety is lost) but has to say so: the
// report counts every lost record and keeps the first error with its cell
// label, and the shared registry gains the sweep.journal_errors counter.
func TestJournalErrorSurfaces(t *testing.T) {
	e := &Engine{Journal: journal.NewWriter(enospcJournal{}), KeepGoing: true}
	out, metrics, _, _, rerr := runSweep(t, e, 2)
	if rerr != nil {
		t.Fatalf("journal failure must not fail the sweep's cells: %v", rerr)
	}
	wantRes(t, out)
	rep := e.Report()
	if rep.JournalErrors != nCells {
		t.Fatalf("JournalErrors = %d, want %d", rep.JournalErrors, nCells)
	}
	if !strings.Contains(rep.JournalErr, "lab:") {
		t.Errorf("JournalErr %q does not name the lost cell's label", rep.JournalErr)
	}
	if !strings.Contains(rep.JournalErr, "no space left") && !strings.Contains(rep.JournalErr, "ENOSPC") {
		t.Errorf("JournalErr %q does not surface the underlying ENOSPC", rep.JournalErr)
	}
	if !strings.Contains(metrics, "sweep.journal_errors") {
		t.Errorf("metrics output lacks sweep.journal_errors:\n%s", metrics)
	}
	var buf bytes.Buffer
	rep.WriteText(&buf)
	if !strings.Contains(buf.String(), "journal lost 6 cell record(s)") {
		t.Errorf("WriteText output lacks the journal-degradation line:\n%s", buf.String())
	}
}
