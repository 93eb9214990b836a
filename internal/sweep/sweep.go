// Package sweep is the crash-safe cell engine shared by every fan-out in the
// reproduction: the per-figure harnesses, the public Compare API, and the
// design-space sweeps all hand their cells to Cells, which layers journaling,
// resume, keep-going failure isolation, watchdogs, and fault injection over
// internal/parallel's worker pool.
//
// The layering is strictly pay-for-what-you-use: with a nil *Engine, Cells is
// exactly the fan-out the harness has always run — parallel.Map over private
// obs cells merged in index order — with zero added allocations per cell
// (BenchmarkSweepOverhead pins this). With an Engine, each completed cell's
// result and observability state are gob-encoded and appended to a
// crash-safe journal (internal/journal) keyed by (label, cell, seed); a
// resume run replays journalled cells through obs.CellFromState and runs only
// the remainder, producing byte-identical merged output. Keep-going mode
// recovers per-cell panics into a Report naming each failed cell's
// coordinates, seed, and repro command, which Cells returns as a *RunError;
// watchdog deadlines flag stuck cells and cancel wedged ones through a
// per-cell context.
package sweep

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jumanji/internal/chaos"
	"jumanji/internal/journal"
	"jumanji/internal/obs"
	"jumanji/internal/parallel"
)

// CellRef names one cell of one sweep: the sweep's label (e.g. "fig12") and
// the cell index within it.
type CellRef struct {
	Label string
	Cell  int
}

func (r CellRef) String() string { return fmt.Sprintf("%s:%d", r.Label, r.Cell) }

// ParseCellRef parses "label:index" (the -cell flag's syntax).
func ParseCellRef(s string) (CellRef, error) {
	i := strings.LastIndex(s, ":")
	if i <= 0 || i == len(s)-1 {
		return CellRef{}, fmt.Errorf("sweep: cell ref %q is not label:index", s)
	}
	n, err := strconv.Atoi(s[i+1:])
	if err != nil || n < 0 {
		return CellRef{}, fmt.Errorf("sweep: cell ref %q has invalid index", s)
	}
	return CellRef{Label: s[:i], Cell: n}, nil
}

// FailedCell records one cell whose job panicked during a keep-going run.
type FailedCell struct {
	Label string
	Cell  int
	Seed  int64 // the sweep's base seed: what -seed must be to reproduce
	Value any   // the recovered panic value
	Stack []byte
	Repro string // command line that re-runs exactly this cell, if known
}

// Report summarizes a run's degradations: failed cells, cells skipped by an
// interrupt, cells replayed from the journal, watchdog soft-deadline
// firings, and journal records lost to append/fsync failures. A zero report
// is a clean run.
type Report struct {
	Failed      []FailedCell
	Skipped     []CellRef
	Resumed     int
	Stuck       int
	Interrupted bool
	// JournalErrors counts cells whose journal record was lost (encode or
	// append/fsync failure — e.g. ENOSPC); JournalErr is the first such
	// error, which names the first cell that must re-run after a crash.
	JournalErrors int
	JournalErr    string
}

// Degraded reports whether any cell failed or was skipped.
func (r *Report) Degraded() bool { return len(r.Failed) > 0 || len(r.Skipped) > 0 }

// WriteText renders the human-readable degraded-run report: one block per
// failed cell (coordinates, seed, panic, repro command, stack) and a summary
// of skips.
func (r *Report) WriteText(w io.Writer) {
	for _, f := range r.Failed {
		fmt.Fprintf(w, "FAILED cell %s:%d (seed %d): %v\n", f.Label, f.Cell, f.Seed, f.Value)
		if f.Repro != "" {
			fmt.Fprintf(w, "  repro: %s\n", f.Repro)
		}
		if len(f.Stack) > 0 {
			for _, line := range strings.Split(strings.TrimRight(string(f.Stack), "\n"), "\n") {
				fmt.Fprintf(w, "  | %s\n", line)
			}
		}
	}
	if len(r.Skipped) > 0 {
		refs := make([]string, len(r.Skipped))
		for i, s := range r.Skipped {
			refs[i] = s.String()
		}
		fmt.Fprintf(w, "skipped %d cells: %s\n", len(r.Skipped), strings.Join(refs, ", "))
	}
	if r.JournalErrors > 0 {
		fmt.Fprintf(w, "journal lost %d cell record(s); a crash re-runs them (first: %s)\n",
			r.JournalErrors, r.JournalErr)
	}
}

// RunError is the error Cells returns after a degraded sweep drains: every
// runnable cell has finished (and been journalled), the survivors' sinks are
// merged, and the report names what is missing. Commands exit nonzero on it.
type RunError struct {
	Report Report
}

func (e *RunError) Error() string {
	n := len(e.Report.Failed)
	msg := fmt.Sprintf("sweep: degraded run: %d cell(s) failed", n)
	if k := len(e.Report.Skipped); k > 0 {
		msg += fmt.Sprintf(", %d skipped", k)
	}
	if e.Report.Interrupted {
		msg += " (interrupted)"
	}
	return msg
}

// OnlyDone is the error Cells returns after single-cell repro mode
// (Engine.Only) has run its one cell: there is nothing left to do, and the
// enclosing figure's aggregation must not run on the other cells' zero
// values.
type OnlyDone struct {
	Ref CellRef
}

func (e *OnlyDone) Error() string {
	return fmt.Sprintf("sweep: single cell %s complete", e.Ref)
}

// Engine configures the crash-safety layer for a run. A nil *Engine is the
// zero-overhead fast path. One Engine is shared across all of a run's sweeps
// (a figure may fan out several labelled sweeps); its Report accumulates.
type Engine struct {
	// Journal, when set, receives one fsync'd record per completed cell.
	Journal *journal.Writer
	// Resume, when set, is a previously written journal: cells present in it
	// are replayed instead of run.
	Resume *journal.Log
	// KeepGoing recovers per-cell panics and finishes the rest of the sweep;
	// the default aborts on first failure (skipping unstarted cells) but
	// still reports coordinates and drains cleanly.
	KeepGoing bool
	// Stop is polled before each cell starts; a SIGINT handler trips it so
	// in-flight cells drain (and journal) while unstarted ones are skipped.
	Stop *parallel.Stopper
	// Soft and Hard are per-cell wall-clock deadlines: Soft logs a stuck
	// cell (with its active phase spans), Hard cancels it via the context
	// passed to the cell job. Zero disables each.
	Soft, Hard time.Duration
	// Chaos injects the "panic-cell" fault at this layer; simulator-level
	// faults ride into cells through the run callback's own config.
	Chaos *chaos.Injector
	// Log receives watchdog and journal-degradation diagnostics (stderr in
	// the commands). Nil discards them.
	Log io.Writer
	// Repro renders the command line that re-runs one cell in isolation,
	// for failure reports. Nil leaves Repro fields empty.
	Repro func(label string, cell int) string
	// Only, when set, runs just that one cell (serially, no journal) and
	// returns *OnlyDone; sweeps with other labels run in full so multi-sweep
	// figures still reach the target label.
	Only *CellRef

	mu     sync.Mutex // guards report
	logMu  sync.Mutex
	report Report
}

// Report returns a copy of the accumulated degradation report.
func (e *Engine) Report() Report {
	if e == nil {
		return Report{}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.report
}

func (e *Engine) logf(format string, args ...any) {
	if e.Log == nil {
		return
	}
	e.logMu.Lock()
	fmt.Fprintf(e.Log, format+"\n", args...)
	e.logMu.Unlock()
}

func (e *Engine) repro(label string, cell int) string {
	if e.Repro == nil {
		return ""
	}
	return e.Repro(label, cell)
}

// Cells fans run(0..n-1) across workers with the engine's crash-safety
// layers. Each cell receives a private obs cell (s.Cell) and, when a hard
// deadline is armed, a context that the watchdog cancels; the context is nil
// otherwise, costing nothing. The cells merge into s in cell-index order
// (s.Merge, which also fires s's publish hooks), and the results return in
// the same order.
//
// The error is a *RunError when cells failed or were skipped, an *OnlyDone
// after single-cell repro mode ran its cell, or a plain error for an
// out-of-range Engine.Only index or a failed sink merge; the results are
// only meaningful without one. A cell job's panic stays a panic on the
// nil-Engine path and in single-cell repro; an Engine's full sweep isolates
// it into the RunError's report.
func Cells[T any](e *Engine, s obs.Sinks, label string, seed int64, workers, n int,
	run func(i int, c *obs.Cell, ctx context.Context) T) ([]T, error) {
	if e == nil {
		return cellsFast(s, workers, n, run)
	}
	if e.Only != nil && e.Only.Label == label {
		return cellsOnly(e, s, label, n, run)
	}
	return cellsFull(e, s, label, seed, workers, n, run)
}

// cellsFast is the historical harness fan-out, byte for byte: no journal, no
// recovery, no per-cell context. Kept as its own function so the disabled
// path adds zero allocations per cell by construction.
func cellsFast[T any](s obs.Sinks, workers, n int, run func(i int, c *obs.Cell, ctx context.Context) T) ([]T, error) {
	s.Progress.Begin(n, parallel.Workers(min(workers, n)))
	cells := make([]*obs.Cell, n)
	out := parallel.Map(workers, n, func(i int) T {
		t0 := time.Now()
		cells[i] = s.Cell()
		res := run(i, cells[i], nil)
		d := time.Since(t0)
		s.Spans.Record("harness.cell", t0, d)
		s.Progress.CellDone(d)
		return res
	})
	return out, mergeCells(s, cells)
}

// cellsOnly runs the single cell named by Engine.Only, serially and without
// journaling (it is a repro mode), then returns *OnlyDone so the figure's
// aggregation never sees the other cells' zero values.
func cellsOnly[T any](e *Engine, s obs.Sinks, label string, n int, run func(i int, c *obs.Cell, ctx context.Context) T) ([]T, error) {
	i := e.Only.Cell
	if i < 0 || i >= n {
		return nil, fmt.Errorf("sweep: cell %s:%d out of range (sweep %q has %d cells)", label, i, label, n)
	}
	s.Progress.Begin(1, 1)
	c := s.Cell()
	if e.Chaos.Fires(chaos.CellPanic, int64(i), labelKey(label)) {
		panic(fmt.Sprintf("chaos: injected panic in cell %s:%d", label, i))
	}
	t0 := time.Now()
	run(i, c, nil)
	d := time.Since(t0)
	s.Spans.Record("harness.cell", t0, d)
	s.Progress.CellDone(d)
	if err := mergeCells(s, []*obs.Cell{c}); err != nil {
		return nil, err
	}
	return nil, &OnlyDone{Ref: CellRef{Label: label, Cell: i}}
}

// cellsFull is the engine path: resume, journal, chaos, watchdog, and
// failure isolation around each cell.
func cellsFull[T any](e *Engine, s obs.Sinks, label string, seed int64, workers, n int,
	run func(i int, c *obs.Cell, ctx context.Context) T) ([]T, error) {
	s.Progress.Begin(n, parallel.Workers(min(workers, n)))

	var wd *parallel.Watchdog
	if e.Soft > 0 || e.Hard > 0 {
		s.Spans.TrackActive()
		wd = &parallel.Watchdog{
			Soft: e.Soft,
			Hard: e.Hard,
			OnStuck: func(i int, running time.Duration) {
				e.mu.Lock()
				e.report.Stuck++
				e.mu.Unlock()
				phase := ""
				if act := s.Spans.Active(); len(act) > 0 {
					last := act[len(act)-1]
					phase = fmt.Sprintf(" (in %s for %s)", last.Name,
						time.Since(last.Start).Round(time.Millisecond))
				}
				e.logf("sweep: cell %s:%d running for %s, past the soft deadline%s",
					label, i, running.Round(time.Millisecond), phase)
			},
			OnHard: func(i int, running time.Duration) {
				e.logf("sweep: cell %s:%d exceeded the hard deadline after %s; canceling",
					label, i, running.Round(time.Millisecond))
			},
		}
		defer wd.Close()
	}

	cells := make([]*obs.Cell, n)
	var journalLost sync.Once
	// recordJournalErr surfaces one lost journal record: counted (and the
	// first error kept, with its cell label) in the report, logged once per
	// sweep so a full disk does not spam a thousand-cell run.
	recordJournalErr := func(err error) {
		e.mu.Lock()
		e.report.JournalErrors++
		if e.report.JournalErr == "" {
			e.report.JournalErr = err.Error()
		}
		e.mu.Unlock()
		journalLost.Do(func() {
			e.logf("sweep: %v; continuing without crash safety for affected cells", err)
		})
	}
	var nJournalErrs atomic.Int64
	out, failures, skipped := parallel.MapRecover(workers, n, e.Stop, !e.KeepGoing, func(i int) T {
		t0 := time.Now()
		if payload, ok := e.Resume.Get(label, i, seed); ok {
			res, c, err := decodeCell[T](payload)
			if err == nil {
				cells[i] = c
				e.mu.Lock()
				e.report.Resumed++
				e.mu.Unlock()
				s.Progress.CellDone(time.Since(t0))
				return res
			}
			e.logf("sweep: journalled cell %s:%d unusable (%v); re-running", label, i, err)
		}
		if e.Chaos.Fires(chaos.CellPanic, int64(i), labelKey(label)) {
			panic(fmt.Sprintf("chaos: injected panic in cell %s:%d", label, i))
		}
		var (
			ctx    context.Context
			cancel context.CancelFunc
		)
		if e.Hard > 0 {
			ctx, cancel = context.WithCancel(context.Background())
			defer cancel()
		}
		var end func()
		if cancel != nil {
			end = wd.Begin(i, func() { cancel() })
		} else {
			end = wd.Begin(i, nil)
		}
		cells[i] = s.Cell()
		res := run(i, cells[i], ctx)
		end()
		if e.Journal != nil {
			if payload, err := encodeCell(res, cells[i]); err != nil {
				nJournalErrs.Add(1)
				recordJournalErr(fmt.Errorf("cell %s:%d not journalled: %w", label, i, err))
			} else if err := e.Journal.Append(label, i, seed, payload); err != nil {
				// The journal's sticky error already names the first lost
				// cell; count every affected cell here.
				nJournalErrs.Add(1)
				recordJournalErr(err)
			}
		}
		d := time.Since(t0)
		s.Spans.Record("harness.cell", t0, d)
		s.Progress.CellDone(d)
		return res
	})

	// Failed cells' sinks are partial (the panic unwound mid-recording):
	// drop them so the merged output holds only completed cells.
	for _, f := range failures {
		cells[f.Index] = nil
	}
	if err := mergeCells(s, cells); err != nil {
		return nil, err
	}

	// Journal degradation lands on the shared registry only when it
	// happened, so a healthy run's metrics stay byte-identical. The bump is
	// on the coordinating goroutine — the registry is single-threaded.
	if k := nJournalErrs.Load(); k > 0 && s.Metrics != nil {
		s.Metrics.Counter("sweep.journal_errors").Add(uint64(k))
	}

	if len(failures) == 0 && len(skipped) == 0 {
		return out, nil
	}
	// Degradation counters land only on degraded runs, so a clean resume's
	// metrics output stays byte-identical to an uninterrupted run.
	if s.Metrics != nil {
		if k := len(failures); k > 0 {
			s.Metrics.Counter("sweep.cells_failed").Add(uint64(k))
		}
		if k := len(skipped); k > 0 {
			s.Metrics.Counter("sweep.cells_skipped").Add(uint64(k))
		}
	}
	e.mu.Lock()
	for _, f := range failures {
		e.report.Failed = append(e.report.Failed, FailedCell{
			Label: label, Cell: f.Index, Seed: seed,
			Value: f.Value, Stack: f.Stack,
			Repro: e.repro(label, f.Index),
		})
	}
	for _, i := range skipped {
		e.report.Skipped = append(e.report.Skipped, CellRef{Label: label, Cell: i})
	}
	if e.Stop.Stopped() {
		e.report.Interrupted = true
	}
	report := e.report
	e.mu.Unlock()
	return nil, &RunError{Report: report}
}

func mergeCells(s obs.Sinks, cells []*obs.Cell) error {
	if err := s.Merge(cells); err != nil {
		return fmt.Errorf("sweep: merging cell sinks: %w", err)
	}
	return nil
}

// labelKey folds a sweep label into a chaos hash key so rate-armed
// panic-cell faults decorrelate across labels. A pinned fault
// (panic-cell=N) matches on the first key — the cell index — so it fires at
// cell N of every sweep, which is what a repro wants.
func labelKey(label string) int64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	return int64(h.Sum64())
}

// encodeCell packs one completed cell — its result and the lossless state of
// its private sinks — into a journal payload. gob rather than JSON because
// results legitimately contain NaN (timeline epochs with no latency sample).
func encodeCell[T any](res T, c *obs.Cell) ([]byte, error) {
	st, err := c.State()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(&res); err != nil {
		return nil, fmt.Errorf("encoding result: %w", err)
	}
	if err := enc.Encode(&st); err != nil {
		return nil, fmt.Errorf("encoding cell state: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeCell[T any](payload []byte) (T, *obs.Cell, error) {
	var res T
	dec := gob.NewDecoder(bytes.NewReader(payload))
	if err := dec.Decode(&res); err != nil {
		return res, nil, fmt.Errorf("decoding result: %w", err)
	}
	var st obs.CellState
	if err := dec.Decode(&st); err != nil {
		return res, nil, fmt.Errorf("decoding cell state: %w", err)
	}
	c, err := obs.CellFromState(st)
	return res, c, err
}
