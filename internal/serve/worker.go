package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"time"

	"jumanji/internal/chaos"
	"jumanji/internal/journal"
	"jumanji/internal/obs/statusz"
	"jumanji/internal/sweep"
)

// dispatch is the scheduling loop: whenever capacity frees up it pops the
// fair-share queue and hands the experiment to a worker goroutine. One
// goroutine; exits when draining.
func (s *Server) dispatch() {
	defer s.dispatchWG.Done()
	s.mu.Lock()
	for {
		for !s.draining && s.running < s.cfg.MaxInFlight {
			e := s.queue.Pop()
			if e == nil {
				break
			}
			s.running++
			s.setStateLocked(e, StateAdmitted)
			s.runWG.Add(1)
			go s.runExperiment(e)
		}
		if s.draining {
			break
		}
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// setStateLocked transitions an experiment and tells its SSE subscribers.
// Caller holds s.mu (the hub has its own lock, so broadcasting under s.mu
// is fine and keeps state frames ordered).
func (s *Server) setStateLocked(e *Experiment, state string) {
	e.State = state
	e.hub.Broadcast(statusz.SSEEvent("state", map[string]any{
		"id": e.ID, "state": state, "attempt": e.Attempts,
	}))
}

// runExperiment drives one experiment through its attempts: run, classify
// the outcome, back off and retry on degradation, and retire it into a
// terminal state with a durable result. Panics never escape — a worker
// that dies would strand its queue slot.
func (s *Server) runExperiment(e *Experiment) {
	defer s.runWG.Done()
	rn, ok := s.cfg.Registry.Lookup(e.Spec.Type)
	if !ok { // unreachable: admission validated the type
		s.retire(e, StateFailed, nil, nil, fmt.Sprintf("experiment type %q vanished from the registry", e.Spec.Type))
		return
	}
	for attempt := 0; ; attempt++ {
		s.mu.Lock()
		e.Attempts = attempt + 1
		s.setStateLocked(e, StateRunning)
		s.mu.Unlock()
		stopProg := s.streamProgress(e)
		out, rerr, err, retryable := s.runOnce(rn, e, attempt)
		stopProg()

		switch {
		case err == nil && rerr == nil:
			s.retire(e, StateDone, out, nil, "")
			return
		case rerr != nil && rerr.Report.Interrupted:
			// The drain stopped it mid-run. Completed cells are journalled;
			// a restart with -resume replays them and runs the rest.
			s.logf("serve: %s interrupted by drain (%d cells journalled this run)", e.ID, rerr.Report.Resumed)
			s.retire(e, StateInterrupted, nil, nil, "interrupted by shutdown; resume to finish")
			return
		case (rerr != nil || retryable) && attempt < s.cfg.Retries:
			d := backoffDelay(s.cfg.BackoffBase, s.cfg.BackoffCap, e.Seq, attempt)
			msg := errString(rerr, err)
			s.mu.Lock()
			s.counter("serve.retried")
			e.hub.Broadcast(statusz.SSEEvent("retry", map[string]any{
				"id": e.ID, "attempt": e.Attempts, "backoff_ms": d.Milliseconds(), "error": msg,
			}))
			s.mu.Unlock()
			s.logf("serve: %s attempt %d degraded (%s); retrying in %s", e.ID, e.Attempts, msg, d)
			select {
			case <-time.After(d):
			case <-s.drainCh:
				s.retire(e, StateInterrupted, nil, nil, "interrupted by shutdown during retry backoff")
				return
			}
		case rerr != nil:
			// Retries exhausted: a degraded result with the failed cells'
			// coordinates and repro commands is still a durable answer.
			s.retire(e, StateDegraded, out, failedDocs(rn, e.Spec, rerr), rerr.Error())
			return
		case retryable:
			s.retire(e, StateFailed, nil, nil, errString(nil, err))
			return
		default:
			s.retire(e, StateFailed, nil, nil, errString(nil, err))
			return
		}
	}
}

// runOnce executes one attempt under a fresh engine wired to the
// experiment's journal. An existing journal for this fingerprint — from a
// crashed daemon or an earlier attempt — is resumed, so retries and
// recoveries recompute only never-journalled cells. Outcomes:
// (out, nil, nil, _) success; (_, rerr, _, _) degraded sweep;
// (_, nil, err, true) worker-tier panic, retryable; (_, nil, err, false)
// non-retryable error.
func (s *Server) runOnce(rn *Runner, e *Experiment, attempt int) (out []byte, rerr *sweep.RunError, err error, retryable bool) {
	jp := s.store.JournalPath(e.FPH)
	var resume *journal.Log
	if _, statErr := os.Stat(jp); statErr == nil {
		l, lerr := journal.Load(jp)
		if lerr == nil && l.Check(e.FP) == nil {
			resume = l
		} else if lerr != nil {
			s.logf("serve: %s journal unusable (%v); starting fresh", e.ID, lerr)
		} else {
			s.logf("serve: %s journal has a foreign fingerprint; starting fresh", e.ID)
		}
	}
	var w *journal.Writer
	if resume != nil {
		w, err = journal.OpenAppend(jp, resume)
	} else {
		w, err = journal.Create(jp, e.FP)
	}
	if err != nil {
		return nil, nil, err, false
	}

	eng := &sweep.Engine{
		Journal: w, Resume: resume, KeepGoing: true, Stop: s.stop,
		Soft: s.cfg.SoftTimeout, Hard: s.cfg.HardTimeout,
		Chaos: s.cfg.Chaos, Log: s.cfg.Log,
		Repro: func(label string, cell int) string {
			if rn.Repro == nil {
				return ""
			}
			return rn.Repro(e.Spec, label, cell)
		},
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				// A panic outside the sweep's isolation is a service-tier
				// fault (e.g. chaos serve-panic-cell): isolate and retry.
				err, retryable = fmt.Errorf("worker panic: %v", r), true
			}
		}()
		if s.cfg.Chaos.Fires(chaos.ServePanicCell, int64(e.Seq), int64(attempt)) {
			panic(fmt.Sprintf("chaos: injected panic in serve worker (%s attempt %d)", e.ID, attempt+1))
		}
		out, err = rn.Run(context.Background(), e.Spec, Env{
			Engine: eng, Chaos: s.cfg.Chaos, Progress: e.progress,
		})
	}()
	if cerr := w.Close(); cerr != nil && err == nil {
		// A journal that failed to persist is a durability gap, not a
		// wrong answer: keep the result but say so.
		s.logf("serve: %s journal: %v", e.ID, cerr)
	}
	if errors.As(err, &rerr) {
		err = nil
	}
	if rep := eng.Report(); rep.Resumed > 0 {
		s.mu.Lock()
		s.metrics.Counter("serve.resumed_cells").Add(uint64(rep.Resumed))
		s.mu.Unlock()
	}
	return out, rerr, err, retryable
}

// retire moves an experiment to its final state, durably persisting the
// result for terminal states (interrupted ones deliberately leave no
// result, so recovery re-runs them from the journal).
func (s *Server) retire(e *Experiment, state string, out []byte, failed []FailedCellDoc, errMsg string) {
	if terminal(state) {
		doc := &ResultDoc{
			ID: e.ID, Fingerprint: e.FP, Type: e.Spec.Type, State: state,
			Attempts: e.Attempts, Output: string(out), Error: errMsg, Failed: failed,
		}
		if perr := s.store.SaveResult(e.FPH, doc); perr != nil {
			// The run's answer exists in memory but not on disk; serve it
			// for this process's lifetime and let recovery re-run.
			s.logf("serve: %s result not persisted: %v", e.ID, perr)
			if errMsg == "" {
				errMsg = fmt.Sprintf("result not persisted: %v", perr)
			}
		}
	}
	s.mu.Lock()
	e.State = state
	e.Output = out
	e.Err = errMsg
	e.Failed = failed
	s.queue.Finished(e.Spec.ClientKey())
	s.running--
	s.counter("serve." + state)
	s.cond.Broadcast()
	s.mu.Unlock()
	close(e.done)
}

// streamProgress forwards live cell progress to the experiment's SSE
// subscribers while an attempt runs. Returns its stop function.
func (s *Server) streamProgress(e *Experiment) func() {
	stop := make(chan struct{})
	go func() {
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		lastDone := -1
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				snap := e.progress.Snapshot()
				if snap.Total == 0 || snap.Done == lastDone {
					continue
				}
				lastDone = snap.Done
				e.hub.Broadcast(statusz.SSEEvent("progress", map[string]any{
					"id": e.ID, "done": snap.Done, "total": snap.Total,
				}))
			}
		}
	}()
	return func() { close(stop) }
}

// failedDocs renders a degraded report's failed cells with their repro
// commands.
func failedDocs(rn *Runner, sp *Spec, rerr *sweep.RunError) []FailedCellDoc {
	out := make([]FailedCellDoc, 0, len(rerr.Report.Failed))
	for _, f := range rerr.Report.Failed {
		doc := FailedCellDoc{
			Label: f.Label, Cell: f.Cell, Seed: f.Seed,
			Panic: fmt.Sprint(f.Value), Repro: f.Repro,
		}
		if doc.Repro == "" && rn.Repro != nil {
			doc.Repro = rn.Repro(sp, f.Label, f.Cell)
		}
		out = append(out, doc)
	}
	return out
}

// errString renders whichever of the attempt's failure modes is set.
func errString(rerr *sweep.RunError, err error) string {
	if rerr != nil {
		return rerr.Error()
	}
	if err != nil {
		return err.Error()
	}
	return ""
}

// backoffDelay is capped exponential backoff with deterministic jitter:
// the delay depends only on (base, cap, experiment seq, attempt), so a
// replayed run schedules identically. Jitter decorrelates experiments
// retrying in lockstep after a shared fault.
func backoffDelay(base, ceil time.Duration, seq uint64, attempt int) time.Duration {
	d := base << uint(attempt)
	if d <= 0 || d > ceil {
		d = ceil
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d", seq, attempt)
	if half := uint64(base / 2); half > 0 {
		d += time.Duration(h.Sum64() % half)
	}
	return d
}
