package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"jumanji/internal/chaos"
	"jumanji/internal/sweep"
)

// tinySpec is a compare experiment small enough for unit tests (~tens of
// ms): one design, two cells (jumanji + the implicit Static baseline).
func tinySpec(seed int64) *Spec {
	return &Spec{Type: "compare", Design: "jumanji", Epochs: 6, Warmup: 2, Seed: seed}
}

// startServer builds and starts a Server on an ephemeral port; mutate
// tweaks the config first. Cleanup closes it and waits for its goroutines:
// Close does not, and a worker still retiring an experiment would write into
// StateDir while the test's TempDir is being removed.
func startServer(t *testing.T, mutate func(*Config)) (*Server, string) {
	t.Helper()
	cfg := Config{Addr: "127.0.0.1:0", StateDir: t.TempDir()}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		s.dispatchWG.Wait() // no worker starts after the dispatcher exits
		s.runWG.Wait()
	})
	return s, "http://" + s.Addr()
}

func submit(t *testing.T, base string, sp *Spec) (submitBody, *http.Response) {
	t.Helper()
	b, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/experiments", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body submitBody
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &body); err != nil {
			t.Fatalf("decoding %q: %v", raw, err)
		}
	} else {
		body.State = strings.TrimSpace(string(raw))
	}
	return body, resp
}

// waitTerminal polls one experiment until it leaves the live states.
func waitTerminal(t *testing.T, base, id string) expBody {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/experiments/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var body expBody
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if terminal(body.State) || body.State == StateInterrupted {
			return body
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("experiment did not finish in 30s")
	return expBody{}
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func TestSubmitRunResult(t *testing.T) {
	_, base := startServer(t, nil)
	ack, resp := submit(t, base, tinySpec(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d (%s)", resp.StatusCode, ack.State)
	}
	if ack.ID == "" || ack.Deduped {
		t.Fatalf("ack: %+v", ack)
	}
	final := waitTerminal(t, base, ack.ID)
	if final.State != StateDone {
		t.Fatalf("final state %q (err %q)", final.State, final.Error)
	}
	code, out := getBody(t, base+"/experiments/"+ack.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: status %d: %s", code, out)
	}
	if !strings.Contains(out, "design") || !strings.Contains(out, "Jumanji") {
		t.Fatalf("result output missing table:\n%s", out)
	}
	// The result is durable: the store has it keyed by fingerprint.
	code, metrics := getBody(t, base+"/metrics")
	if code != http.StatusOK || !strings.Contains(metrics, "serve_admitted_total 1") ||
		!strings.Contains(metrics, "serve_done_total 1") {
		t.Fatalf("metrics:\n%s", metrics)
	}
}

func TestDedupeServedFromCache(t *testing.T) {
	s, base := startServer(t, nil)
	ack1, _ := submit(t, base, tinySpec(2))
	waitTerminal(t, base, ack1.ID)
	_, out1 := getBody(t, base+"/experiments/"+ack1.ID+"/result")

	// Identical resubmission (different client): same experiment, no
	// second run — the journal file's mtime can't even change because no
	// worker touches it.
	sp := tinySpec(2)
	sp.Client = "someone-else"
	ack2, resp := submit(t, base, sp)
	if resp.StatusCode != http.StatusOK || !ack2.Deduped || ack2.ID != ack1.ID {
		t.Fatalf("resubmit: status %d ack %+v, want deduped hit on %s", resp.StatusCode, ack2, ack1.ID)
	}
	_, out2 := getBody(t, base+"/experiments/"+ack2.ID+"/result")
	if out1 != out2 {
		t.Fatal("cached result differs")
	}
	s.mu.Lock()
	deduped := s.metrics.Counter("serve.deduped").Value()
	admitted := s.metrics.Counter("serve.admitted").Value()
	s.mu.Unlock()
	if deduped != 1 || admitted != 1 {
		t.Fatalf("counters: deduped=%d admitted=%d, want 1/1", deduped, admitted)
	}
}

func TestMalformedSubmissions(t *testing.T) {
	_, base := startServer(t, nil)
	for _, body := range []string{
		`{"garbage`,
		`{"type":"warp-drive"}`,
		`{"type":"figure","fig":3}`,
		`{"type":"compare","load":"sideways"}`,
	} {
		resp, err := http.Post(base+"/experiments", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	// The daemon shrugged all of them off.
	if code, _ := getBody(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after malformed submissions: %d", code)
	}
}

// blockingRegistry registers a "block" type whose runs park until
// release is closed (or the engine's stopper trips).
func blockingRegistry(t *testing.T) (*Registry, chan struct{}) {
	t.Helper()
	release := make(chan struct{})
	reg := NewRegistry()
	err := reg.Register(&Runner{
		Name:     "block",
		Validate: func(sp *Spec) error { return nil },
		Run: func(ctx context.Context, sp *Spec, env Env) ([]byte, error) {
			for {
				select {
				case <-release:
					return []byte("released\n"), nil
				case <-time.After(5 * time.Millisecond):
					if env.Engine.Stop.Stopped() {
						return nil, &sweep.RunError{Report: sweep.Report{Interrupted: true}}
					}
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg, release
}

func TestOverloadRejectsWithRetryAfter(t *testing.T) {
	reg, release := blockingRegistry(t)
	defer close(release)
	_, base := startServer(t, func(c *Config) {
		c.Registry = reg
		c.MaxInFlight = 1
		c.MaxQueue = 1
	})
	// First fills the worker, second fills the queue, third must bounce.
	submit(t, base, &Spec{Type: "block", Seed: 1})
	submit(t, base, &Spec{Type: "block", Seed: 2})
	b, _ := json.Marshal(&Spec{Type: "block", Seed: 3})
	resp, err := http.Post(base+"/experiments", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

func TestPerClientCap429(t *testing.T) {
	reg, release := blockingRegistry(t)
	defer close(release)
	_, base := startServer(t, func(c *Config) {
		c.Registry = reg
		c.MaxInFlight = 1
		c.MaxPerClient = 2
	})
	submit(t, base, &Spec{Type: "block", Client: "greedy", Seed: 1})
	submit(t, base, &Spec{Type: "block", Client: "greedy", Seed: 2})
	b, _ := json.Marshal(&Spec{Type: "block", Client: "greedy", Seed: 3})
	resp, err := http.Post(base+"/experiments", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated client: status %d, want 429", resp.StatusCode)
	}
	// Another client still gets in.
	_, resp2 := submit(t, base, &Spec{Type: "block", Client: "patient", Seed: 4})
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("other client: status %d, want 202", resp2.StatusCode)
	}
}

// flakyRegistry registers a "flaky" type that returns a *sweep.RunError on
// its first failN attempts, then succeeds.
func flakyRegistry(t *testing.T, failN int32) *Registry {
	t.Helper()
	var calls atomic.Int32
	reg := NewRegistry()
	err := reg.Register(&Runner{
		Name:     "flaky",
		Validate: func(sp *Spec) error { return nil },
		Run: func(ctx context.Context, sp *Spec, env Env) ([]byte, error) {
			if calls.Add(1) <= failN {
				return nil, &sweep.RunError{Report: sweep.Report{Failed: []sweep.FailedCell{
					{Label: "flaky", Cell: 0, Seed: sp.Seed, Value: "transient"},
				}}}
			}
			return []byte("eventually\n"), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestRetryBackoffThenSuccess(t *testing.T) {
	_, base := startServer(t, func(c *Config) {
		c.Registry = flakyRegistry(t, 2)
		c.Retries = 2
		c.BackoffBase = time.Millisecond
		c.BackoffCap = 5 * time.Millisecond
	})
	ack, _ := submit(t, base, &Spec{Type: "flaky", Seed: 1})
	final := waitTerminal(t, base, ack.ID)
	if final.State != StateDone || final.Attempts != 3 {
		t.Fatalf("final: state %q attempts %d, want done after 3 attempts", final.State, final.Attempts)
	}
	code, metrics := getBody(t, base+"/metrics")
	if code != http.StatusOK || !strings.Contains(metrics, "serve_retried_total 2") {
		t.Fatalf("metrics missing retries:\n%s", metrics)
	}
}

func TestRetriesExhaustedReportsDegraded(t *testing.T) {
	_, base := startServer(t, func(c *Config) {
		c.Registry = flakyRegistry(t, 100) // never succeeds
		c.Retries = 1
		c.BackoffBase = time.Millisecond
		c.BackoffCap = 2 * time.Millisecond
	})
	ack, _ := submit(t, base, &Spec{Type: "flaky", Seed: 7})
	final := waitTerminal(t, base, ack.ID)
	if final.State != StateDegraded || final.Attempts != 2 {
		t.Fatalf("final: state %q attempts %d, want degraded after 2", final.State, final.Attempts)
	}
	if len(final.Failed) != 1 || final.Failed[0].Label != "flaky" {
		t.Fatalf("failed cells: %+v", final.Failed)
	}
}

func TestBackoffDelayDeterministicAndCapped(t *testing.T) {
	base, ceil := 100*time.Millisecond, 2*time.Second
	if a, b := backoffDelay(base, ceil, 7, 1), backoffDelay(base, ceil, 7, 1); a != b {
		t.Fatalf("nondeterministic: %s vs %s", a, b)
	}
	if backoffDelay(base, ceil, 7, 30) > ceil+base/2 {
		t.Fatal("cap not applied")
	}
	if backoffDelay(base, ceil, 1, 0) < base {
		t.Fatal("first delay below base")
	}
	if backoffDelay(base, ceil, 1, 1) == backoffDelay(base, ceil, 2, 1) {
		t.Fatal("jitter does not decorrelate experiments")
	}
}

// TestDrainResumeByteIdentical is the in-process kill-and-recover proof:
// interrupt an experiment mid-run via Drain, restart over the same state
// directory with Resume, and require the finished journal and result to be
// byte-identical to an uninterrupted run of the same spec.
func TestDrainResumeByteIdentical(t *testing.T) {
	spec := &Spec{Type: "compare", Design: "all", Epochs: 8, Warmup: 2, Seed: 3}

	// Reference: uninterrupted run in its own state dir.
	refDir := t.TempDir()
	refSrv, refBase := startServer(t, func(c *Config) { c.StateDir = refDir })
	refAck, _ := submit(t, refBase, spec)
	if final := waitTerminal(t, refBase, refAck.ID); final.State != StateDone {
		t.Fatalf("reference run: %q (%s)", final.State, final.Error)
	}
	fph := FPHash(mustNormalize(t, spec).Fingerprint())
	refJournal := readFile(t, filepath.Join(refDir, "journals", fph+".journal"))
	refResult := readFile(t, filepath.Join(refDir, "results", fph+".json"))
	if err := refSrv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: drain as soon as the journal shows progress.
	dir := t.TempDir()
	s1, base1 := startServer(t, func(c *Config) { c.StateDir = dir })
	ack, _ := submit(t, base1, spec)
	jp := filepath.Join(dir, "journals", fph+".journal")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(jp); err == nil && bytes.Count(b, []byte("\n")) >= 2 {
			break // header + at least one cell journalled mid-run
		}
		if time.Now().After(deadline) {
			t.Fatal("journal never grew")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	_ = base1 // server is down now; only its state directory lives on

	// Recovery: new server, same state dir, -resume semantics.
	s2, base2 := startServer(t, func(c *Config) { c.StateDir = dir; c.Resume = true })
	final := waitTerminal(t, base2, ack.ID)
	if final.State != StateDone {
		t.Fatalf("recovered run: %q (%s)", final.State, final.Error)
	}
	gotJournal := readFile(t, jp)
	gotResult := readFile(t, filepath.Join(dir, "results", fph+".json"))
	if !bytes.Equal(gotJournal, refJournal) {
		t.Fatalf("recovered journal differs from uninterrupted run (%d vs %d bytes)",
			len(gotJournal), len(refJournal))
	}
	if !bytes.Equal(gotResult, refResult) {
		t.Fatalf("recovered result differs:\n--- recovered\n%s\n--- reference\n%s", gotResult, refResult)
	}
	s2.mu.Lock()
	recovered := s2.metrics.Counter("serve.recovered").Value()
	resumed := s2.metrics.Counter("serve.resumed_cells").Value()
	s2.mu.Unlock()
	if recovered != 1 || resumed == 0 {
		t.Fatalf("recovery counters: recovered=%d resumed_cells=%d", recovered, resumed)
	}
}

func mustNormalize(t *testing.T, sp *Spec) *Spec {
	t.Helper()
	cp := *sp
	rn, ok := Builtins().Lookup(cp.Type)
	if !ok {
		t.Fatalf("no runner %q", cp.Type)
	}
	if err := rn.Validate(&cp); err != nil {
		t.Fatal(err)
	}
	return &cp
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestStreamLifecycle(t *testing.T) {
	reg, release := blockingRegistry(t)
	s, base := startServer(t, func(c *Config) { c.Registry = reg })
	ack, _ := submit(t, base, &Spec{Type: "block", Seed: 4})
	resp, err := http.Get(base + "/experiments/" + ack.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	r := bufio.NewReader(resp.Body)
	if line, err := r.ReadString('\n'); err != nil || line != "event: hello\n" {
		t.Fatalf("first stream line %q (%v), want the hello event", line, err)
	}
	// The handler subscribes before writing hello, so a client that has read
	// hello misses no later frame.
	s.mu.Lock()
	hub := &s.exps[ack.ID].hub
	s.mu.Unlock()
	if n := hub.Subscribers(); n != 1 {
		t.Fatalf("subscribers once hello is read = %d, want 1", n)
	}
	close(release)
	events := []string{"hello"}
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			break // server closes the stream after the terminal frame
		}
		if strings.HasPrefix(line, "event: ") {
			events = append(events, strings.TrimSpace(strings.TrimPrefix(line, "event: ")))
		}
	}
	if len(events) == 0 || events[0] != "hello" {
		t.Fatalf("events: %v, want hello first", events)
	}
	last := events[len(events)-1]
	if last != "state" {
		t.Fatalf("events: %v, want a final state frame", events)
	}
	final := waitTerminal(t, base, ack.ID)
	if final.State != StateDone {
		t.Fatalf("final: %q", final.State)
	}
}

func TestChaosSubmitMalformed(t *testing.T) {
	inj, err := chaos.Parse("submit-malformed@1", 1)
	if err != nil {
		t.Fatal(err)
	}
	_, base := startServer(t, func(c *Config) { c.Chaos = inj })
	_, resp := submit(t, base, tinySpec(5))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("chaos-corrupted submission: status %d, want 400", resp.StatusCode)
	}
	if code, _ := getBody(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("daemon unhealthy after chaos submission: %d", code)
	}
}

func TestChaosDuplicateBurst(t *testing.T) {
	inj, err := chaos.Parse("submit-duplicate-burst@1", 1)
	if err != nil {
		t.Fatal(err)
	}
	s, base := startServer(t, func(c *Config) { c.Chaos = inj })
	ack, resp := submit(t, base, tinySpec(6))
	if resp.StatusCode != http.StatusAccepted || ack.Deduped {
		t.Fatalf("burst origin: status %d ack %+v", resp.StatusCode, ack)
	}
	s.mu.Lock()
	deduped := s.metrics.Counter("serve.deduped").Value()
	admitted := s.metrics.Counter("serve.admitted").Value()
	s.mu.Unlock()
	if admitted != 1 || deduped != 2 {
		t.Fatalf("burst counters: admitted=%d deduped=%d, want 1/2", admitted, deduped)
	}
	if final := waitTerminal(t, base, ack.ID); final.State != StateDone {
		t.Fatalf("burst experiment: %q", final.State)
	}
}

func TestChaosServePanicCellRetriesThenSucceeds(t *testing.T) {
	// serve-panic-cell keyed by (experiment seq, attempt): at rate 0.5 with
	// this seed the first attempt fires and a later one doesn't, so the
	// experiment must come back as done with retries recorded — or, if the
	// hash happens to spare attempt 0, complete first try. Either way the
	// daemon survives. Pin nothing; assert liveness + terminal done.
	inj, err := chaos.Parse("serve-panic-cell@0.9", 12)
	if err != nil {
		t.Fatal(err)
	}
	_, base := startServer(t, func(c *Config) {
		c.Chaos = inj
		c.Retries = 8
		c.BackoffBase = time.Millisecond
		c.BackoffCap = 2 * time.Millisecond
	})
	ack, _ := submit(t, base, tinySpec(7))
	final := waitTerminal(t, base, ack.ID)
	if final.State != StateDone && final.State != StateFailed {
		t.Fatalf("final: %q", final.State)
	}
	if final.State == StateFailed {
		// All 9 attempts fired: astronomically unlikely at rate 0.9^9 but
		// deterministic per seed; the invariant that matters is liveness.
		t.Logf("all attempts panicked (deterministic for this seed); daemon still alive")
	}
	if code, _ := getBody(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("daemon unhealthy after worker panics: %d", code)
	}
}

func TestChaosClientDisconnectMidStream(t *testing.T) {
	inj, err := chaos.Parse("client-disconnect-mid-stream@1", 1)
	if err != nil {
		t.Fatal(err)
	}
	_, base := startServer(t, func(c *Config) { c.Chaos = inj })
	ack, _ := submit(t, base, tinySpec(8))
	resp, err := http.Get(base + "/experiments/" + ack.ID + "/stream")
	if err == nil {
		// The stream must die abruptly after at most one post-hello frame.
		_, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr == nil {
			t.Fatal("chaos stream terminated cleanly; expected an abort")
		}
	}
	// The severed subscriber must not wedge the experiment or the daemon.
	if final := waitTerminal(t, base, ack.ID); final.State != StateDone {
		t.Fatalf("final after severed stream: %q", final.State)
	}
	if code, _ := getBody(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("daemon unhealthy after severed stream: %d", code)
	}
}

func TestDrainRejectsNewSubmissions(t *testing.T) {
	reg, release := blockingRegistry(t)
	s, base := startServer(t, func(c *Config) { c.Registry = reg })
	ack, _ := submit(t, base, &Spec{Type: "block", Seed: 1})
	// Drain only once a worker has picked the experiment up: drained while
	// still queued, it never runs and so is never interrupted.
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		state := s.exps[ack.ID].State
		s.mu.Unlock()
		if state == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("blocked experiment still %q after 30s, want running", state)
		}
	}
	done := make(chan error, 1)
	go func() { done <- s.Drain(context.Background()) }()
	// Drain trips the stopper; the blocking run notices within ~5ms and
	// reports interrupted. While that happens, new submissions must bounce
	// with 503 — but the listener may already be down, which is equally
	// acceptable refusal.
	time.Sleep(20 * time.Millisecond)
	b, _ := json.Marshal(tinySpec(9))
	if resp, err := http.Post(base+"/experiments", "application/json", bytes.NewReader(b)); err == nil {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("submission during drain: status %d, want 503", resp.StatusCode)
		}
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The interrupted experiment left no result file, so a resume re-runs
	// it; its in-memory state says interrupted.
	s.mu.Lock()
	e := s.exps[ack.ID]
	state := e.State
	s.mu.Unlock()
	if state != StateInterrupted {
		t.Fatalf("blocked experiment after drain: %q, want interrupted", state)
	}
	if _, err := os.Stat(filepath.Join(s.cfg.StateDir, "queue.snapshot")); err != nil {
		t.Fatalf("queue snapshot not written: %v", err)
	}
}

// TestRecoveryServesCompletedFromCache: a restart must load terminal
// results as the dedupe cache rather than re-running them.
func TestRecoveryServesCompletedFromCache(t *testing.T) {
	dir := t.TempDir()
	s1, base1 := startServer(t, func(c *Config) { c.StateDir = dir })
	ack, _ := submit(t, base1, tinySpec(10))
	waitTerminal(t, base1, ack.ID)
	_, out1 := getBody(t, base1+"/experiments/"+ack.ID+"/result")
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	_, base2 := startServer(t, func(c *Config) { c.StateDir = dir; c.Resume = true })
	// Resubmitting the identical spec dedupes onto the recovered record.
	ack2, resp := submit(t, base2, tinySpec(10))
	if resp.StatusCode != http.StatusOK || !ack2.Deduped || ack2.ID != ack.ID {
		t.Fatalf("recovered dedupe: status %d ack %+v", resp.StatusCode, ack2)
	}
	code, out2 := getBody(t, base2+"/experiments/"+ack.ID+"/result")
	if code != http.StatusOK || out1 != out2 {
		t.Fatalf("recovered result differs (status %d)", code)
	}
}

func TestStatuszAndList(t *testing.T) {
	_, base := startServer(t, nil)
	ack, _ := submit(t, base, tinySpec(11))
	waitTerminal(t, base, ack.ID)
	code, body := getBody(t, base+"/statusz")
	if code != http.StatusOK || !strings.Contains(body, `"compare"`) {
		t.Fatalf("statusz:\n%s", body)
	}
	code, body = getBody(t, base+"/experiments")
	if code != http.StatusOK || !strings.Contains(body, ack.ID) {
		t.Fatalf("list:\n%s", body)
	}
	if code, _ := getBody(t, base+"/experiments/exp-999999"); code != http.StatusNotFound {
		t.Fatalf("unknown id: %d, want 404", code)
	}
}
