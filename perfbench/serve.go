package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jumanji/internal/serve"
)

// serveSize sizes the serve workload: fresh specs per client (each client
// also sends as many repeats) and the fresh specs' run length.
type serveSize struct {
	perClient      int
	epochs, warmup int
}

func serveSizeFor(smoke bool) serveSize {
	if smoke {
		return serveSize{perClient: 3, epochs: 4, warmup: 1}
	}
	return serveSize{perClient: 55, epochs: 10, warmup: 3}
}

// clientNames are the closed loop's clients, the EXPERIMENTS.md
// walkthrough's alice and bob. Each repeat is sent under the other name.
var clientNames = [2]string{"alice", "bob"}

// planStep is one request of a client's closed loop: a fresh spec, or a
// repeat of the client's own fresh spec idx, sent under another client's
// name so the daemon's cross-client dedupe answers it.
type planStep struct {
	fresh bool
	idx   int
}

// clientPlan is a client's request sequence: fresh specs 0..n-1, each
// repeat following the fresh spec after its original, so a repeat is only
// sent once its original has finished — a closed-loop client waits for
// every result before sending on. The traffic is synthetic, and so is its
// shape: one repeat per fresh spec is this plan's choice, which fixes
// serve.dedupe_frac at 0.5 and the mix of fresh and cached work in the
// pass's wall time.
func clientPlan(n int) []planStep {
	var out []planStep
	for k := 0; k < n; k++ {
		out = append(out, planStep{fresh: true, idx: k})
		if k > 0 {
			out = append(out, planStep{idx: k - 1})
		}
	}
	if n > 0 {
		out = append(out, planStep{idx: n - 1})
	}
	return out
}

// freshSpec is client c's fresh spec k: a seeded compare of every design.
// All fresh specs share one workload configuration and run length, so they
// cost about the same; only the seed differs.
func freshSpec(seed int64, c, k int, size serveSize) serve.Spec {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range []int64{seed, int64(c), int64(k)} {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return serve.Spec{
		Type: "compare", Client: clientNames[c], Design: "all", LC: "xapian", Load: "high",
		Epochs: size.epochs, Warmup: size.warmup,
		Seed: int64(h.Sum64()>>2) + 1, // positive: zero would mean "default seed"
	}
}

// servePass is one daemon with a fresh state directory.
type servePass struct {
	size    serveSize
	seed    int64
	workers int
	srv     *serve.Server
	dir     string
	base    string
	hc      *http.Client

	// What the clients saw, to check the daemon's /metrics against.
	seen struct{ admitted, deduped, rejected, retries atomic.Int64 }
}

var serveDirs atomic.Int64

// setupServe starts the daemon on a free loopback port with a fresh state
// directory and waits until /healthz answers.
func setupServe(e env, _ *tracer) (pass, time.Duration, error) {
	dir := filepath.Join(e.dir, "serve-state", fmt.Sprintf("%d-%d", os.Getpid(), serveDirs.Add(1)))
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	srv, err := serve.New(serve.Config{
		Addr: "127.0.0.1:0", StateDir: dir, MaxInFlight: min(e.workers, len(clientNames)),
	})
	if err == nil {
		err = srv.Start()
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	p := &servePass{
		size: serveSizeFor(e.smoke), seed: e.seed, workers: e.workers,
		srv: srv, dir: dir, base: "http://" + srv.Addr(),
		hc: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: 2 * len(clientNames), DisableCompression: true},
		},
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		status := 0
		resp, err := p.hc.Get(p.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			status = resp.StatusCode
		}
		if status == http.StatusOK {
			return p, 0, nil
		}
		if time.Now().After(deadline) {
			p.close()
			return nil, 0, fmt.Errorf("serve: /healthz did not answer (status %d, %v)", status, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close drains and closes the daemon and removes its state directory.
func (p *servePass) close() error {
	p.hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := p.srv.Drain(ctx)
	if cerr := p.srv.Close(); err == nil && cerr != nil && !errors.Is(cerr, http.ErrServerClosed) {
		err = cerr
	}
	if rerr := os.RemoveAll(p.dir); err == nil {
		err = rerr
	}
	return err
}

// run drives the closed loop. Each client sends its plan one request at
// a time; with fewer workers than clients, one goroutine takes the
// clients' steps in turn. Results are ordered client by client.
func (p *servePass) run(tr *tracer, root int) []opResult {
	plan := clientPlan(p.size.perClient)
	out := make([]opResult, len(clientNames)*len(plan))
	loops := min(p.workers, len(clientNames))
	var wg sync.WaitGroup
	for g := 0; g < loops; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []*client
			var names []string
			for c := g; c < len(clientNames); c += loops {
				mine = append(mine, &client{id: c, bodies: map[int][]byte{}})
				names = append(names, clientNames[c])
			}
			loop := tr.begin("client", strings.Join(names, "+"), root, noSpan)
			defer tr.end(loop)
			for j, st := range plan {
				for _, cl := range mine {
					op := cl.id*len(plan) + j
					out[op] = protect(func() opResult { return p.step(tr, loop, op, cl, st) })
				}
			}
		}()
	}
	wg.Wait()
	if tr != nil {
		if err := p.countServerMetrics(tr); err != nil {
			tr.fail(err)
		}
	}
	return out
}

// client is one closed-loop client's state.
type client struct {
	id     int
	bodies map[int][]byte // result bytes of this client's finished fresh specs
}

// step sends one planned request and checks a repeat against its
// original's bytes.
func (p *servePass) step(tr *tracer, parent, op int, cl *client, st planStep) opResult {
	sp := freshSpec(p.seed, cl.id, st.idx, p.size)
	if !st.fresh {
		sp.Client = clientNames[(cl.id+1)%len(clientNames)]
	}
	r, body := p.request(tr, parent, op, sp, st.fresh)
	if r.err != nil {
		return r
	}
	if st.fresh {
		cl.bodies[st.idx] = body
	} else if orig, ok := cl.bodies[st.idx]; !ok {
		r.err = fmt.Errorf("repeat of spec %d before its original finished", st.idx)
	} else if !bytes.Equal(body, orig) {
		r.err = fmt.Errorf("repeat of spec %d returned other bytes than the original", st.idx)
	}
	return r
}

// request sends one spec and follows it to its result: POST, the SSE
// stream to the terminal frame, then GET /result. The phase boundaries
// become spans when traced.
func (p *servePass) request(tr *tracer, parent, op int, sp serve.Spec, fresh bool) (opResult, []byte) {
	class := "cached"
	if fresh {
		class = "fresh"
	}
	req := tr.begin("request", class, parent, op)
	defer tr.end(req)

	t0 := time.Now()
	ack, status, err := p.submit(sp)
	t1 := time.Now()
	if err != nil {
		return opResult{err: err}, nil
	}
	switch {
	case fresh && (status != http.StatusAccepted || ack.Deduped):
		return opResult{err: fmt.Errorf("fresh spec answered %d deduped=%v", status, ack.Deduped)}, nil
	case !fresh && (status != http.StatusOK || !ack.Deduped || ack.State != serve.StateDone):
		return opResult{err: fmt.Errorf("repeat answered %d deduped=%v state=%s, want a finished dedupe hit",
			status, ack.Deduped, ack.State)}, nil
	}

	running, term, state, err := p.follow(ack.ID)
	if err != nil {
		return opResult{err: err}, nil
	}
	if state != serve.StateDone {
		return opResult{err: fmt.Errorf("experiment %s ended %s", ack.ID, state)}, nil
	}
	body, err := p.result(ack.ID)
	t3 := time.Now()
	if err != nil {
		return opResult{err: err}, nil
	}

	if fresh {
		tr.record("serve.admit", req, op, t0, t1)
		if running.IsZero() {
			// The running frame raced the stream's attach: the queue and
			// run phases cannot be told apart for this request.
			tr.record("serve.wait", req, op, t1, term)
			tr.count("serve.unsplit", 1)
		} else {
			tr.record("serve.queue", req, op, t1, running)
			tr.record("serve.run", req, op, running, term)
		}
	} else {
		tr.record("serve.dedupe", req, op, t0, t1)
		tr.record("serve.stream", req, op, t1, term)
	}
	tr.record("serve.fetch", req, op, term, t3)

	sum := sha256.Sum256(body)
	return opResult{digest: hex.EncodeToString(sum[:8]), latency: t3.Sub(t0), cached: !fresh}, body
}

// submitAck is the daemon's answer to a submission.
type submitAck struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Deduped bool   `json:"deduped"`
}

func (p *servePass) submit(sp serve.Spec) (submitAck, int, error) {
	var ack submitAck
	b, err := json.Marshal(sp)
	if err != nil {
		return ack, 0, err
	}
	resp, err := p.hc.Post(p.base+"/experiments", "application/json", bytes.NewReader(b))
	if err != nil {
		return ack, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return ack, resp.StatusCode, err
	}
	switch resp.StatusCode {
	case http.StatusOK, http.StatusAccepted:
	case http.StatusBadRequest, http.StatusTooManyRequests:
		p.seen.rejected.Add(1)
		fallthrough
	default:
		return ack, resp.StatusCode, fmt.Errorf("submit answered %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		return ack, resp.StatusCode, fmt.Errorf("submit answer: %w", err)
	}
	if ack.Deduped {
		p.seen.deduped.Add(1)
	} else {
		p.seen.admitted.Add(1)
	}
	return ack, resp.StatusCode, nil
}

// follow reads the experiment's SSE stream to its end and returns when
// the experiment was first seen running (zero if never), when the terminal
// frame arrived, and the terminal state.
func (p *servePass) follow(id string) (running, term time.Time, state string, err error) {
	resp, err := p.hc.Get(p.base + "/experiments/" + id + "/stream")
	if err != nil {
		return running, term, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return running, term, "", fmt.Errorf("stream answered %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	event := ""
	for {
		line, rerr := br.ReadString('\n')
		now := time.Now()
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			switch event {
			case "shutdown":
				return running, term, "", errors.New("stream: daemon draining")
			case "retry":
				p.seen.retries.Add(1)
			}
		case strings.HasPrefix(line, "data: ") && (event == "hello" || event == "state"):
			var f struct {
				State string `json:"state"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &f); err != nil {
				return running, term, "", fmt.Errorf("stream frame: %w", err)
			}
			if f.State == serve.StateRunning && running.IsZero() {
				running = now
			}
			switch f.State {
			case serve.StateDone, serve.StateDegraded, serve.StateFailed, serve.StateInterrupted:
				state, term = f.State, now
			}
		}
		if rerr == io.EOF {
			if state == "" {
				return running, term, "", errors.New("stream ended without a terminal frame")
			}
			return running, term, state, nil
		}
		if rerr != nil {
			return running, term, "", rerr
		}
	}
}

func (p *servePass) result(id string) ([]byte, error) {
	resp, err := p.hc.Get(p.base + "/experiments/" + id + "/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result answered %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// countServerMetrics copies the daemon's submission counters from /metrics
// into the tracer and checks them against what the clients saw. The daemon
// lists a counter from its first increment on, so a missing rejected or
// retried counter reads 0 — unless the clients saw a rejection or a retry,
// which then fails the check, as does a missing admitted or deduped
// counter: every pass admits and dedupes.
func (p *servePass) countServerMetrics(tr *tracer) error {
	resp, err := p.hc.Get(p.base + "/metrics")
	if err != nil {
		return fmt.Errorf("reading /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/metrics answered %d", resp.StatusCode)
	}
	vals := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			vals[f[0]] = int64(v)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading /metrics: %w", err)
	}
	for _, c := range []struct {
		name  string
		seen  int64
		exact bool // the clients see every one of these
	}{
		{"serve_admitted_total", p.seen.admitted.Load(), true},
		{"serve_deduped_total", p.seen.deduped.Load(), true},
		{"serve_rejected_total", p.seen.rejected.Load(), false},
		{"serve_retried_total", p.seen.retries.Load(), false},
	} {
		v, ok := vals[c.name]
		switch {
		case c.exact && !ok:
			return fmt.Errorf("/metrics has no %s", c.name)
		case c.exact && v != c.seen, v < c.seen:
			return fmt.Errorf("/metrics says %s %d, the clients saw %d", c.name, v, c.seen)
		}
	}
	admitted, deduped, rejected := vals["serve_admitted_total"], vals["serve_deduped_total"], vals["serve_rejected_total"]
	tr.count("serve.submitted", admitted+deduped+rejected)
	tr.count("serve.deduped", deduped)
	tr.count("serve.rejected", rejected)
	tr.count("serve.retried", vals["serve_retried_total"])
	return nil
}
