package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"jumanji/internal/chaos"
	"jumanji/internal/obs"
	"jumanji/internal/obs/prom"
	"jumanji/internal/obs/statusz"
	"jumanji/internal/parallel"
)

// Experiment lifecycle states.
const (
	StateQueued      = "queued"      // admitted to the queue, spec fsync'd
	StateAdmitted    = "admitted"    // popped by the dispatcher, worker starting
	StateRunning     = "running"     // cells executing (journal growing)
	StateDone        = "done"        // completed cleanly, result persisted
	StateDegraded    = "degraded"    // retries exhausted; partial result + failed cells persisted
	StateFailed      = "failed"      // non-retryable error; result persisted
	StateInterrupted = "interrupted" // drain stopped it mid-run; re-runs (via journal) on -resume
)

// terminal reports whether a state has a persisted ResultDoc and will
// never change again.
func terminal(state string) bool {
	return state == StateDone || state == StateDegraded || state == StateFailed
}

// Experiment is one submission's full lifecycle. Mutable fields are
// guarded by the server's mutex; hub and done carry live updates to SSE
// subscribers without it.
type Experiment struct {
	ID       string
	Seq      uint64
	Spec     *Spec
	FP       string // canonical fingerprint (journal header, dedupe key)
	FPH      string // fingerprint hash (file names)
	State    string
	Attempts int
	Err      string
	Failed   []FailedCellDoc
	Output   []byte

	hub      statusz.Hub        // per-experiment SSE fan-out
	done     chan struct{}      // closed at the terminal (or interrupted) transition
	progress *parallel.Progress // live cell progress while running
}

// Config parameterizes the daemon. Zero values take the documented
// defaults.
type Config struct {
	Addr     string // listen address (":0" for tests); default "127.0.0.1:8321"
	StateDir string // durable state directory (required)
	Registry *Registry

	MaxQueue     int // global queue bound (default 64)
	MaxPerClient int // per-client queued+running bound (default 16)
	MaxInFlight  int // concurrently running experiments (default 2)

	Retries     int           // retry attempts after a degraded run (default 2)
	BackoffBase time.Duration // first retry delay (default 100ms)
	BackoffCap  time.Duration // delay ceiling (default 2s)

	SoftTimeout time.Duration // per-cell watchdog: log stuck cells
	HardTimeout time.Duration // per-cell watchdog: cancel wedged cells

	Chaos  *chaos.Injector // service- and simulator-tier fault injection
	Resume bool            // recover prior state from StateDir on startup
	Log    io.Writer       // diagnostics; nil discards
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:8321"
	}
	if c.Registry == nil {
		c.Registry = Builtins()
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	}
	if c.MaxPerClient == 0 {
		c.MaxPerClient = 16
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 2
	}
	if c.Retries == 0 {
		c.Retries = 2
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffCap == 0 {
		c.BackoffCap = 2 * time.Second
	}
	return c
}

// Server is the experiment service. Create with New, start with Start,
// stop with Drain (graceful) or Close (abrupt).
type Server struct {
	cfg   Config
	store *store
	stop  *parallel.Stopper // shared by every experiment's engine; Drain trips it

	mu        sync.Mutex
	cond      *sync.Cond // dispatcher wakeup: queue push, run finish, drain
	metrics   *obs.Registry
	queue     *queue
	exps      map[string]*Experiment // by ID
	byFP      map[string]*Experiment // dedupe index, by fingerprint
	order     []*Experiment          // submission order (listing)
	seq       uint64                 // next experiment Seq
	submitSeq int64                  // chaos key: POST /experiments arrivals
	streamSeq int64                  // chaos key: /stream attachments
	draining  bool
	running   int

	drainCh    chan struct{} // closed when draining starts
	drainOnce  sync.Once
	dispatchWG sync.WaitGroup // the dispatcher goroutine
	runWG      sync.WaitGroup // worker goroutines

	ln  net.Listener
	srv *http.Server
}

// New builds a Server over cfg.StateDir, recovering prior state when
// cfg.Resume is set: every durably admitted spec without a terminal result
// is re-enqueued (its journal resumes where the crash cut it off), and
// completed ones are loaded as the dedupe cache.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.StateDir == "" {
		return nil, errors.New("serve: Config.StateDir is required")
	}
	st, err := openStore(cfg.StateDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		store:   st,
		stop:    &parallel.Stopper{},
		metrics: obs.NewRegistry(),
		queue:   newQueue(cfg.MaxQueue, cfg.MaxPerClient),
		exps:    make(map[string]*Experiment),
		byFP:    make(map[string]*Experiment),
		drainCh: make(chan struct{}),
		seq:     1,
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg.Resume {
		if err := s.replayState(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// replayState replays the state directory into the in-memory maps and
// queue.
func (s *Server) replayState() error {
	docs, err := s.store.LoadSpecs()
	if err != nil {
		return err
	}
	for _, doc := range docs {
		rn, ok := s.cfg.Registry.Lookup(doc.Spec.Type)
		if !ok {
			return fmt.Errorf("serve: recovering %s: unknown experiment type %q (registry has %v)",
				doc.ID, doc.Spec.Type, s.cfg.Registry.Types())
		}
		if err := rn.Validate(doc.Spec); err != nil {
			return fmt.Errorf("serve: recovering %s: %w", doc.ID, err)
		}
		fp := doc.Spec.Fingerprint()
		e := &Experiment{
			ID: doc.ID, Seq: doc.Seq, Spec: doc.Spec,
			FP: fp, FPH: FPHash(fp),
			done: make(chan struct{}), progress: &parallel.Progress{},
		}
		res, err := s.store.LoadResult(e.FPH)
		if err != nil {
			return err
		}
		if res != nil && terminal(res.State) {
			e.State = res.State
			e.Attempts = res.Attempts
			e.Err = res.Error
			e.Failed = res.Failed
			e.Output = []byte(res.Output)
			close(e.done)
		} else {
			e.State = StateQueued
			s.queue.Restore(e)
			s.counter("serve.recovered")
		}
		s.exps[e.ID] = e
		s.byFP[e.FP] = e
		s.order = append(s.order, e)
		if doc.Seq >= s.seq {
			s.seq = doc.Seq + 1
		}
	}
	if n := s.queue.Depth(); n > 0 {
		s.logf("serve: recovered %d unfinished experiment(s); resuming from journals", n)
	}
	return nil
}

// counter bumps a named counter. The registry is not thread-safe; every
// call site holds s.mu (or runs before Start).
func (s *Server) counter(name string) { s.metrics.Counter(name).Inc() }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, format+"\n", args...)
	}
}

// Start binds the listener and begins serving and dispatching.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.routes()}
	s.dispatchWG.Add(1)
	go s.dispatch()
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns on shutdown
	return nil
}

// Addr is the bound listen address (resolves ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// routes builds the HTTP surface.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /experiments", s.handleSubmit)
	mux.HandleFunc("GET /experiments", s.handleList)
	mux.HandleFunc("GET /experiments/{id}", s.handleGet)
	mux.HandleFunc("GET /experiments/{id}/result", s.handleResult)
	mux.HandleFunc("GET /experiments/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /statusz", s.handleStatusz)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// maxSpecBytes bounds a submission body; specs are small JSON objects.
const maxSpecBytes = 1 << 20

// admission is one admit call's outcome.
type admission struct {
	exp     *Experiment
	deduped bool
}

// admitErr maps an admission failure to an HTTP status.
type admitErr struct {
	status     int
	retryAfter int // seconds; 0 omits the header
	err        error
}

func (e *admitErr) Error() string { return e.err.Error() }

// admit validates, fingerprints, dedupes, and enqueues one spec. It holds
// s.mu across the spec fsync: admission is the service's serialization
// point by design, and the durable record must exist before the 202 is
// acked (a SIGKILL between ack and fsync would otherwise lose the
// submission).
func (s *Server) admit(sp *Spec) (*admission, *admitErr) {
	rn, ok := s.cfg.Registry.Lookup(sp.Type)
	if !ok {
		return nil, &admitErr{status: http.StatusBadRequest,
			err: fmt.Errorf("unknown experiment type %q (registry has %v)", sp.Type, s.cfg.Registry.Types())}
	}
	if err := rn.Validate(sp); err != nil {
		return nil, &admitErr{status: http.StatusBadRequest, err: err}
	}
	fp := sp.Fingerprint()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, &admitErr{status: http.StatusServiceUnavailable,
			err: errors.New("draining: not accepting new experiments")}
	}
	if prev, ok := s.byFP[fp]; ok {
		// Identical resubmission: served from the cache (or joined to the
		// in-flight run) without consuming queue capacity or re-running.
		s.counter("serve.deduped")
		return &admission{exp: prev, deduped: true}, nil
	}
	e := &Experiment{
		ID: fmt.Sprintf("exp-%06d", s.seq), Seq: s.seq, Spec: sp,
		FP: fp, FPH: FPHash(fp), State: StateQueued,
		done: make(chan struct{}), progress: &parallel.Progress{},
	}
	if err := s.queue.Push(e); err != nil {
		s.counter("serve.rejected")
		return nil, &admitErr{status: http.StatusTooManyRequests,
			retryAfter: 1 + s.queue.Depth()/2, err: err}
	}
	if err := s.store.SaveSpec(&SpecDoc{ID: e.ID, Seq: e.Seq, Spec: sp}); err != nil {
		// Undo the enqueue: an admission we cannot make durable is not an
		// admission (recovery would never see it).
		s.queue.Remove(e)
		return nil, &admitErr{status: http.StatusInternalServerError,
			err: fmt.Errorf("persisting spec: %w", err)}
	}
	s.seq++
	s.exps[e.ID] = e
	s.byFP[fp] = e
	s.order = append(s.order, e)
	s.counter("serve.admitted")
	s.cond.Broadcast()
	e.hub.Broadcast(statusz.SSEEvent("state", map[string]any{"id": e.ID, "state": e.State}))
	return &admission{exp: e}, nil
}

// submitBody is the JSON acknowledgment for a submission.
type submitBody struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	Fingerprint string `json:"fingerprint"`
	Deduped     bool   `json:"deduped"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes))
	if err != nil {
		http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	s.submitSeq++
	seq := s.submitSeq
	s.mu.Unlock()
	if s.cfg.Chaos.Fires(chaos.SubmitMalformed, seq) {
		// Corrupt the submission before decoding: the daemon must answer
		// 400 and keep serving, never crash on garbage input.
		if len(body) > 2 {
			body = body[:len(body)/2]
		}
		body = append(body, []byte(`{{"garbage`)...)
	}
	var sp Spec
	if err := json.Unmarshal(body, &sp); err != nil {
		s.mu.Lock()
		s.counter("serve.rejected")
		s.mu.Unlock()
		http.Error(w, "malformed spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	adm, aerr := s.admit(&sp)
	if aerr != nil {
		if aerr.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(aerr.retryAfter))
		}
		http.Error(w, aerr.Error(), aerr.status)
		return
	}
	if s.cfg.Chaos.Fires(chaos.SubmitDuplicateBurst, seq) {
		// Replay the accepted spec twice more through the full admission
		// path: both must dedupe onto the first admission, proving a
		// client retry storm can't double-run an experiment.
		for i := 0; i < 2; i++ {
			burst := sp
			if a2, e2 := s.admit(&burst); e2 != nil || a2.exp != adm.exp || !a2.deduped {
				http.Error(w, "chaos: duplicate burst was not deduped", http.StatusInternalServerError)
				return
			}
		}
	}
	status := http.StatusAccepted
	if adm.deduped {
		status = http.StatusOK
	}
	s.mu.Lock()
	state := adm.exp.State
	s.mu.Unlock()
	writeJSON(w, status, submitBody{
		ID: adm.exp.ID, State: state, Fingerprint: adm.exp.FP, Deduped: adm.deduped,
	})
}

// expBody is one experiment's JSON status document.
type expBody struct {
	ID          string          `json:"id"`
	Type        string          `json:"type"`
	Client      string          `json:"client,omitempty"`
	State       string          `json:"state"`
	Attempts    int             `json:"attempts"`
	Fingerprint string          `json:"fingerprint"`
	Error       string          `json:"error,omitempty"`
	Failed      []FailedCellDoc `json:"failed,omitempty"`
}

func (s *Server) expBodyLocked(e *Experiment) expBody {
	return expBody{
		ID: e.ID, Type: e.Spec.Type, Client: e.Spec.Client, State: e.State,
		Attempts: e.Attempts, Fingerprint: e.FP, Error: e.Err, Failed: e.Failed,
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]expBody, 0, len(s.order))
	for _, e := range s.order {
		out = append(out, s.expBodyLocked(e))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

// lookup resolves {id}; answers 404 itself when absent.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *Experiment {
	s.mu.Lock()
	e := s.exps[r.PathValue("id")]
	s.mu.Unlock()
	if e == nil {
		http.Error(w, "no such experiment", http.StatusNotFound)
	}
	return e
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	e := s.lookup(w, r)
	if e == nil {
		return
	}
	s.mu.Lock()
	body := s.expBodyLocked(e)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	e := s.lookup(w, r)
	if e == nil {
		return
	}
	s.mu.Lock()
	state, out, errMsg := e.State, e.Output, e.Err
	s.mu.Unlock()
	w.Header().Set("X-Experiment-State", state)
	switch {
	case state == StateFailed:
		http.Error(w, errMsg, http.StatusInternalServerError)
	case terminal(state):
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(out) //nolint:errcheck
	default:
		w.Header().Set("Retry-After", "1")
		http.Error(w, "experiment "+state+"; not finished", http.StatusAccepted)
	}
}

// handleStream serves one experiment's live SSE feed: a "hello" frame,
// then "state" transitions, "progress" frames while cells run, and a final
// frame at the terminal state, after which the stream closes. A drain
// sends "shutdown" and closes cleanly. The subscription starts before the
// state that "hello" reports is read, so no transition after it is missed.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	e := s.lookup(w, r)
	if e == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	sub := e.hub.Subscribe()
	defer e.hub.Unsubscribe(sub)
	s.mu.Lock()
	s.streamSeq++
	seq := s.streamSeq
	state := e.State
	s.mu.Unlock()
	sever := s.cfg.Chaos.Fires(chaos.ClientDisconnectMidStream, seq)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	w.Write(statusz.SSEEvent("hello", map[string]string{"id": e.ID, "state": state})) //nolint:errcheck
	fl.Flush()

	write := func(msg []byte) bool {
		if _, err := w.Write(msg); err != nil {
			return false
		}
		fl.Flush()
		if sever {
			// Chaos client-disconnect-mid-stream: abort the connection
			// mid-feed (the client sees a reset). The daemon must shrug —
			// the subscriber is unsubscribed by the deferred call and the
			// experiment runs on unaffected.
			panic(http.ErrAbortHandler)
		}
		return true
	}
	flushRest := func() {
		for {
			select {
			case msg := <-sub.C():
				if !write(msg) {
					return
				}
			default:
				return
			}
		}
	}
	if terminal(state) || state == StateInterrupted {
		// Already finished: report the terminal state and close.
		write(statusz.SSEEvent("state", map[string]any{"id": e.ID, "state": state}))
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.drainCh:
			write(statusz.SSEEvent("shutdown", map[string]string{"reason": "server draining"}))
			return
		case <-e.done:
			flushRest()
			s.mu.Lock()
			state := e.State
			s.mu.Unlock()
			write(statusz.SSEEvent("state", map[string]any{"id": e.ID, "state": state}))
			return
		case msg := <-sub.C():
			if !write(msg) {
				return
			}
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	snaps := s.metrics.Snapshot()
	s.mu.Unlock()
	w.Header().Set("Content-Type", prom.ContentType)
	prom.Write(w, snaps) //nolint:errcheck
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	states := map[string]int{}
	for _, e := range s.order {
		states[e.State]++
	}
	body := map[string]any{
		"types":     s.cfg.Registry.Types(),
		"queued":    s.queue.Depth(),
		"running":   s.running,
		"draining":  s.draining,
		"states":    states,
		"max_queue": s.cfg.MaxQueue,
		"in_flight": s.cfg.MaxInFlight,
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// Drain performs the graceful shutdown: admissions stop (503), the shared
// stopper trips so in-flight cells finish and journal while unstarted ones
// skip, workers retire their experiments as interrupted, the queue
// snapshot is written, and the HTTP server shuts down cleanly (SSE
// subscribers get a final "shutdown" frame). ctx bounds the HTTP drain.
// A fully drained daemon can restart with Resume and lose nothing.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.drainOnce.Do(func() { close(s.drainCh) })
	s.stop.Stop()
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
	s.dispatchWG.Wait()
	s.runWG.Wait()

	s.mu.Lock()
	ids := s.queue.IDs()
	s.mu.Unlock()
	if err := s.store.SaveSnapshot(ids); err != nil {
		return err
	}
	if s.srv != nil {
		return s.srv.Shutdown(ctx)
	}
	return nil
}

// Close abandons graceful shutdown: connections reset, workers are
// stopped at the next cell boundary. Journalled cells survive regardless.
func (s *Server) Close() error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.drainOnce.Do(func() { close(s.drainCh) })
	s.stop.Stop()
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
	if s.srv != nil {
		return s.srv.Close()
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck
}
