package statusz

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"jumanji/internal/obs/tsdb"
)

// Hub fans published activity out to SSE subscribers. Broadcasts never
// block the publisher: a subscriber that cannot keep up (its buffered
// channel is full) drops events rather than stalling the run's merge
// points, and is told how many it missed once it catches up (the "dropped"
// SSE event), so a lossy window is visible instead of silent.
//
// The zero Hub is ready to use. It is exported because it is the shared
// /stream machinery: this package's flight-recorder feed and the
// jumanji-serve daemon's per-experiment progress streams are both Hub
// consumers.
type Hub struct {
	mu   sync.Mutex
	subs map[*Subscriber]struct{}
}

// Subscriber is one SSE client's bounded queue plus the count of events
// dropped since it last drained. dropped is guarded by the hub lock; the
// serving goroutine claims it with TakeDropped.
type Subscriber struct {
	ch      chan []byte
	dropped uint64
}

// C is the subscriber's receive channel: complete SSE frames, in order.
func (s *Subscriber) C() <-chan []byte { return s.ch }

// subscriberBuffer bounds each SSE client's in-flight event queue; a
// publish burst larger than this drops the overflow for that client only.
const subscriberBuffer = 64

// Subscribe registers a new subscriber; pair with Unsubscribe.
func (h *Hub) Subscribe() *Subscriber {
	sub := &Subscriber{ch: make(chan []byte, subscriberBuffer)}
	h.mu.Lock()
	if h.subs == nil {
		h.subs = make(map[*Subscriber]struct{})
	}
	h.subs[sub] = struct{}{}
	h.mu.Unlock()
	return sub
}

// Unsubscribe removes a subscriber; its queue is abandoned.
func (h *Hub) Unsubscribe(sub *Subscriber) {
	h.mu.Lock()
	delete(h.subs, sub)
	h.mu.Unlock()
}

// Subscribers reports the registered subscriber count (the teardown
// regression tests poll it).
func (h *Hub) Subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// Broadcast enqueues one frame for every subscriber, dropping (and
// counting) for any whose queue is full.
func (h *Hub) Broadcast(msg []byte) {
	h.mu.Lock()
	for sub := range h.subs {
		select {
		case sub.ch <- msg:
		default: // slow subscriber: drop and count, never block the publisher
			sub.dropped++
		}
	}
	h.mu.Unlock()
}

// TakeDropped claims the subscriber's drop count, resetting it.
func (h *Hub) TakeDropped(sub *Subscriber) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := sub.dropped
	sub.dropped = 0
	return n
}

// SSEEvent renders one server-sent event frame.
func SSEEvent(event string, data any) []byte {
	b, err := json.Marshal(data)
	if err != nil {
		b = []byte(`{}`)
	}
	return []byte(fmt.Sprintf("event: %s\ndata: %s\n\n", event, b))
}

// streamSample is one flight-recorder sample as it appears on /stream.
type streamSample struct {
	Series string  `json:"series"`
	Epoch  int32   `json:"epoch"`
	Value  float64 `json:"value"`
}

// sampleBurstCap bounds the samples carried by a single /stream "samples"
// event. A publish that lands more new samples than this (e.g. the first
// merge of a long run) keeps only the newest; the full window stays
// queryable via /timeseries.
const sampleBurstCap = 512

// handleStream serves the live SSE feed: a "hello" event on subscribe
// (so curl-based smoke tests observe a complete event without waiting for
// run activity), then "samples" and "alert" events as merges publish. On
// graceful shutdown the subscriber receives a final "shutdown" frame and a
// clean connection close, never a reset mid-frame. The subscription starts
// before "hello" is written, so every publish after a client has read
// "hello" reaches it.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	sub := s.hub.Subscribe()
	defer s.hub.Unsubscribe(sub)
	w.WriteHeader(http.StatusOK)
	w.Write(SSEEvent("hello", map[string]string{"command": s.info.Command})) //nolint:errcheck
	fl.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.done:
			w.Write(SSEEvent("shutdown", map[string]string{"reason": "server shutting down"})) //nolint:errcheck
			fl.Flush()
			return
		case msg := <-sub.C():
			if _, err := w.Write(msg); err != nil {
				return
			}
			if n := s.hub.TakeDropped(sub); n > 0 {
				// The queue overflowed while this client lagged; tell it how
				// many events it missed before resuming the live feed.
				if _, err := w.Write(SSEEvent("dropped", map[string]uint64{"events": n})); err != nil {
					return
				}
			}
			fl.Flush()
		}
	}
}

// PublishTimeseries installs a flight-recorder dump for /timeseries to
// serve, scans it with the online anomaly rules, and streams the new
// samples and any fresh alerts to /stream subscribers. The harness calls it
// at cell-merge points with an immutable dump (see obs.Sinks.Merge); between
// publishes the endpoints serve the previous one. Safe on a nil Server.
func (s *Server) PublishTimeseries(dump []tsdb.SeriesData) {
	if s == nil {
		return
	}
	s.tsMu.Lock()
	s.tsDump = dump
	if s.det == nil {
		s.det = &tsdb.Detector{}
		s.streamPos = make(map[string]uint64)
	}
	alerts := s.det.Scan(dump)
	s.alerts = append(s.alerts, alerts...)
	if len(s.alerts) > maxAlerts {
		s.alerts = append([]tsdb.Alert(nil), s.alerts[len(s.alerts)-maxAlerts:]...)
	}
	var fresh []streamSample
	for _, sd := range dump {
		next := s.streamPos[sd.Name]
		for i, smp := range sd.Samples {
			if g := sd.Start + uint64(i); g >= next {
				fresh = append(fresh, streamSample{Series: sd.Name, Epoch: smp.Epoch, Value: smp.Value})
				next = g + 1
			}
		}
		s.streamPos[sd.Name] = next
	}
	s.tsMu.Unlock()

	if len(fresh) > sampleBurstCap {
		fresh = fresh[len(fresh)-sampleBurstCap:]
	}
	if len(fresh) > 0 {
		s.hub.Broadcast(SSEEvent("samples", fresh))
	}
	for _, a := range alerts {
		s.hub.Broadcast(SSEEvent("alert", a))
	}
}

// maxAlerts bounds the alert history /statusz reports (newest kept).
const maxAlerts = 64

// timeseriesBody is the /timeseries JSON document.
type timeseriesBody struct {
	Series []tsdb.SeriesData `json:"series"`
}

// handleTimeseries serves window queries over the last published
// flight-recorder dump. Query parameters: series=<name>[,<name>...]
// filters by exact series name; last=<n> keeps only each series' newest n
// samples (Start is adjusted so global sample indices stay stable).
func (s *Server) handleTimeseries(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var filter map[string]bool
	if names := q["series"]; len(names) > 0 {
		filter = make(map[string]bool)
		for _, arg := range names {
			for _, name := range splitComma(arg) {
				filter[name] = true
			}
		}
	}
	last := -1
	if v := q.Get("last"); v != "" {
		if _, err := fmt.Sscanf(v, "%d", &last); err != nil || last < 0 {
			http.Error(w, "last: want a non-negative integer", http.StatusBadRequest)
			return
		}
	}

	s.tsMu.Lock()
	body := timeseriesBody{Series: []tsdb.SeriesData{}}
	for _, sd := range s.tsDump {
		if filter != nil && !filter[sd.Name] {
			continue
		}
		if last >= 0 && len(sd.Samples) > last {
			drop := len(sd.Samples) - last
			sd = tsdb.SeriesData{Name: sd.Name, Start: sd.Start + uint64(drop), Samples: sd.Samples[drop:]}
		}
		body.Series = append(body.Series, sd)
	}
	s.tsMu.Unlock()

	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body) //nolint:errcheck // best-effort response write
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if part := s[start:i]; part != "" {
				out = append(out, part)
			}
			start = i + 1
		}
	}
	return out
}
