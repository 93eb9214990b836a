package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// noSpan is the parent of a root span and the op id of spans outside any op.
const noSpan = -1

// span is one timed call the benchmark made into a layer of the program.
// Start and End are nanoseconds since the tracer's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"` // e.g. the design a placement ran for
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory for one traced pass. A nil *tracer is the
// untraced mode: every method is a no-op, so workload code calls it
// unconditionally. Safe for concurrent use by the pass's workers.
type tracer struct {
	epoch time.Time

	mu       sync.Mutex
	spans    []span
	counters map[string]int64
	err      error // first failure of the traced pass's own bookkeeping
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counters: make(map[string]int64)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id.
func (t *tracer) begin(name, detail string, parent, op int) int {
	if t == nil {
		return noSpan
	}
	start := t.now()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Detail: detail, Start: start})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// record adds a span whose bounds were measured by the caller (the serve
// client learns phase boundaries from stream frames, after the fact).
func (t *tracer) record(name string, parent, op int, start, end time.Time) int {
	if t == nil {
		return noSpan
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	t.mu.Unlock()
	return id
}

// count adds delta to a named counter.
func (t *tracer) count(name string, delta int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += delta
	t.mu.Unlock()
}

// fail marks the traced pass failed: a per-layer reading it needs could not
// be taken, so its metrics would read 0 instead of failing. The first error
// is kept.
func (t *tracer) fail(err error) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.err == nil {
		t.err = err
	}
	t.mu.Unlock()
}

// snapshot returns the recorded spans and counters, and the error passed
// to fail, if any. Call once the pass's workers have returned.
func (t *tracer) snapshot() ([]span, map[string]int64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...), t.counters, t.err
}

// writeSpans writes spans as JSON lines to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children. Children may nest or overlap (a
// pass's cells run on several workers at once), so the covered part is the
// length of the union of the children's intervals clipped to the parent.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != noSpan {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals within
// [lo, hi].
func covered(lo, hi int64, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, lo), min(c.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, v := range iv {
		switch {
		case !open:
			curA, curB, open = v[0], v[1], true
		case v[0] <= curB:
			curB = max(curB, v[1])
		default:
			total += curB - curA
			curA, curB = v[0], v[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}
