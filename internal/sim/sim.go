// Package sim provides the discrete-event simulation engine underlying the
// detailed (cycle-level) part of the reproduction: cache banks with limited
// ports, NoC traversals, and the attack demonstrations all run on this
// engine. The large design-space sweeps use the epoch-based model in
// internal/system instead, which needs no event queue.
package sim

import "jumanji/internal/obs"

// Time is simulation time in cycles.
type Time uint64

// Event is a callback scheduled to run at a point in simulated time.
type Event func()

type queuedEvent struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among events at the same cycle
	fn  Event
}

// before is the queue's strict total order: by timestamp, then FIFO among
// events at the same cycle. Because (at, seq) pairs are unique, any correct
// heap yields exactly one execution order.
func (ev queuedEvent) before(other queuedEvent) bool {
	if ev.at != other.at {
		return ev.at < other.at
	}
	return ev.seq < other.seq
}

// eventQueue is a typed binary min-heap. container/heap's interface{} API
// boxed one queuedEvent per Push and per Pop — two allocations per event on
// the detailed simulator's innermost path — so the sift operations are
// implemented directly instead.
type eventQueue []queuedEvent

func (q eventQueue) siftUp(i int) {
	ev := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
}

func (q eventQueue) siftDown(i int) {
	ev := q[i]
	n := len(q)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q[r].before(q[child]) {
			child = r
		}
		if !q[child].before(ev) {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = ev
}

// Engine is a discrete-event simulator. The zero value is ready to use.
// Engines are not safe for concurrent use; the detailed simulator is
// single-threaded by design so results are exactly reproducible.
type Engine struct {
	now    Time
	nextID uint64
	queue  eventQueue
	spans  *obs.Spans
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// SetSpans attaches wall-clock phase timers: each Run/RunAll drain is
// recorded under the "sim.run" phase. A nil spans (the default) keeps the
// engine timer-free; event dispatch itself is never instrumented, so the
// per-event hot path is identical either way.
func (e *Engine) SetSpans(s *obs.Spans) { e.spans = s }

// Schedule runs fn after delay cycles (delay 0 means later in the current
// cycle, after already-queued events for this cycle).
func (e *Engine) Schedule(delay Time, fn Event) {
	e.nextID++
	e.queue = append(e.queue, queuedEvent{at: e.now + delay, seq: e.nextID, fn: fn})
	e.queue.siftUp(len(e.queue) - 1)
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.queue) }

// Step executes the single earliest event, advancing the clock to its
// timestamp. It returns false if no events are pending.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue[0]
	n := len(e.queue) - 1
	e.queue[0] = e.queue[n]
	e.queue[n] = queuedEvent{} // release the event closure to the GC
	e.queue = e.queue[:n]
	if n > 0 {
		e.queue.siftDown(0)
	}
	e.now = ev.at
	ev.fn()
	return true
}

// Run executes events until the queue is empty or the clock passes `until`.
// Events scheduled at exactly `until` still run. It returns the number of
// events executed.
func (e *Engine) Run(until Time) int {
	var sp obs.Span
	if e.spans != nil {
		sp = e.spans.Start("sim.run")
	}
	executed := 0
	for len(e.queue) > 0 && e.queue[0].at <= until {
		e.Step()
		executed++
	}
	if e.now < until && len(e.queue) == 0 {
		e.now = until
	}
	sp.Stop()
	return executed
}

// RunAll executes all pending events (including ones scheduled by other
// events) and returns how many ran. Use with care: a self-rescheduling
// event makes this loop forever, so periodic processes should be driven
// with Run(until) instead.
func (e *Engine) RunAll() int {
	var sp obs.Span
	if e.spans != nil {
		sp = e.spans.Start("sim.run")
	}
	executed := 0
	for e.Step() {
		executed++
	}
	sp.Stop()
	return executed
}
