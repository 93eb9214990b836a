package main

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: noSpan, Name: "pass", Start: 0, End: 100},
		// Two overlapping children: their union [10,50] counts once.
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},
		{ID: 3, Parent: 0, Name: "c", Start: 60, End: 70},
		// A child running past its parent is clipped to [90,100].
		{ID: 4, Parent: 0, Name: "d", Start: 90, End: 120},
		// A grandchild reduces its own parent's self time only.
		{ID: 5, Parent: 1, Name: "a.x", Start: 15, End: 25},
		// A child identical to its parent leaves no self time.
		{ID: 6, Parent: 3, Name: "c.x", Start: 60, End: 70},
		// A child entirely outside its parent covers nothing.
		{ID: 7, Parent: 2, Name: "b.x", Start: 200, End: 300},
	}
	want := []int64{40, 10, 30, 0, 30, 10, 10, 100}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s self = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestCoveredMergesTouchingIntervals(t *testing.T) {
	kids := []span{{Start: 0, End: 10}, {Start: 10, End: 20}, {Start: 5, End: 8}, {Start: 30, End: 40}}
	if got := covered(0, 100, kids); got != 30 {
		t.Fatalf("covered = %d, want 30", got)
	}
	if got := covered(0, 100, nil); got != 0 {
		t.Fatalf("covered with no children = %d, want 0", got)
	}
}

func TestNilTracerIsNoop(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", "", noSpan, noSpan)
	tr.end(id)
	tr.count("x", 1)
	tr.record("x", id, 0, time.Now(), time.Now())
	if id != noSpan {
		t.Fatalf("nil tracer returned span id %d", id)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := newTracer()
	root := tr.begin("pass", "", noSpan, noSpan)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := tr.begin("cell", "", root, i)
				tr.count("n", 1)
				tr.end(id)
			}
		}()
	}
	wg.Wait()
	tr.end(root)
	spans, counters, _ := tr.snapshot()
	if len(spans) != 401 || counters["n"] != 400 {
		t.Fatalf("got %d spans and count %d, want 401 and 400", len(spans), counters["n"])
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
	}
}

func TestTracerFailKeepsFirstError(t *testing.T) {
	var off *tracer
	off.fail(errors.New("ignored")) // untraced: a no-op
	tr := newTracer()
	if _, _, err := tr.snapshot(); err != nil {
		t.Fatalf("fresh tracer reports %v", err)
	}
	first := errors.New("first")
	tr.fail(first)
	tr.fail(errors.New("second"))
	if _, _, err := tr.snapshot(); !errors.Is(err, first) {
		t.Fatalf("snapshot error = %v, want %v", err, first)
	}
}
