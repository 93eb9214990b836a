package sim

import (
	"testing"
)

func TestEngineZeroValue(t *testing.T) {
	var e Engine
	if e.Now() != 0 {
		t.Errorf("zero engine Now = %d", e.Now())
	}
	if e.Step() {
		t.Error("Step on empty engine should return false")
	}
}

func TestScheduleOrdering(t *testing.T) {
	var e Engine
	var order []int
	e.Schedule(10, func() { order = append(order, 2) })
	e.Schedule(5, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 3) })
	if n := e.RunAll(); n != 3 {
		t.Errorf("RunAll = %d, want 3", n)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("events out of order: %v", order)
	}
	if e.Now() != 20 {
		t.Errorf("final time = %d, want 20", e.Now())
	}
}

func TestFIFOAtSameCycle(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(7, func() { order = append(order, i) })
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle events not FIFO: %v", order)
		}
	}
}

func TestEventsScheduleEvents(t *testing.T) {
	var e Engine
	var times []Time
	e.Schedule(1, func() {
		times = append(times, e.Now())
		e.Schedule(2, func() {
			times = append(times, e.Now())
		})
	})
	e.RunAll()
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Errorf("nested scheduling times = %v", times)
	}
}

func TestRunUntil(t *testing.T) {
	var e Engine
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(Time(i*10), func() { count++ })
	}
	n := e.Run(50)
	if n != 5 || count != 5 {
		t.Errorf("Run(50) executed %d events (count %d), want 5", n, count)
	}
	if e.Now() != 50 {
		t.Errorf("Now = %d, want 50", e.Now())
	}
	if e.Pending() != 5 {
		t.Errorf("Pending = %d, want 5", e.Pending())
	}
	// Running past the rest empties the queue and advances the clock to until.
	e.Run(1000)
	if e.Now() != 1000 || e.Pending() != 0 {
		t.Errorf("after Run(1000): now=%d pending=%d", e.Now(), e.Pending())
	}
}

func TestRunInclusiveAtBoundary(t *testing.T) {
	var e Engine
	ran := false
	e.Schedule(100, func() { ran = true })
	e.Run(100)
	if !ran {
		t.Error("event at exactly `until` did not run")
	}
}

func TestServerSinglePortQueues(t *testing.T) {
	var e Engine
	s := NewServer(&e, 1)
	var completions []Time
	record := func() { completions = append(completions, e.Now()) }
	// Three 10-cycle uses arriving at time 0 must finish at 10, 20, 30.
	s.Use(10, record)
	s.Use(10, record)
	s.Use(10, record)
	if s.Busy() != 1 || s.QueueLen() != 2 {
		t.Fatalf("busy=%d queue=%d, want 1 and 2", s.Busy(), s.QueueLen())
	}
	e.RunAll()
	want := []Time{10, 20, 30}
	for i, w := range want {
		if completions[i] != w {
			t.Errorf("completion %d at %d, want %d", i, completions[i], w)
		}
	}
	if s.TotalServed != 3 {
		t.Errorf("TotalServed = %d", s.TotalServed)
	}
	// Second waited 10, third waited 20.
	if s.TotalQueuedCycles != 30 {
		t.Errorf("TotalQueuedCycles = %d, want 30", s.TotalQueuedCycles)
	}
}

func TestServerMultiPort(t *testing.T) {
	var e Engine
	s := NewServer(&e, 2)
	var completions []Time
	record := func() { completions = append(completions, e.Now()) }
	s.Use(10, record)
	s.Use(10, record)
	s.Use(10, record)
	e.RunAll()
	// Two run in parallel (finish at 10), third starts at 10, ends at 20.
	if completions[0] != 10 || completions[1] != 10 || completions[2] != 20 {
		t.Errorf("completions = %v", completions)
	}
	if s.TotalQueuedCycles != 10 {
		t.Errorf("TotalQueuedCycles = %d, want 10", s.TotalQueuedCycles)
	}
}

func TestServerNilDone(t *testing.T) {
	var e Engine
	s := NewServer(&e, 1)
	s.Use(5, nil)
	e.RunAll()
	if s.TotalServed != 1 {
		t.Errorf("TotalServed = %d", s.TotalServed)
	}
}

func TestNewServerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewServer(0) should panic")
		}
	}()
	var e Engine
	NewServer(&e, 0)
}

func TestServerLateArrivalNoQueueing(t *testing.T) {
	var e Engine
	s := NewServer(&e, 1)
	s.Use(10, nil)
	e.Schedule(50, func() { s.Use(10, nil) })
	e.RunAll()
	if s.TotalQueuedCycles != 0 {
		t.Errorf("late arrival should not queue, got %d cycles", s.TotalQueuedCycles)
	}
	if e.Now() != 60 {
		t.Errorf("Now = %d, want 60", e.Now())
	}
}
