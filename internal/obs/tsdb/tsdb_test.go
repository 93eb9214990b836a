package tsdb

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestAppendAndAt(t *testing.T) {
	db := New(4)
	for e := 0; e < 3; e++ {
		db.Append("a", e, float64(e)*10)
	}
	s := db.Lookup("a")
	if s.Len() != 3 || s.Total() != 3 || s.Dropped() != 0 {
		t.Fatalf("len=%d total=%d dropped=%d", s.Len(), s.Total(), s.Dropped())
	}
	for i := 0; i < 3; i++ {
		if got := s.At(i); got.Epoch != int32(i) || got.Value != float64(i)*10 {
			t.Errorf("At(%d) = %+v", i, got)
		}
	}
}

func TestRingEviction(t *testing.T) {
	db := New(4)
	for e := 0; e < 10; e++ {
		db.Append("a", e, float64(e))
	}
	s := db.Lookup("a")
	if s.Len() != 4 || s.Total() != 10 || s.Dropped() != 6 {
		t.Fatalf("len=%d total=%d dropped=%d", s.Len(), s.Total(), s.Dropped())
	}
	// Survivors are the last four, oldest first.
	for i := 0; i < 4; i++ {
		if got := s.At(i); got.Epoch != int32(6+i) {
			t.Errorf("At(%d).Epoch = %d, want %d", i, got.Epoch, 6+i)
		}
	}
	d := db.DumpSeries("a")
	if d.Start != 6 || len(d.Samples) != 4 {
		t.Fatalf("dump start=%d n=%d", d.Start, len(d.Samples))
	}
}

func TestNonFiniteDropped(t *testing.T) {
	db := New(4)
	db.Append("a", 0, math.NaN())
	db.Append("a", 1, math.Inf(1))
	db.Append("a", 2, 1.5)
	if s := db.Lookup("a"); s.Len() != 1 || s.At(0).Value != 1.5 {
		t.Fatalf("non-finite values not dropped: %+v", db.Dump())
	}
}

func TestNilDBSafe(t *testing.T) {
	var db *DB
	if db.Enabled() {
		t.Fatal("nil DB enabled")
	}
	db.Append("a", 0, 1)
	db.Merge(New(4))
	if db.Dump() != nil || db.Names() != nil || db.NumSeries() != 0 || db.Cap() != 0 {
		t.Fatal("nil DB not inert")
	}
	var s *Series
	s.append(0, 1)
	if s.Len() != 0 || s.Total() != 0 || s.Dropped() != 0 {
		t.Fatal("nil Series not inert")
	}
}

func TestMergeEqualsSerial(t *testing.T) {
	// Two "cells" each record their own store; merging them in cell order
	// must reproduce the store a serial run would have built.
	serial := New(8)
	c0, c1 := New(8), New(8)
	for e := 0; e < 12; e++ {
		serial.Append("x", e, float64(e))
		serial.Append("y", e, float64(-e))
	}
	for e := 0; e < 6; e++ {
		c0.Append("x", e, float64(e))
		c0.Append("y", e, float64(-e))
	}
	for e := 6; e < 12; e++ {
		c1.Append("x", e, float64(e))
		c1.Append("y", e, float64(-e))
	}
	merged := New(8)
	merged.Merge(c0)
	merged.Merge(c1)

	var a, b bytes.Buffer
	if err := serial.Write(&a); err != nil {
		t.Fatal(err)
	}
	if err := merged.Write(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("merged dump differs from serial:\n%s\nvs\n%s", b.String(), a.String())
	}
	// Dropped counts carry over: 12 appends into cap 8 leaves start=4.
	if d := merged.DumpSeries("x"); d.Start != 4 || len(d.Samples) != 8 {
		t.Fatalf("merged x start=%d n=%d", d.Start, len(d.Samples))
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	db := New(4)
	for e := 0; e < 7; e++ {
		db.Append("a.p95", e, 0.1*float64(e))
	}
	db.Append("b", 0, 123.456789)
	var buf bytes.Buffer
	if err := db.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := got.Write(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatalf("round trip not byte-identical:\n%s\nvs\n%s", buf.String(), buf2.String())
	}
	if s := got.Lookup("a.p95"); s.Dropped() != 3 || s.Len() != 4 {
		t.Fatalf("round-tripped dropped=%d len=%d", s.Dropped(), s.Len())
	}
}

func TestReadRejectsBadDumps(t *testing.T) {
	for name, in := range map[string]string{
		"bad version":   `{"v":99,"cap":4,"series":[]}`,
		"bad cap":       `{"v":1,"cap":0,"series":[]}`,
		"unknown field": `{"v":1,"cap":4,"series":[],"extra":1}`,
		"over capacity": `{"v":1,"cap":1,"series":[{"name":"a","samples":[{"e":0,"v":1},{"e":1,"v":2}]}]}`,
		"not json":      `nope`,
	} {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Read accepted %q", name, in)
		}
	}
}

func TestNamesSortedDumpDeterministic(t *testing.T) {
	db := New(4)
	db.Append("zeta", 0, 1)
	db.Append("alpha", 0, 2)
	names := db.Names()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "zeta" {
		t.Fatalf("Names() = %v", names)
	}
	d := db.Dump()
	if d[0].Name != "alpha" || d[1].Name != "zeta" {
		t.Fatalf("Dump order %v %v", d[0].Name, d[1].Name)
	}
}

// TestAppendSteadyStateAllocs pins the recorder's core promise: once the
// store creates a series, appending to it costs zero allocations.
func TestAppendSteadyStateAllocs(t *testing.T) {
	db := New(64)
	db.Append("a", 0, 1) // create the series
	allocs := testing.AllocsPerRun(100, func() {
		db.Append("a", 1, 2)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Append allocates %v per op, want 0", allocs)
	}
}

// TestReadHugeCapacity: a dump's capacity sizes nothing up front. A dump
// naming the largest int capacity for one empty series used to make Read
// allocate that many samples and panic; it reads, takes appends, and
// round-trips.
func TestReadHugeCapacity(t *testing.T) {
	in := `{"v":1,"cap":9223372036854775807,"series":[{"name":"a","start":0,"samples":[]}]}`
	db, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if db.Cap() != math.MaxInt64 || db.Lookup("a").Len() != 0 {
		t.Fatalf("cap %d, %d samples; want the dump's cap and none", db.Cap(), db.Lookup("a").Len())
	}
	for e := 0; e < 3; e++ {
		db.Append("a", e, float64(e))
	}
	var w1, w2 bytes.Buffer
	if err := db.Write(&w1); err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(w1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Write(&w2); err != nil {
		t.Fatal(err)
	}
	if w1.String() != w2.String() || back.Lookup("a").Len() != 3 {
		t.Fatalf("round trip differs or lost samples:\n%s\nvs\n%s", w1.String(), w2.String())
	}
}

// TestReadRingWrapsAtCapacity: a series Read restores with fewer samples
// than the capacity grows as samples arrive and then wraps at the
// capacity, dropping the oldest, as a series the store created would.
func TestReadRingWrapsAtCapacity(t *testing.T) {
	in := `{"v":1,"cap":4,"series":[{"name":"a","start":5,"samples":[{"e":5,"v":5},{"e":6,"v":6}]}]}`
	db, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	for e := 7; e < 12; e++ {
		db.Append("a", e, float64(e))
	}
	s := db.Lookup("a")
	if s.Len() != 4 || s.Dropped() != 8 || s.Total() != 12 {
		t.Fatalf("len=%d dropped=%d total=%d, want 4, 8, 12", s.Len(), s.Dropped(), s.Total())
	}
	for i := 0; i < 4; i++ {
		if got := s.At(i); got.Epoch != int32(8+i) || got.Value != float64(8+i) {
			t.Errorf("At(%d) = %+v, want epoch %d", i, got, 8+i)
		}
	}
	if len(s.ring) != 4 {
		t.Errorf("ring holds %d slots, want the capacity 4", len(s.ring))
	}
}
