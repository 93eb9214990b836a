// Package tsdb is a fixed-capacity, in-memory time-series store: the
// flight recorder behind the per-epoch metrics timeline. Each series is a
// ring buffer of (epoch, value) samples; once a series reaches the store's
// capacity the oldest samples fall off, but the store remembers how many
// were dropped so every surviving sample keeps a stable global index.
//
// Like the rest of the obs stack the store is single-threaded and
// deterministic: parallel sweep cells record into private DBs that are
// merged back in cell-index order, and the JSON dump of the merged store
// is byte-identical to a serial run's (TestParallelSinksEquivalence).
// Appends to a series the store creates perform no allocations, its ring
// being sized at creation (TestAppendSteadyStateAllocs); a series Read
// restores allocates as its ring grows to the capacity.
package tsdb

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// DefaultCapacity is the per-series ring capacity used by the CLI flag.
// At one sample per 100 ms epoch this holds ~27 minutes of simulated time
// per series, far beyond any figure run.
const DefaultCapacity = 16384

// DumpVersion versions the JSON dump format (see Write/Read).
const DumpVersion = 1

// Sample is one recorded point: the epoch it was sampled at and the value.
type Sample struct {
	Epoch int32   `json:"e"`
	Value float64 `json:"v"`
}

// Series is a single named ring buffer of samples.
type Series struct {
	name string
	// ring holds the live samples. A series the store creates gets a ring
	// of the full capacity; one Read restores gets a ring sized to the
	// samples its dump held, which grows toward capacity as samples are
	// appended, so a dump's capacity alone allocates nothing.
	ring  []Sample
	cap   int    // the store's per-series capacity
	head  int    // index of the oldest sample
	n     int    // live samples
	total uint64 // samples ever appended (monotonic)
}

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Len returns the number of live samples.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// Total returns the number of samples ever appended, including dropped.
func (s *Series) Total() uint64 {
	if s == nil {
		return 0
	}
	return s.total
}

// Dropped returns how many old samples the ring has discarded. The live
// sample At(i) has global index Dropped()+i.
func (s *Series) Dropped() uint64 {
	if s == nil {
		return 0
	}
	return s.total - uint64(s.n)
}

// At returns live sample i, 0 = oldest.
func (s *Series) At(i int) Sample {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("tsdb: At(%d) out of range [0,%d)", i, s.n))
	}
	return s.ring[(s.head+i)%len(s.ring)]
}

// Append pushes one sample, evicting the oldest when full, dropping
// non-finite values (see DB.Append). Zero allocations on a series the
// store creates, whose ring is sized at creation; a series Read restores
// allocates as its ring grows to the capacity. Nil-safe.
func (s *Series) Append(epoch int, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	s.append(int32(epoch), v)
}

// append pushes one sample, evicting the oldest when full. Zero
// allocations on a ring sized at series creation; a ring Read restored
// short grows until it reaches the capacity.
func (s *Series) append(epoch int32, v float64) {
	if s == nil {
		return
	}
	switch {
	case s.n < len(s.ring):
		s.ring[(s.head+s.n)%len(s.ring)] = Sample{epoch, v}
		s.n++
	case len(s.ring) < s.cap:
		// A short ring has never evicted, so head is 0 and the next sample
		// goes at its end.
		s.ring = append(s.ring, Sample{epoch, v})
		s.n++
	default:
		s.ring[s.head] = Sample{epoch, v}
		s.head = (s.head + 1) % len(s.ring)
	}
	s.total++
}

// DB is a collection of named series sharing one ring capacity. The zero
// of *DB (nil) is a disabled store: every method is a nil-safe no-op, so
// call sites need no conditionals.
type DB struct {
	cap    int
	byName map[string]*Series
	order  []string // registration order, drives Merge determinism
}

// New returns an empty store whose series each hold up to capacity
// samples. capacity must be positive.
func New(capacity int) *DB {
	if capacity <= 0 {
		panic(fmt.Sprintf("tsdb: capacity %d must be positive", capacity))
	}
	return &DB{cap: capacity, byName: make(map[string]*Series)}
}

// Enabled reports whether the store records anything.
func (db *DB) Enabled() bool { return db != nil }

// Cap returns the per-series ring capacity.
func (db *DB) Cap() int {
	if db == nil {
		return 0
	}
	return db.cap
}

// NumSeries returns the number of registered series.
func (db *DB) NumSeries() int {
	if db == nil {
		return 0
	}
	return len(db.order)
}

// Series returns the named series, creating it on first use. Returns nil
// on a nil store.
func (db *DB) Series(name string) *Series {
	if db == nil {
		return nil
	}
	if s, ok := db.byName[name]; ok {
		return s
	}
	return db.add(name, make([]Sample, db.cap))
}

// add registers a new series on ring.
func (db *DB) add(name string, ring []Sample) *Series {
	s := &Series{name: name, ring: ring, cap: db.cap}
	db.byName[name] = s
	db.order = append(db.order, name)
	return s
}

// Lookup returns the named series without creating it.
func (db *DB) Lookup(name string) *Series {
	if db == nil {
		return nil
	}
	return db.byName[name]
}

// Append records one sample into the named series, creating the series on
// first use. Non-finite values are dropped: the store must serialize to
// JSON, which has no NaN/Inf encoding, and a non-finite point would poison
// downstream anomaly rules anyway.
func (db *DB) Append(name string, epoch int, v float64) {
	if db == nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	db.Series(name).append(int32(epoch), v)
}

// Names returns every series name sorted.
func (db *DB) Names() []string {
	if db == nil {
		return nil
	}
	names := make([]string, len(db.order))
	copy(names, db.order)
	sort.Strings(names)
	return names
}

// Merge appends src's samples into db, series by series in src's
// registration order. Dropped counts carry over so global sample indices
// stay stable. Merging cells in cell-index order therefore reproduces the
// serial store byte-for-byte. Nil src or nil db are no-ops.
func (db *DB) Merge(src *DB) {
	if db == nil || src == nil {
		return
	}
	for _, name := range src.order {
		from := src.byName[name]
		to := db.Series(name)
		to.total += from.Dropped()
		for i := 0; i < from.n; i++ {
			sm := from.ring[(from.head+i)%len(from.ring)]
			to.append(sm.Epoch, sm.Value)
		}
	}
}

// SeriesData is the plain-data form of one series: what Dump returns,
// what the JSON dump holds, and what statusz publishes.
type SeriesData struct {
	Name string `json:"name"`
	// Start is the global index of Samples[0]; nonzero once the ring has
	// dropped old samples.
	Start   uint64   `json:"start,omitempty"`
	Samples []Sample `json:"samples"`
}

// Dump copies every series out as plain data, sorted by name. The result
// shares nothing with the store, so it is safe to hand across goroutines
// (statusz publishes dumps, never live stores).
func (db *DB) Dump() []SeriesData {
	if db == nil {
		return nil
	}
	out := make([]SeriesData, 0, len(db.order))
	for _, name := range db.Names() {
		out = append(out, db.DumpSeries(name))
	}
	return out
}

// DumpSeries copies one series out as plain data. Unknown names return a
// zero SeriesData with the given name.
func (db *DB) DumpSeries(name string) SeriesData {
	s := db.Lookup(name)
	if s == nil {
		return SeriesData{Name: name}
	}
	d := SeriesData{Name: name, Start: s.Dropped(), Samples: make([]Sample, s.n)}
	for i := 0; i < s.n; i++ {
		d.Samples[i] = s.ring[(s.head+i)%len(s.ring)]
	}
	return d
}

// dumpFile is the versioned JSON envelope for Write/Read.
type dumpFile struct {
	V      int          `json:"v"`
	Cap    int          `json:"cap"`
	Series []SeriesData `json:"series"`
}

// Write serializes the store as versioned, indented JSON. The output is
// deterministic: series sorted by name, samples in global-index order.
func (db *DB) Write(w io.Writer) error {
	f := dumpFile{V: DumpVersion, Cap: db.Cap(), Series: db.Dump()}
	if f.Series == nil {
		f.Series = []SeriesData{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// Read parses a dump produced by Write back into a store. It allocates in
// proportion to the samples the dump holds, whatever capacity it names.
func Read(r io.Reader) (*DB, error) {
	var f dumpFile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("tsdb: parse dump: %w", err)
	}
	if f.V != DumpVersion {
		return nil, fmt.Errorf("tsdb: dump version %d, want %d", f.V, DumpVersion)
	}
	if f.Cap <= 0 {
		return nil, fmt.Errorf("tsdb: dump capacity %d invalid", f.Cap)
	}
	db := New(f.Cap)
	for _, sd := range f.Series {
		if len(sd.Samples) > f.Cap {
			return nil, fmt.Errorf("tsdb: series %q has %d samples, over capacity %d", sd.Name, len(sd.Samples), f.Cap)
		}
		s := db.Lookup(sd.Name)
		if s == nil {
			s = db.add(sd.Name, make([]Sample, 0, len(sd.Samples)))
		}
		s.total = sd.Start
		for _, sm := range sd.Samples {
			s.append(sm.Epoch, sm.Value)
		}
	}
	return db, nil
}
