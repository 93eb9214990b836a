package tailbench

import (
	"math"
	"math/rand"
	"testing"

	"jumanji/internal/stats"
)

func TestProfilesMatchTableIII(t *testing.T) {
	want := map[string][3]float64{
		"masstree": {300, 1475, 3000},
		"xapian":   {130, 570, 1500},
		"img-dnn":  {28, 135, 350},
		"silo":     {375, 1750, 3500},
		"moses":    {34, 155, 300},
	}
	if len(Profiles) != len(want) {
		t.Fatalf("%d profiles, want %d", len(Profiles), len(want))
	}
	for _, p := range Profiles {
		w, ok := want[p.Name]
		if !ok {
			t.Errorf("unexpected profile %s", p.Name)
			continue
		}
		if p.LowQPS != w[0] || p.HighQPS != w[1] || float64(p.NumQueries) != w[2] {
			t.Errorf("%s: QPS/queries = %v/%v/%v, want %v", p.Name, p.LowQPS, p.HighQPS, p.NumQueries, w)
		}
	}
}

func TestByName(t *testing.T) {
	if p, ok := ByName("xapian"); !ok || p.Name != "xapian" {
		t.Error("ByName(xapian) failed")
	}
	if _, ok := ByName("nginx"); ok {
		t.Error("ByName found a nonexistent app")
	}
}

func TestMissRatioMonotone(t *testing.T) {
	for _, p := range Profiles {
		c := p.MissRatio(32<<10, 640)
		for i := 1; i < len(c.M); i++ {
			if c.M[i] > c.M[i-1]+1e-12 {
				t.Fatalf("%s: curve increases at %d", p.Name, i)
			}
		}
	}
}

func TestWorkKICalibration(t *testing.T) {
	// By construction: WorkKI × 1000 × refCPI × HighQPS = 0.5 × freq.
	const freq = 2.66e9
	for _, p := range Profiles {
		refCPI := 2.0
		ki := p.WorkKI(refCPI, freq)
		util := ki * 1000 * refCPI * p.HighQPS / freq
		if math.Abs(util-0.5) > 1e-9 {
			t.Errorf("%s: high-load utilization = %v, want 0.5", p.Name, util)
		}
		lowUtil := ki * 1000 * refCPI * p.LowQPS / freq
		if lowUtil < 0.05 || lowUtil > 0.15 {
			t.Errorf("%s: low-load utilization = %v, want ~0.1", p.Name, lowUtil)
		}
	}
}

func TestQueueSimStableLoad(t *testing.T) {
	// M/G/1 with CV=1 at ρ=0.5: Pollaczek–Khinchine gives mean wait
	// λE[S²]/(2(1−ρ)) = S, so mean sojourn = 2S.
	q := NewQueueSim(1)
	q.ServiceCV = 1
	S := 1000.0
	q.SetRate(0.5 / S)
	var lat []float64
	for epoch := 0; epoch < 200; epoch++ {
		lat = q.RunEpochAppend(lat, 100*S, S)
	}
	if len(lat) < 5000 {
		t.Fatalf("only %d completions", len(lat))
	}
	mean := stats.Mean(lat)
	if mean < 1.6*S || mean > 2.4*S {
		t.Errorf("mean sojourn = %v, want ≈ %v", mean, 2*S)
	}
	p95 := stats.Percentile(lat, 95)
	if p95 < 3*S || p95 > 12*S {
		t.Errorf("p95 = %v, want a few times S", p95)
	}
}

func TestQueueSimDeterministicService(t *testing.T) {
	// CV = 0: an isolated request's sojourn is exactly S.
	q := NewQueueSim(9)
	q.ServiceCV = 0
	S := 1000.0
	q.SetRate(0.01 / S) // very light load: essentially no queueing
	var lat []float64
	for epoch := 0; epoch < 100; epoch++ {
		lat = q.RunEpochAppend(lat, 1000*S, S)
	}
	if len(lat) == 0 {
		t.Fatal("no completions")
	}
	for _, l := range lat {
		if l < S-1e-9 {
			t.Fatalf("sojourn %v below service time %v", l, S)
		}
	}
	if p := stats.Percentile(lat, 50); p != S {
		t.Errorf("median sojourn %v, want exactly S under light deterministic load", p)
	}
}

func TestServiceCVControlsVariance(t *testing.T) {
	run := func(cv float64) float64 {
		q := NewQueueSim(11)
		q.ServiceCV = cv
		S := 1000.0
		q.SetRate(0.3 / S)
		var lat []float64
		for epoch := 0; epoch < 100; epoch++ {
			lat = q.RunEpochAppend(lat, 100*S, S)
		}
		return stats.Percentile(lat, 99)
	}
	if lowCV, highCV := run(0.1), run(1.5); highCV <= lowCV {
		t.Errorf("p99 with CV 1.5 (%v) should exceed CV 0.1 (%v)", highCV, lowCV)
	}
}

// TestServiceMatchesPerDrawFormula pins service's cached lognormal
// parameters bitwise to computing them for every draw, including when
// ServiceCV changes between draws (it is a public field).
func TestServiceMatchesPerDrawFormula(t *testing.T) {
	q := NewQueueSim(5)
	ref := rand.New(rand.NewSource(5))
	for i, cv := range []float64{0.3, 0.3, 1, 1, 0, 0.5, 0.3, 2, 2, -1, 0.3} {
		q.ServiceCV = cv
		want := 800.0
		if cv > 0 {
			sigma2 := math.Log(1 + cv*cv)
			mu := -sigma2 / 2
			want = 800 * math.Exp(mu+math.Sqrt(sigma2)*ref.NormFloat64())
		}
		if got := q.service(800); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("draw %d (cv %v): service = %v, per-draw formula gives %v", i, cv, got, want)
		}
	}
}

func TestQueueSimOverloadExplodes(t *testing.T) {
	// ρ = 2: queue grows without bound; latencies climb epoch over epoch —
	// the Fig. 4a Jigsaw behaviour.
	q := NewQueueSim(2)
	S := 1000.0
	q.SetRate(2.0 / S)
	first := q.RunEpochAppend(nil, 100*S, S)
	for i := 0; i < 20; i++ {
		q.RunEpochAppend(nil, 100*S, S)
	}
	last := q.RunEpochAppend(nil, 100*S, S)
	if len(first) == 0 || len(last) == 0 {
		t.Fatal("no completions under overload")
	}
	if stats.Mean(last) < 5*stats.Mean(first) {
		t.Errorf("overload latency did not grow: first %v, last %v", stats.Mean(first), stats.Mean(last))
	}
	if q.QueueLen() == 0 {
		t.Error("overload should leave a backlog")
	}
}

func TestQueueSimRecoversAfterBoost(t *testing.T) {
	// Overload then a faster service rate (feedback boost): the backlog
	// drains and latencies return to normal.
	q := NewQueueSim(3)
	S := 1000.0
	q.SetRate(1.5 / S)
	for i := 0; i < 10; i++ {
		q.RunEpochAppend(nil, 100*S, S)
	}
	backlog := q.QueueLen()
	if backlog == 0 {
		t.Fatal("expected backlog")
	}
	// Boost: 4x faster service.
	var lat []float64
	for i := 0; i < 50; i++ {
		lat = q.RunEpochAppend(nil, 100*S, S/4)
	}
	if q.QueueLen() >= backlog {
		t.Error("backlog did not drain after boost")
	}
	if len(lat) > 0 && stats.Mean(lat) > 3*S {
		t.Errorf("post-boost latency still high: %v", stats.Mean(lat))
	}
}

func TestQueueSimZeroRate(t *testing.T) {
	q := NewQueueSim(4)
	q.SetRate(0)
	if got := q.RunEpochAppend(nil, 1e6, 100); len(got) != 0 {
		t.Errorf("zero rate produced %d completions", len(got))
	}
}

func TestQueueSimDeterministic(t *testing.T) {
	run := func() float64 {
		q := NewQueueSim(7)
		q.SetRate(0.3 / 1000)
		total := 0.0
		for i := 0; i < 50; i++ {
			for _, l := range q.RunEpochAppend(nil, 1e5, 1000) {
				total += l
			}
		}
		return total
	}
	if run() != run() {
		t.Error("QueueSim not deterministic for equal seeds")
	}
}

func TestQueueSimPanics(t *testing.T) {
	q := NewQueueSim(5)
	assertPanic(t, func() { q.SetRate(-1) })
	assertPanic(t, func() { q.RunEpochAppend(nil, 0, 1) })
	assertPanic(t, func() { q.RunEpochAppend(nil, 1, 0) })
	assertPanic(t, func() { Profiles[0].WorkKI(0, 1) })
	assertPanic(t, func() { Profiles[0].MissRatio(0, 1) })
}

func assertPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

// TestRunEpochAppendMatches pins RunEpochAppend into a reused slice to a
// fresh one bitwise: the ring-buffer queue must not perturb RNG draw order or
// latency values.
func TestRunEpochAppendMatches(t *testing.T) {
	mk := func() *QueueSim {
		q := NewQueueSim(99)
		q.SetRate(0.002)
		return q
	}
	a, b := mk(), mk()
	var scratch []float64
	for i := 0; i < 50; i++ {
		want := a.RunEpochAppend(nil, 1e5, 1200)
		scratch = b.RunEpochAppend(scratch[:0], 1e5, 1200)
		if len(want) != len(scratch) {
			t.Fatalf("epoch %d: %d latencies vs %d", i, len(scratch), len(want))
		}
		for j := range want {
			if math.Float64bits(want[j]) != math.Float64bits(scratch[j]) {
				t.Fatalf("epoch %d latency %d: %v vs %v", i, j, scratch[j], want[j])
			}
		}
		if a.QueueLen() != b.QueueLen() {
			t.Fatalf("epoch %d: queue depth %d vs %d", i, b.QueueLen(), a.QueueLen())
		}
	}
}

// TestAllocGuardTailbenchEpoch guards the simulator's hot path: a warmed
// RunEpochAppend call must be allocation-free (the latency slice and the
// arrival ring are both reused).
func TestAllocGuardTailbenchEpoch(t *testing.T) {
	q := NewQueueSim(7)
	q.SetRate(0.002)
	var lats []float64
	for i := 0; i < 10; i++ { // warm the ring and the latency scratch
		lats = q.RunEpochAppend(lats[:0], 1e5, 1200)
	}
	allocs := testing.AllocsPerRun(200, func() {
		lats = q.RunEpochAppend(lats[:0], 1e5, 1200)
	})
	if allocs != 0 {
		t.Errorf("RunEpochAppend allocated %v times per epoch, want 0", allocs)
	}
	_ = stats.Mean(lats)
}
