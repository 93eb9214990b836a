package chaos

import (
	"math"
	"testing"
)

// Chaos determinism is an acceptance criterion: the same seed must inject
// the same faults at the same sites, query after query, run after run.
func TestDeterminism(t *testing.T) {
	build := func() *Injector {
		return New(42).Arm(CurveNaN, 0.25).Pin(CellPanic, 7)
	}
	a, b := build(), build()
	for cell := int64(0); cell < 200; cell++ {
		for epoch := int64(0); epoch < 5; epoch++ {
			if a.Fires(CurveNaN, cell, epoch) != b.Fires(CurveNaN, cell, epoch) {
				t.Fatalf("CurveNaN fires differently at (%d,%d) across identical injectors", cell, epoch)
			}
			if a.Pick(CurveNaN, 32, cell, epoch) != b.Pick(CurveNaN, 32, cell, epoch) {
				t.Fatalf("Pick differs at (%d,%d)", cell, epoch)
			}
		}
	}
	// Repeated queries of one injector are pure.
	first := a.Fires(CurveNaN, 3, 1)
	for i := 0; i < 10; i++ {
		if a.Fires(CurveNaN, 3, 1) != first {
			t.Fatal("Fires is stateful")
		}
	}
}

func TestSeedChangesSites(t *testing.T) {
	a := New(1).Arm(CurveNaN, 0.5)
	b := New(2).Arm(CurveNaN, 0.5)
	same := 0
	const n = 500
	for i := int64(0); i < n; i++ {
		if a.Fires(CurveNaN, i) == b.Fires(CurveNaN, i) {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds picked identical fault sites")
	}
}

func TestRateIsRespected(t *testing.T) {
	in := New(9).Arm(CurveNegative, 0.25)
	fired := 0
	const n = 4000
	for i := int64(0); i < n; i++ {
		if in.Fires(CurveNegative, i) {
			fired++
		}
	}
	got := float64(fired) / n
	if math.Abs(got-0.25) > 0.05 {
		t.Fatalf("rate 0.25 fired at %.3f", got)
	}
	// Rate 1 always fires.
	always := New(9).Arm(CurveNaN, 1)
	for i := int64(0); i < 50; i++ {
		if !always.Fires(CurveNaN, i) {
			t.Fatalf("rate-1 fault did not fire at %d", i)
		}
	}
}

func TestPinnedFault(t *testing.T) {
	in := New(0).Pin(CellPanic, 7)
	for i := int64(0); i < 30; i++ {
		want := i == 7
		if in.Fires(CellPanic, i) != want {
			t.Fatalf("pinned fault at cell %d: fires=%v", i, !want)
		}
	}
	if in.Fires(CellPanic) {
		t.Fatal("pinned fault fired with no keys")
	}
}

func TestNilInjector(t *testing.T) {
	var in *Injector
	if in.Enabled() || in.Fires(CurveNaN, 1) {
		t.Fatal("nil injector fired")
	}
	if in.Pick(CurveNaN, 8, 1) != 0 {
		t.Fatal("nil injector picked nonzero")
	}
	if in.String() != "" {
		t.Fatal("nil injector has a spec string")
	}
}

func TestParseRoundTrip(t *testing.T) {
	in, err := Parse("curve-nan@0.25,panic-cell=7", 13)
	if err != nil {
		t.Fatal(err)
	}
	if !in.Enabled() {
		t.Fatal("parsed injector not enabled")
	}
	if !in.Fires(CellPanic, 7) || in.Fires(CellPanic, 8) {
		t.Fatal("parsed pinned arm wrong")
	}
	if got, want := in.String(), "curve-nan@0.25,panic-cell=7"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}

	if in, err := Parse("", 1); err != nil || in != nil {
		t.Fatalf("empty spec = (%v, %v), want (nil, nil)", in, err)
	}
}

// Every fault class — including the service-tier classes the jumanji-serve
// daemon injects at its submission/stream/worker sites — must survive a
// Parse/String round trip in both arm forms, so repro commands rendered
// from String() reconstruct the exact injector.
func TestParseRoundTripAllFaults(t *testing.T) {
	for _, f := range Faults() {
		spec := string(f) + "@0.5"
		in, err := Parse(spec, 7)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if got := in.String(); got != spec {
			t.Errorf("String() = %q, want %q", got, spec)
		}

		spec = string(f) + "=3"
		in, err = Parse(spec, 7)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if !in.Fires(f, 3) || in.Fires(f, 4) {
			t.Errorf("%s: pinned arm fires at the wrong sites", f)
		}
		if got := in.String(); got != spec {
			t.Errorf("String() = %q, want %q", got, spec)
		}
	}
}

// The service-tier faults decorrelate across sites like the sim faults:
// a rate arm keyed by submission sequence must not fire everywhere.
func TestServiceFaultSites(t *testing.T) {
	in := New(3).Arm(SubmitMalformed, 0.5).Arm(ClientDisconnectMidStream, 0.5)
	fired, disc := 0, 0
	const n = 400
	for seq := int64(0); seq < n; seq++ {
		if in.Fires(SubmitMalformed, seq) {
			fired++
		}
		if in.Fires(ClientDisconnectMidStream, seq) {
			disc++
		}
	}
	if fired == 0 || fired == n || disc == 0 || disc == n {
		t.Fatalf("service faults fired %d/%d and %d/%d of sites; want a strict subset", fired, n, disc, n)
	}
	// ServePanicCell keyed by (seq, attempt) must allow a retry to pass at
	// some site: the worker's backoff path is only reachable if the fault
	// is not pinned to every attempt.
	pan := New(3).Arm(ServePanicCell, 0.5)
	varies := false
	for seq := int64(0); seq < 50 && !varies; seq++ {
		if pan.Fires(ServePanicCell, seq, 0) != pan.Fires(ServePanicCell, seq, 1) {
			varies = true
		}
	}
	if !varies {
		t.Fatal("serve-panic-cell ignores the attempt key; retries could never succeed")
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"curve-nan",          // no rate or key
		"curve-nan@0",        // rate out of range
		"curve-nan@1.5",      // rate out of range
		"curve-nan@NaN",      // NaN rate, which would never fire
		"panic-cell@nan",     // NaN rate, any spelling
		"curve-nan@x",        // not a number
		"panic-cell=x",       // not an integer
		"no-such-fault@0.5",  // unknown fault
		"no-such-fault=3",    // unknown fault
		"curve-nan@0.5,,bad", // trailing garbage arm
	} {
		if _, err := Parse(spec, 1); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

func TestPickInRange(t *testing.T) {
	in := New(5).Arm(CurveNaN, 1)
	seen := make(map[int]bool)
	for i := int64(0); i < 200; i++ {
		p := in.Pick(CurveNaN, 8, i)
		if p < 0 || p >= 8 {
			t.Fatalf("Pick out of range: %d", p)
		}
		seen[p] = true
	}
	if len(seen) < 4 {
		t.Fatalf("Pick hit only %d of 8 values over 200 sites", len(seen))
	}
}

// FuzzChaosParse feeds Parse arbitrary -chaos specs, an outside input on
// figures, jumanji-sim and jumanji-serve. Parse must never panic; a spec it
// accepts must arm only known faults, each with a rate in (0, 1] or a
// pinned key; and the accepted injector's String() must parse back to an
// injector with the same String(), since repro commands are rendered from
// it.
func FuzzChaosParse(f *testing.F) {
	for _, spec := range []string{
		"", " , ", "curve-nan@0.25,panic-cell=7", "curve-nan@NaN", "panic-cell@nan",
		"curve-nan@0x1p-2", "panic-cell=+3", "panic-cell=-9223372036854775808",
		"curve-nan@5e-324", "curve-nan@1,curve-nan=2", "serve-panic-cell@1.0000000000000001",
		"no-such-fault@0.5", "curve-nan@0.5,,bad", "reconfig-drop@Inf", "=3", "@0.5",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		in, err := Parse(spec, 1)
		if err != nil {
			return
		}
		if in != nil {
			for fault, a := range in.arms {
				if !known(fault) {
					t.Fatalf("Parse(%q) armed unknown fault %q", spec, fault)
				}
				if !a.pinned && !(a.rate > 0 && a.rate <= 1) {
					t.Fatalf("Parse(%q) armed %s at rate %v, outside (0, 1]", spec, fault, a.rate)
				}
			}
		}
		again, err := Parse(in.String(), 1)
		if err != nil {
			t.Fatalf("Parse(%q).String() = %q does not parse: %v", spec, in.String(), err)
		}
		if again.String() != in.String() {
			t.Fatalf("Parse(%q).String() = %q re-parses to %q", spec, in.String(), again.String())
		}
	})
}
