// Package chaos injects faults into the simulator on purpose: NaN and
// negative miss-curve points, non-monotone MRCs, placements that violate
// bank capacity, dropped or delayed placer reconfigurations, and panicking
// sweep cells. The point is to prove the robustness layer works — every
// fault class armed here must be caught by an invariant checker or the
// keep-going harness, never silently reach an emitted figure.
//
// Injection is fully deterministic: whether a fault fires at a given site is
// a pure function of (seed, fault, site coordinates), computed by hashing —
// no wall clock, no global rand, no state mutated by queries. The same seed
// therefore injects the same faults on every run, which is what makes a
// chaos failure reproducible by a single-cell repro command.
//
// The package deliberately imports nothing from the rest of the simulator;
// fault sites hold a *Injector and ask it questions.
package chaos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Fault names one injectable fault class. The string form is what -chaos
// specs and repro commands use.
type Fault string

// The fault classes. Each is paired with the invariant checker expected to
// catch it (see internal/system's chaos tests).
const (
	// CurveNaN poisons one point of a profiled miss curve with NaN.
	CurveNaN Fault = "curve-nan"
	// CurveNegative drives one miss-curve point negative.
	CurveNegative Fault = "curve-negative"
	// CurveNonMonotone makes a miss curve increase with capacity.
	CurveNonMonotone Fault = "curve-nonmonotone"
	// PlacementOverflow inflates one app's bank share past bank capacity.
	PlacementOverflow Fault = "placement-overflow"
	// ReconfigDrop discards a freshly computed placement, keeping the stale one.
	ReconfigDrop Fault = "reconfig-drop"
	// ReconfigDelay installs a computed placement one epoch late.
	ReconfigDelay Fault = "reconfig-delay"
	// CellPanic panics a sweep cell before it runs.
	CellPanic Fault = "panic-cell"

	// The service-tier fault classes: injected into the jumanji-serve
	// daemon (internal/serve) rather than the simulator, so the admission,
	// retry, and degradation paths are exercised by the same seeded
	// injector as the sim faults. Sites are keyed by submission/stream
	// sequence numbers, so a given seed corrupts the same requests on
	// every run.

	// SubmitMalformed corrupts a submission body before decoding, so the
	// daemon must answer 400 and keep serving.
	SubmitMalformed Fault = "submit-malformed"
	// SubmitDuplicateBurst replays an admitted spec several times through
	// the submission path, so every duplicate must dedupe by fingerprint.
	SubmitDuplicateBurst Fault = "submit-duplicate-burst"
	// ClientDisconnectMidStream severs an experiment SSE stream after the
	// first progress frame, as a flaky client would.
	ClientDisconnectMidStream Fault = "client-disconnect-mid-stream"
	// ServePanicCell panics inside the daemon's experiment worker, so one
	// poisoned spec exercises retry/backoff without taking the daemon down.
	ServePanicCell Fault = "serve-panic-cell"
)

// Faults lists every known fault class, sorted.
func Faults() []Fault {
	return []Fault{
		CellPanic, ClientDisconnectMidStream, CurveNaN, CurveNegative,
		CurveNonMonotone, PlacementOverflow, ReconfigDelay, ReconfigDrop,
		ServePanicCell, SubmitDuplicateBurst, SubmitMalformed,
	}
}

func known(f Fault) bool {
	for _, k := range Faults() {
		if f == k {
			return true
		}
	}
	return false
}

// arm is one armed fault: either probabilistic (rate in (0, 1]) or pinned to
// an exact first site coordinate (fire iff keys[0] == pin).
type arm struct {
	rate   float64
	pinned bool
	pin    int64
}

// Injector answers "does fault f fire at this site?" deterministically. A
// nil *Injector (chaos disabled, the production state) never fires, so fault
// sites cost one nil check.
type Injector struct {
	seed int64
	arms map[Fault]arm
}

// New returns an injector with no faults armed. seed picks which sites
// probabilistic faults hit.
func New(seed int64) *Injector {
	return &Injector{seed: seed, arms: make(map[Fault]arm)}
}

// Arm arms fault f at the given firing rate in (0, 1].
func (in *Injector) Arm(f Fault, rate float64) *Injector {
	if !known(f) {
		panic(fmt.Sprintf("chaos: unknown fault %q", f))
	}
	if !(rate > 0 && rate <= 1) {
		panic(fmt.Sprintf("chaos: fault %q rate %g outside (0, 1]", f, rate))
	}
	in.arms[f] = arm{rate: rate}
	return in
}

// Pin arms fault f to fire exactly when a site's first key equals key —
// "panic cell 7", the form repro commands use.
func (in *Injector) Pin(f Fault, key int64) *Injector {
	if !known(f) {
		panic(fmt.Sprintf("chaos: unknown fault %q", f))
	}
	in.arms[f] = arm{pinned: true, pin: key}
	return in
}

// Enabled reports whether any fault is armed.
func (in *Injector) Enabled() bool { return in != nil && len(in.arms) > 0 }

// Fires reports whether fault f fires at the site identified by keys
// (label-hash, cell, epoch, app — whatever coordinates make the site
// unique). Pure: same injector, same keys, same answer.
func (in *Injector) Fires(f Fault, keys ...int64) bool {
	if in == nil {
		return false
	}
	a, ok := in.arms[f]
	if !ok {
		return false
	}
	if a.pinned {
		return len(keys) > 0 && keys[0] == a.pin
	}
	// 24 bits of hash → a uniform fraction in [0, 1).
	frac := float64(in.hash(f, keys)&0xffffff) / float64(1<<24)
	return frac < a.rate
}

// Pick returns a deterministic value in [0, n) for a firing site — which
// curve point to poison, which app's share to inflate. Safe only after Fires
// returned true; returns 0 on a nil injector or n <= 1.
func (in *Injector) Pick(f Fault, n int, keys ...int64) int {
	if in == nil || n <= 1 {
		return 0
	}
	// Decorrelate from Fires by folding in a different tag.
	return int((in.hash(f+":pick", keys) >> 8) % uint64(n))
}

// hash is FNV-1a over seed, fault name, and site keys.
func (in *Injector) hash(f Fault, keys []int64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	mix(uint64(in.seed))
	for i := 0; i < len(f); i++ {
		h ^= uint64(f[i])
		h *= prime
	}
	for _, k := range keys {
		mix(uint64(k))
	}
	return h
}

// Parse builds an injector from a -chaos flag spec: a comma-separated list
// of "fault@rate" (probabilistic) and "fault=key" (pinned) arms, e.g.
//
//	curve-nan@0.25,panic-cell=7
//
// An empty spec returns a nil injector (chaos off).
func Parse(spec string, seed int64) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	in := New(seed)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if name, val, ok := strings.Cut(part, "@"); ok {
			rate, err := strconv.ParseFloat(val, 64)
			// Negated so that NaN, which no comparison admits, is refused
			// too: a NaN rate would arm a fault that never fires.
			if err != nil || !(rate > 0 && rate <= 1) {
				return nil, fmt.Errorf("chaos: bad rate in %q (want fault@rate with rate in (0, 1])", part)
			}
			if !known(Fault(name)) {
				return nil, fmt.Errorf("chaos: unknown fault %q (known: %s)", name, faultList())
			}
			in.Arm(Fault(name), rate)
			continue
		}
		if name, val, ok := strings.Cut(part, "="); ok {
			key, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos: bad key in %q (want fault=integer)", part)
			}
			if !known(Fault(name)) {
				return nil, fmt.Errorf("chaos: unknown fault %q (known: %s)", name, faultList())
			}
			in.Pin(Fault(name), key)
			continue
		}
		return nil, fmt.Errorf("chaos: bad arm %q (want fault@rate or fault=key)", part)
	}
	return in, nil
}

func faultList() string {
	names := make([]string, 0, len(Faults()))
	for _, f := range Faults() {
		names = append(names, string(f))
	}
	return strings.Join(names, ", ")
}

// String renders the armed faults back into Parse's spec syntax (sorted, so
// it is stable for repro commands). Empty for a nil or unarmed injector.
func (in *Injector) String() string {
	if in == nil || len(in.arms) == 0 {
		return ""
	}
	parts := make([]string, 0, len(in.arms))
	for f, a := range in.arms {
		if a.pinned {
			parts = append(parts, fmt.Sprintf("%s=%d", f, a.pin))
		} else {
			parts = append(parts, fmt.Sprintf("%s@%g", f, a.rate))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}
