package serve

import (
	"io"
	"reflect"
	"strings"
	"testing"

	"jumanji/internal/obs"
	"jumanji/internal/obs/tsdb"
	"jumanji/internal/sweep"
)

// TestFingerprintExcludesClient: who submitted must not change the
// fingerprint — that is what makes cross-client dedupe safe.
func TestFingerprintExcludesClient(t *testing.T) {
	a := &Spec{Type: "compare", Client: "alice", Design: "jumanji", LC: "xapian", Load: "high", VMs: 4, Epochs: 10, Warmup: 2, Seed: 1}
	b := *a
	b.Client = "bob"
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("client leaked into fingerprint:\n a: %s\n b: %s", a.Fingerprint(), b.Fingerprint())
	}
	if a.ClientKey() != "alice" || b.ClientKey() != "bob" {
		t.Fatalf("client keys: %q %q", a.ClientKey(), b.ClientKey())
	}
	if (&Spec{}).ClientKey() != "anon" {
		t.Fatalf("empty client: got %q, want anon", (&Spec{}).ClientKey())
	}
}

// TestNormalizeThenFingerprint: a defaulted spec and its explicit
// spelling normalize to the same fingerprint, so both dedupe together.
func TestNormalizeThenFingerprint(t *testing.T) {
	reg := Builtins()
	rn, ok := reg.Lookup("compare")
	if !ok {
		t.Fatal("no compare runner")
	}
	short := &Spec{Type: "compare"}
	if err := rn.Validate(short); err != nil {
		t.Fatal(err)
	}
	full := &Spec{Type: "compare", Design: "jumanji", LC: "xapian", Load: "high", VMs: 4,
		Router: 2, Mesh: "5x4", Epochs: short.Epochs, Warmup: short.Warmup, Seed: 1}
	if err := rn.Validate(full); err != nil {
		t.Fatal(err)
	}
	if short.Fingerprint() != full.Fingerprint() {
		t.Fatalf("defaults drifted:\n short: %s\n full:  %s", short.Fingerprint(), full.Fingerprint())
	}
	// Spellings of one machine normalize together too.
	spelled := &Spec{Type: "compare", Design: " Jumanji", Mesh: "05x4", Shard: "4x04"}
	sharded := &Spec{Type: "compare", Shard: "4x4"}
	for _, sp := range []*Spec{spelled, sharded} {
		if err := rn.Validate(sp); err != nil {
			t.Fatal(err)
		}
	}
	if spelled.Fingerprint() != sharded.Fingerprint() {
		t.Fatalf("spellings drifted:\n spelled: %s\n sharded: %s", spelled.Fingerprint(), sharded.Fingerprint())
	}
	// Warmup takes its default only with the run length: a spec that sets
	// its epochs sets its warmup, and 0 is none.
	sized := &Spec{Type: "compare", Epochs: 30}
	if err := rn.Validate(sized); err != nil || sized.Warmup != 0 {
		t.Fatalf("epochs without warmup: err %v, warmup %d, want 0", err, sized.Warmup)
	}
	// And changing anything result-affecting changes it.
	seeded := *full
	seeded.Seed = 2
	if seeded.Fingerprint() == full.Fingerprint() {
		t.Fatal("seed did not change the fingerprint")
	}
	// A figure's defaults are cmd/figures' quick protocol on the paper's
	// machine.
	fig, ok := reg.Lookup("figure")
	if !ok {
		t.Fatal("no figure runner")
	}
	fshort, ffull := &Spec{Type: "figure", Fig: 12}, &Spec{Type: "figure", Fig: 12, Mixes: 6, Mesh: "5x4", Epochs: 40, Warmup: 15, Seed: 1}
	for _, sp := range []*Spec{fshort, ffull} {
		if err := fig.Validate(sp); err != nil {
			t.Fatal(err)
		}
	}
	if fshort.Fingerprint() != ffull.Fingerprint() {
		t.Fatalf("figure defaults drifted:\n short: %s\n full:  %s", fshort.Fingerprint(), ffull.Fingerprint())
	}
}

// TestFingerprintCoversEveryField: every Spec field but Client changes the
// result bytes, so setting any one of them to a non-default value must
// change the fingerprint. A field added to Spec and left out of the
// encoding fails here.
func TestFingerprintCoversEveryField(t *testing.T) {
	base := Spec{}
	v := reflect.ValueOf(&base).Elem()
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if name == "Client" {
			continue
		}
		sp := base
		f := reflect.ValueOf(&sp).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString("x")
		case reflect.Int, reflect.Int64:
			f.SetInt(7)
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("Spec.%s: kind %s not covered by this test", name, f.Kind())
		}
		if sp.Fingerprint() == base.Fingerprint() {
			t.Errorf("Spec.%s does not change the fingerprint %s", name, base.Fingerprint())
		}
	}
}

// TestFingerprintCoversSinks: a journal header names the deterministic
// sinks whose state it records, so a resume under another sink set is
// refused.
func TestFingerprintCoversSinks(t *testing.T) {
	sp := Spec{Type: "figure", Fig: 12}
	seen := map[string]bool{fingerprint(obs.Sinks{}, sp): true}
	for _, s := range []obs.Sinks{
		{Metrics: obs.NewRegistry()}, {Events: obs.NewEventLog(io.Discard)},
		{Trace: obs.NewTrace(io.Discard)}, {TS: tsdb.New(1)}, {Prov: obs.NewEventLog(io.Discard)},
	} {
		fp := fingerprint(s, sp)
		if seen[fp] {
			t.Errorf("sink set %+v does not change the fingerprint %s", s, fp)
		}
		seen[fp] = true
	}
	if got := fingerprint(obs.Sinks{}, sp); got != sp.Fingerprint() {
		t.Errorf("no sinks: %s, want the spec's own fingerprint %s", got, sp.Fingerprint())
	}
}

func TestValidateRejects(t *testing.T) {
	reg := Builtins()
	cases := []struct {
		name string
		sp   *Spec
		want string
	}{
		{"compare", &Spec{Type: "compare", Load: "sideways"}, "load"},
		{"compare", &Spec{Type: "compare", Design: "warp-drive"}, "design"},
		{"compare", &Spec{Type: "compare", Fig: 12}, "no fig"},
		{"figure", &Spec{Type: "figure", Fig: 3}, "no figure 3"},
		{"figure", &Spec{Type: "figure", Fig: 12, Warmup: 50, Epochs: 10}, "warmup"},
		{"table", &Spec{Type: "table", Table: 9}, "no table 9"},
		// Each of these used to be admitted and then fail in a worker, or
		// run something other than what was asked.
		{"compare", &Spec{Type: "compare", LC: "foo"}, "unknown latency-critical app"},
		{"compare", &Spec{Type: "compare", VMs: 7}, "VM count 7"},
		{"compare", &Spec{Type: "compare", Mesh: "5x4junk"}, "invalid dimensions"},
		{"compare", &Spec{Type: "compare", Mesh: "x4"}, "invalid dimensions"},
		{"compare", &Spec{Type: "compare", Mesh: "64x64"}, "sides 1 to 32"},
		{"compare", &Spec{Type: "compare", Mesh: "4x4", LC: "datacenter"}, "exceed"},
		{"compare", &Spec{Type: "compare", Shard: "4x33"}, "sides 1 to 32"},
		{"compare", &Spec{Type: "compare", Router: -1}, "router"},
		{"compare", &Spec{Type: "compare", Epochs: 5, Warmup: 5}, "epochs/warmup"},
		{"compare", &Spec{Type: "compare", Format: "csv"}, "format"},
		{"figure", &Spec{Type: "figure", Fig: 12, Mesh: "33x1"}, "sides 1 to 32"},
		{"figure", &Spec{Type: "figure", Fig: 12, Mesh: "2x2"}, "below the 20 tiles"},
		{"figure", &Spec{Type: "figure", Fig: 12, Format: "json"}, "format"},
		{"figure", &Spec{Type: "figure", Fig: 12, Router: 3}, "no design/lc/load/vms/router/shard/apps"},
		{"table", &Spec{Type: "table", Table: 1, Format: "csv"}, "format"},
		{"table", &Spec{Type: "table", Table: 1, Fig: 12}, "one fig or table"},
	}
	for _, c := range cases {
		rn, ok := reg.Lookup(c.name)
		if !ok {
			t.Fatalf("no %s runner", c.name)
		}
		err := rn.Validate(c.sp)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s %+v: got %v, want error containing %q", c.name, c.sp, err, c.want)
		}
	}
}

func TestRegistryRegister(t *testing.T) {
	reg := Builtins()
	got := reg.Types()
	want := []string{"compare", "figure", "table"}
	if len(got) != len(want) {
		t.Fatalf("types: got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("types: got %v, want %v", got, want)
		}
	}
	if err := reg.Register(&Runner{Name: "compare", Validate: func(*Spec) error { return nil },
		Run: func(*Spec, sweep.Env) ([]byte, error) { return nil, nil }}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := reg.Register(&Runner{}); err == nil {
		t.Fatal("empty runner accepted")
	}
}

// FuzzSpecAdmission feeds the daemon's admission path arbitrary submission
// bodies, an outside input: decodeSpec then Builtins().Normalize must never
// panic, and a spec they accept must normalize again to the same
// fingerprint, since the fingerprint keys dedupe and journal resume.
func FuzzSpecAdmission(f *testing.F) {
	for _, body := range []string{
		`{"type":"compare","design":"jumanji","epochs":8,"warmup":2,"seed":3}`, // CI's serve smoke
		`{"type":"figure","fig":13}`,
		`{"type":"table","table":2}`,
		`{"type":"compare","design":"all","lc":"datacenter","mesh":"16x16","shard":"4x4"}`,
	} {
		f.Add([]byte(body))
	}
	reg := Builtins()
	f.Fuzz(func(t *testing.T, body []byte) {
		sp, err := decodeSpec(body)
		if err != nil {
			return
		}
		if _, err := reg.Normalize(&sp); err != nil {
			return
		}
		again := sp
		if _, err := reg.Normalize(&again); err != nil {
			t.Fatalf("normalized spec %s is refused on a second pass: %v", sp.Fingerprint(), err)
		}
		if got, want := again.Fingerprint(), sp.Fingerprint(); got != want {
			t.Fatalf("normalizing twice moved the fingerprint:\n once:  %s\n twice: %s", want, got)
		}
	})
}
