package prom_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jumanji/internal/obs"
	"jumanji/internal/obs/prom"
)

var update = flag.Bool("update", false, "rewrite golden files")

// golden compares got against testdata/<name>, rewriting it under -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (run with -update to rewrite):\ngot:\n%swant:\n%s", path, got, want)
	}
}

func TestWriteGolden(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("system.epochs").Add(120)
	reg.Counter("system.reconfigs").Add(7)
	reg.Gauge("feedback.app0.alloc_bytes").Set(2.5e6)
	reg.Gauge("run.negative").Set(-1.5)
	h := reg.Histogram("system.lat_norm", 0, 2, 4)
	for _, v := range []float64{0.1, 0.4, 0.6, 1.1, 1.9, 5.0} { // 5.0 clamps into the top bin
		h.Observe(v)
	}

	var buf bytes.Buffer
	if err := prom.Write(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	golden(t, "registry.prom", buf.Bytes())
}

func TestWriteSpansGolden(t *testing.T) {
	// Spans durations are nondeterministic, so build the equivalent
	// snapshots by hand: same names and shape a Spans would publish.
	snaps := []obs.MetricSnapshot{
		{
			Name: "span.core.place.seconds", Kind: obs.KindHistogram,
			Value: 0.015, Count: 2, Sum: 0.03, Lo: 0, Hi: 1,
			Bins: append([]uint64{2}, make([]uint64, 49)...),
		},
	}
	var buf bytes.Buffer
	if err := prom.Write(&buf, snaps); err != nil {
		t.Fatal(err)
	}
	golden(t, "spans.prom", buf.Bytes())
}

func TestWriteFormat(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("a.count").Inc()
	reg.Histogram("h", 0, 1, 2).Observe(0.25)
	var buf bytes.Buffer
	if err := prom.Write(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		"# TYPE a_count_total counter\n",
		"a_count_total 1\n",
		"# TYPE h histogram\n",
		`h_bucket{le="0.5"} 1` + "\n",
		`h_bucket{le="1"} 1` + "\n",
		`h_bucket{le="+Inf"} 1` + "\n",
		"h_sum 0.25\n",
		"h_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Buckets must be cumulative and end at the exact count.
	if strings.Contains(out, `h_bucket{le="1"} 0`) {
		t.Errorf("buckets not cumulative:\n%s", out)
	}
	// Every line must be a comment or name value — no blank lines, LF endings.
	for i, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if line == "" {
			t.Errorf("line %d is blank", i)
		}
	}
	if !strings.HasSuffix(out, "\n") {
		t.Error("output must end with a newline")
	}
}

func TestName(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"system.epochs", "system_epochs"},
		{"span.core.place.seconds", "span_core_place_seconds"},
		{"already_fine:ok", "already_fine:ok"},
		{"lat/deadline", "lat_deadline"},
		{"0weird", "_0weird"},
		{"", ""},
	} {
		if got := prom.Name(tc.in); got != tc.want {
			t.Errorf("Name(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestWriteCounterAlreadyTotal(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("run.cells_done_total").Add(3)
	var buf bytes.Buffer
	if err := prom.Write(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "_total_total") {
		t.Errorf("doubled _total suffix:\n%s", buf.String())
	}
}
