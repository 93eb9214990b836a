package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, cat := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range cat {
			if !nameRE.MatchString(d.name) {
				t.Errorf("metric name %q does not match %s", d.name, nameRE)
			}
			if !unitRE.MatchString(d.unit) {
				t.Errorf("metric %s: unit %q does not match %s", d.name, d.unit, unitRE)
			}
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("metric %s: better = %q", d.name, d.better)
			}
			if seen[d.name] {
				t.Errorf("metric %s listed twice", d.name)
			}
			seen[d.name] = true
		}
	}
	for name := range workloads {
		if !nameRE.MatchString(name) {
			t.Errorf("workload name %q does not match %s", name, nameRE)
		}
	}
}

// benchmarkDoc is the part of the repository's BENCHMARK.json the
// benchmark's code must agree with.
type benchmarkDoc struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCatalogs(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s has no code", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1 to 200", w.Name, len(w.Why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d/%d metrics, the code %d/%d",
			len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		m := doc.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("end_to_end[%d] = %+v, code has %+v", i, m, d)
		}
	}
	for i, d := range perLayer {
		m := doc.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, m, d)
		}
	}
}

func TestBaselineRecordsDefaultAndHeldOutSeeds(t *testing.T) {
	b, err := loadBaseline()
	if err != nil {
		t.Fatal(err)
	}
	if b.Seeds.Default == b.Seeds.HeldOut {
		t.Fatalf("default and held-out seed are both %d", b.Seeds.Default)
	}
	for _, key := range []string{"nproc", "gomaxprocs", "cpu", "go"} {
		if _, ok := b.Host[key]; !ok {
			t.Errorf("baseline host shape lacks %q", key)
		}
	}
	if b.Traffic == "" {
		t.Error("baseline does not say where serve traffic comes from")
	}
	for name := range workloads {
		for _, seed := range []int64{b.Seeds.Default, b.Seeds.HeldOut} {
			ds, ok := b.Digests[name][fmt.Sprint(seed)]
			if !ok || len(ds) == 0 {
				t.Errorf("no digests recorded for %s seed %d", name, seed)
			}
		}
	}
}

func TestMemSamplerSeesLiveAllocation(t *testing.T) {
	const size = 64 << 20
	m := startMemSampler()
	buf := make([]byte, size)
	for i := range buf {
		buf[i] = 1 // touch every page, so it is resident
	}
	time.Sleep(20 * time.Millisecond) // several sampling periods
	peak := m.done()
	runtime.KeepAlive(buf)
	if peak < size {
		t.Fatalf("peak %d bytes with %d bytes live", peak, size)
	}
}
