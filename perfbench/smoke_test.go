package main

import (
	"io"
	"testing"

	"jumanji/internal/core"
	"jumanji/internal/driver"
)

// passDigests sets a smoke-sized workload up, runs one pass and returns
// its digests, failing on any failed op.
func passDigests(t *testing.T, name string, workers int, traced bool) []string {
	t.Helper()
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	p, _, err := workloads[name](env{seed: 3, workers: workers, dir: t.TempDir(), smoke: true}, tr)
	if err != nil {
		t.Fatal(err)
	}
	ops := p.run(tr, noSpan)
	if err := p.close(); err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		if op.err != nil {
			t.Fatalf("%s op %d: %v", name, i, op.err)
		}
		if op.digest == "" || op.latency <= 0 {
			t.Fatalf("%s op %d: digest %q latency %v", name, i, op.digest, op.latency)
		}
	}
	return digestsOf(ops)
}

func TestDigestsAgreeAcrossModes(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			want := passDigests(t, name, 2, false)
			for _, mode := range []struct {
				workers int
				traced  bool
			}{{2, true}, {1, false}} {
				got := passDigests(t, name, mode.workers, mode.traced)
				if len(got) != len(want) {
					t.Fatalf("workers=%d traced=%v: %d ops, want %d", mode.workers, mode.traced, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("workers=%d traced=%v: op %d digest %s, want %s",
							mode.workers, mode.traced, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// layerWant lists, per workload, per-layer metrics its traced run must
// measure as positive: the layers the workload exists to exercise.
var layerWant = map[string][]string{
	"fig13":    {"core.place.calls", "core.place_us.jumanji", "system.run.calls", "system.self_s", "cell.count", "pool.busy_frac", "setup.gen_s"},
	"fig19":    {"core.place.calls", "core.place_us.jigsaw", "system.run.calls", "system.self_s", "cell.count", "pool.busy_frac", "runtime.alloc_mb"},
	"serve":    {"serve.admit_ms.p50", "serve.dedupe_ms.p50", "serve.run_ms.p50", "serve.fetch_ms.p50", "serve.cached_ms.p50", "serve.dedupe_frac"},
	"validate": {"core.place.calls", "driver.cold_epoch_ms", "driver.epoch_ms", "driver.replay_s", "driver.accesses_per_s"},
}

func TestSmokeRuns(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			o := options{workload: name, seed: 1, seconds: 0.1, trace: traced, workers: 2, dir: t.TempDir(), smoke: true}
			res, err := runBench(o, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			cat, positive := endToEnd, []string{}
			if traced {
				cat, positive = perLayer, layerWant[name]
			} else {
				for _, d := range endToEnd {
					positive = append(positive, d.name)
				}
			}
			if len(res.Metrics) != len(cat) {
				t.Fatalf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(cat))
			}
			for _, d := range cat {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Fatalf("%s traced=%v: metric %s = %+v", name, traced, d.name, m)
				}
			}
			for _, m := range positive {
				if !(res.Metrics[m].Value > 0) {
					t.Errorf("%s traced=%v: %s = %g, want > 0", name, traced, m, res.Metrics[m].Value)
				}
			}
			if traced && name == "serve" && res.Metrics["serve.dedupe_frac"].Value != 0.5 {
				t.Errorf("serve: dedupe_frac = %g, want 0.5 (one repeat per fresh spec)", res.Metrics["serve.dedupe_frac"].Value)
			}
		}
	}
}

// The validate workload reseeds StandardValidationConfig's generators; at
// seed 1 it must replay exactly the addresses cmd/validate replays.
func TestValidationConfigSeedOneIsStandard(t *testing.T) {
	std := driver.StandardValidationConfig(core.JumanjiPlacer{})
	ours, err := validationConfig(core.JumanjiPlacer{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range std.Apps {
		for k := 0; k < 20000; k++ {
			if a, b := std.Apps[i].Gen.Next(), ours.Apps[i].Gen.Next(); a != b {
				t.Fatalf("%s access %d: %#x, want %#x", std.Apps[i].Name, k, b, a)
			}
		}
	}
	other, err := validationConfig(core.JumanjiPlacer{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for k := 0; k < 1000; k++ {
		if other.Apps[0].Gen.Next() == ours.Apps[0].Gen.Next() {
			same++
		}
	}
	if same == 1000 {
		t.Fatal("seed 2 replays seed 1's working-set addresses")
	}
}
