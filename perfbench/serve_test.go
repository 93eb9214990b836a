package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestClientPlanRepeatsOnlyFinishedSpecs(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 55} {
		plan := clientPlan(n)
		if len(plan) != 2*n {
			t.Fatalf("n=%d: plan has %d steps, want %d", n, len(plan), 2*n)
		}
		// A closed-loop client sends a step only after every earlier step's
		// result arrived, so "finished" means "fresh earlier in the plan".
		finished := map[int]bool{}
		repeated := map[int]bool{}
		for j, st := range plan {
			if st.fresh {
				if finished[st.idx] {
					t.Fatalf("n=%d step %d: fresh spec %d sent twice", n, j, st.idx)
				}
				finished[st.idx] = true
				continue
			}
			if !finished[st.idx] {
				t.Fatalf("n=%d step %d: repeat of spec %d before it finished", n, j, st.idx)
			}
			if repeated[st.idx] {
				t.Fatalf("n=%d step %d: spec %d repeated twice", n, j, st.idx)
			}
			repeated[st.idx] = true
		}
		if len(finished) != n || len(repeated) != n {
			t.Fatalf("n=%d: %d fresh and %d repeated specs, want %d each", n, len(finished), len(repeated), n)
		}
	}
}

func TestFreshSpecsAreDistinctAndUniform(t *testing.T) {
	size := serveSizeFor(false)
	seen := map[int64]bool{}
	for c := range clientNames {
		for k := 0; k < size.perClient; k++ {
			sp := freshSpec(1, c, k, size)
			if sp.Seed <= 0 || seen[sp.Seed] {
				t.Fatalf("client %d spec %d: seed %d is not a fresh positive seed", c, k, sp.Seed)
			}
			seen[sp.Seed] = true
			base := freshSpec(1, 0, 0, size)
			sp.Seed, sp.Client, base.Seed, base.Client = 0, "", 0, ""
			if sp != base {
				t.Fatalf("client %d spec %d differs from the others beyond its seed: %+v", c, k, sp)
			}
		}
	}
}

// metricsPass is a servePass whose daemon is a stub answering /metrics
// with body.
func metricsPass(t *testing.T, body string) *servePass {
	t.Helper()
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, body)
	}))
	t.Cleanup(stub.Close)
	return &servePass{base: stub.URL, hc: stub.Client()}
}

func TestServerMetricsMustMatchWhatClientsSaw(t *testing.T) {
	const full = "# TYPE serve_admitted_total counter\nserve_admitted_total 3\nserve_deduped_total 3\n"
	cases := []struct {
		name, body string
		retries    int64
		ok         bool
	}{
		{"complete", full, 0, true},
		{"no deduped counter", "serve_admitted_total 3\n", 0, false},
		{"renamed admitted counter", "serve_accepted_total 3\nserve_deduped_total 3\n", 0, false},
		{"deduped count differs", "serve_admitted_total 3\nserve_deduped_total 2\n", 0, false},
		// The daemon lists a counter from its first increment on.
		{"retry seen, counter missing", full, 1, false},
		{"retry seen and counted", full + "serve_retried_total 1\n", 1, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := metricsPass(t, c.body)
			p.seen.admitted.Store(3)
			p.seen.deduped.Store(3)
			p.seen.retries.Store(c.retries)
			tr := newTracer()
			err := p.countServerMetrics(tr)
			if (err == nil) != c.ok {
				t.Fatalf("countServerMetrics = %v, want ok=%v", err, c.ok)
			}
			if c.ok && (tr.counters["serve.submitted"] != 6 || tr.counters["serve.deduped"] != 3 || tr.counters["serve.retried"] != c.retries) {
				t.Fatalf("counters = %v", tr.counters)
			}
		})
	}
}
