package main

import (
	"strings"
	"time"

	"jumanji/internal/stats"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// catalogs; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what an untraced run prints: what a user of the simulator
// or of the service waits for, in host time.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"latency_p50_ms", "ms", "lower"},
}

// perLayer is what a traced run prints. A metric of a layer the workload
// does not exercise reads 0. latency_p90_ms is the untraced pass's: on a
// host whose speed drifts, a tail percentile moves too much to gate on.
var perLayer = []metricDef{
	{"core.place.calls", "count", "lower"},
	{"core.place_s", "s", "lower"},
	{"core.place_us.p50", "us", "lower"},
	{"core.place_us.p99", "us", "lower"},
	{"core.place_us.static", "us", "lower"},
	{"core.place_us.adaptive", "us", "lower"},
	{"core.place_us.vm-part", "us", "lower"},
	{"core.place_us.jigsaw", "us", "lower"},
	{"core.place_us.jumanji", "us", "lower"},
	{"core.place.repeat_frac", "ratio", "higher"},
	{"system.run.calls", "count", "lower"},
	{"system.self_s", "s", "lower"},
	{"system.self_us_per_epoch", "us", "lower"},
	{"cell.count", "count", "lower"},
	{"cell.p50_s", "s", "lower"},
	{"cell.max_s", "s", "lower"},
	{"pool.busy_frac", "ratio", "higher"},
	{"pool.idle_s", "s", "lower"},
	{"runtime.alloc_mb", "MiB", "lower"},
	{"runtime.gc_cpu_s", "s", "lower"},
	{"setup.gen_s", "s", "lower"},
	{"serve.admit_ms.p50", "ms", "lower"},
	{"serve.admit_ms.p90", "ms", "lower"},
	{"serve.dedupe_ms.p50", "ms", "lower"},
	{"serve.queue_ms.p50", "ms", "lower"},
	{"serve.queue_ms.p90", "ms", "lower"},
	{"serve.run_ms.p50", "ms", "lower"},
	{"serve.run_ms.p90", "ms", "lower"},
	{"serve.unsplit", "count", "lower"},
	{"serve.fetch_ms.p50", "ms", "lower"},
	{"serve.cached_ms.p50", "ms", "lower"},
	{"serve.cached_ms.p90", "ms", "lower"},
	{"serve.cached.samples", "count", "higher"},
	{"serve.dedupe_frac", "ratio", "higher"},
	{"serve.rejected", "count", "lower"},
	{"serve.retried", "count", "lower"},
	{"driver.epoch_ms", "ms", "lower"},
	{"driver.cold_epoch_ms", "ms", "lower"},
	{"driver.replay_s", "s", "lower"},
	{"driver.accesses_per_s", "1/s", "higher"},
	{"driver.invalidated", "count", "lower"},
	{"driver.place_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"latency.samples", "count", "higher"},
	{"trace.unattributed_s", "s", "lower"},
	{"trace.overhead_s", "s", "lower"},
}

// containers are the spans that only group others: a pass, a cell, a
// client loop, one request, one driver. Their self time is the benchmark's
// unattributed remainder — time inside a measured op that no layer claims.
var containers = map[string]bool{
	"pass": true, "cell": true, "client": true, "request": true, "driver": true,
}

// layerInput is everything the per-layer metrics derive from.
type layerInput struct {
	spans    []span
	counters map[string]int64
	workers  int
	wall     time.Duration // traced pass
	plain    passStats     // untraced pass
}

// layerMetrics computes the per-layer catalog from a traced pass, but for
// setup.gen_s, which the runner takes from its set-up samples.
func layerMetrics(in layerInput) map[string]float64 {
	self := selfTimes(in.spans)
	durs := map[string][]float64{}     // seconds, by span name
	byDetail := map[string][]float64{} // seconds, by name+"/"+detail
	selfSum := map[string]float64{}    // seconds, by span name
	unattributed := 0.0
	for i, s := range in.spans {
		d := float64(s.dur()) / 1e9
		durs[s.Name] = append(durs[s.Name], d)
		byDetail[s.Name+"/"+s.Detail] = append(byDetail[s.Name+"/"+s.Detail], d)
		selfSum[s.Name] += float64(self[i]) / 1e9
		if containers[s.Name] {
			unattributed += float64(self[i]) / 1e9
		}
	}
	c := func(name string) float64 { return float64(in.counters[name]) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	ms := func(name string, q float64) float64 { return quantile(durs[name], q) * 1e3 }

	m := map[string]float64{}
	place := durs["core.place"]
	m["core.place.calls"] = float64(len(place))
	m["core.place_s"] = sum(place)
	m["core.place_us.p50"] = quantile(place, 0.5) * 1e6
	m["core.place_us.p99"] = quantile(place, 0.99) * 1e6
	for _, d := range []string{"Static", "Adaptive", "VM-Part", "Jigsaw", "Jumanji"} {
		m["core.place_us."+strings.ToLower(d)] = stats.Mean(byDetail["core.place/"+d]) * 1e6
	}
	m["core.place.repeat_frac"] = ratio(c("core.place.repeats"), float64(len(place)))

	runs := durs["system.run"]
	m["system.run.calls"] = float64(len(runs))
	m["system.self_s"] = selfSum["system.run"]
	m["system.self_us_per_epoch"] = ratio(selfSum["system.run"], c("system.epochs")) * 1e6

	cells := durs["cell"]
	m["cell.count"] = float64(len(cells))
	m["cell.p50_s"] = quantile(cells, 0.5)
	m["cell.max_s"] = quantile(cells, 1)
	if len(cells) > 0 {
		capacity := in.wall.Seconds() * float64(in.workers)
		m["pool.busy_frac"] = ratio(sum(cells), capacity)
		m["pool.idle_s"] = capacity - sum(cells)
	}

	m["runtime.alloc_mb"] = float64(in.plain.allocBytes) / (1 << 20)
	m["runtime.gc_cpu_s"] = in.plain.gcCPU

	m["serve.admit_ms.p50"] = ms("serve.admit", 0.5)
	m["serve.admit_ms.p90"] = ms("serve.admit", 0.9)
	m["serve.dedupe_ms.p50"] = ms("serve.dedupe", 0.5)
	m["serve.queue_ms.p50"] = ms("serve.queue", 0.5)
	m["serve.queue_ms.p90"] = ms("serve.queue", 0.9)
	m["serve.run_ms.p50"] = ms("serve.run", 0.5)
	m["serve.run_ms.p90"] = ms("serve.run", 0.9)
	m["serve.unsplit"] = c("serve.unsplit")
	m["serve.fetch_ms.p50"] = ms("serve.fetch", 0.5)
	var fresh, cached []float64
	for _, op := range in.plain.ops {
		l := float64(op.latency) / 1e6
		if op.cached {
			cached = append(cached, l)
		} else {
			fresh = append(fresh, l)
		}
	}
	if len(cached) > 0 {
		m["serve.cached_ms.p50"] = quantile(cached, 0.5)
		m["serve.cached_ms.p90"] = quantile(cached, 0.9)
		m["serve.cached.samples"] = float64(len(cached))
	}
	// The serve plan sends one repeat per fresh spec, so the daemon's
	// dedupe share is the plan's fixed input read back, not a property
	// measured on recorded traffic.
	m["serve.dedupe_frac"] = ratio(c("serve.deduped"), c("serve.submitted"))
	m["serve.rejected"] = c("serve.rejected")
	m["serve.retried"] = c("serve.retried")

	if epochs := durs["driver.epoch"]; len(epochs) > 0 {
		m["driver.epoch_ms"] = stats.Mean(byDetail["driver.epoch/warm"]) * 1e3
		m["driver.cold_epoch_ms"] = stats.Mean(byDetail["driver.epoch/cold"]) * 1e3
		m["driver.replay_s"] = selfSum["driver.epoch"]
		m["driver.accesses_per_s"] = ratio(c("driver.accesses"), selfSum["driver.epoch"])
		m["driver.invalidated"] = c("driver.invalidated")
		m["driver.place_ms"] = stats.Mean(place) * 1e3
	}

	m["latency_p90_ms"] = quantile(fresh, 0.9)
	m["latency.samples"] = float64(len(fresh))
	m["trace.unattributed_s"] = unattributed
	m["trace.overhead_s"] = in.wall.Seconds() - in.plain.wall.Seconds()
	return m
}
