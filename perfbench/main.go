// Command perfbench is the repository's benchmark. It runs one workload
// through the public functions of the simulator's layers, checks every
// simulated statistic it produces, and prints host-time metrics:
//
//	bash perfbench/run.sh --workload fig19 --seed 1 --seconds 30 --trace 0
//
// Workloads (sized in grid.go, serve.go and validate.go):
//
//	fig13     Fig. 13's cell grid on the paper's 5×4 machine (flat placers)
//	fig19     Fig. 19's fleet grid, 6×6 to 16×16 meshes (sharded placers)
//	serve     jumanji-serve in process, driven by a closed loop of clients
//	validate  cmd/validate's detailed trace-driven simulation
//
// A run repeats "passes" — set up the workload's inputs, then run all of
// its ops once — until --seconds is used up. --trace 0 prints the
// end-to-end metrics, all measured on the host with tracing off: setup_s,
// the median of 50 set-ups timed back to back before and after the passes;
// wall_s, the median pass; peak_rss_mb, the median over passes of the
// pass's peak resident memory (see memSampler); and latency_p50_ms over
// the ops of every pass, an op being a cell (fig13, fig19), a fresh spec
// from POST to result body (serve) or one RunEpoch (validate). --trace 1
// runs one untraced and one traced pass of the same ops and prints the
// per-layer metrics: the traced pass records spans around every call the
// benchmark makes into the program and writes them, one JSON object a
// line, to .bench_build/spans/<workload>-<seed>.jsonl when the run ends.
//
// Every op's simulated outputs are digested. The digests must match across
// passes, between the traced and untraced pass, and against baseline.json
// for the seeds recorded there; a mismatch or a panic fails the op. The
// last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"wall_s":{"value":1.8,"unit":"s"},...}}
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workers  int
	dir      string // scratch directory for files a workload writes
	spans    string // traced runs write their spans here ("" skips)
	record   bool   // print the run's digests in baseline.json's layout
	smoke    bool   // tiny sizes, for the benchmark's own tests
}

// setupSamples is how many times a run sets its workload up (and tears it
// down) back to back, once before its passes and once after them; setup_s
// is the median of both batches.
const setupSamples = 25

// maxPasses bounds the passes of one run when passes are very short.
const maxPasses = 50

func main() {
	o := options{workers: runtime.NumCPU(), dir: ".bench_build"}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 30, "time budget for the measured passes")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced pass")
	flag.IntVar(&o.workers, "workers", o.workers, "goroutines generating load (serve: also experiments in flight)")
	flag.BoolVar(&o.record, "record", false, "print the digests of this seed for baseline.json")
	flag.Parse()
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || o.workers < 1 || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = trace == 1
	o.spans = filepath.Join(o.dir, "spans", fmt.Sprintf("%s-%d.jsonl", o.workload, o.seed))
	res, err := runBench(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env is what a workload's setup receives.
type env struct {
	seed    int64
	workers int
	dir     string
	smoke   bool
}

// setupFunc builds one pass of a workload. Its duration is one setup_s
// sample; gen is the part of it spent in the workload generators
// (system.*Workload). It receives the pass's tracer (nil when untraced)
// because some layers take their placer at construction.
type setupFunc func(e env, tr *tracer) (p pass, gen time.Duration, err error)

// pass is one set-up instance of a workload's ops.
type pass interface {
	// run executes every op once, with the ops' spans under root, and
	// returns the ops' outcomes in a fixed order.
	run(tr *tracer, root int) []opResult
	// close releases what setup acquired.
	close() error
}

// opResult is one op's outcome.
type opResult struct {
	digest  string        // digest of the op's simulated outputs
	latency time.Duration // from issuing the op to receiving its result
	cached  bool          // a serve repeat, answered from the dedupe cache
	err     error         // failed check or recovered panic
}

// protect runs op, turning a panic into a failed result.
func protect(op func() opResult) (r opResult) {
	defer func() {
		if v := recover(); v != nil {
			r = opResult{err: fmt.Errorf("panic: %v", v)}
		}
	}()
	return op()
}

// passStats is what one pass measured.
type passStats struct {
	wall       time.Duration
	ops        []opResult
	peakMem    uint64 // bytes; see memSampler
	allocBytes uint64
	gcCPU      float64
}

// runner accumulates a run's passes and checks.
type runner struct {
	o     options
	setup setupFunc
	log   io.Writer
	want  []string // reference digests: recorded, else the first pass's
	rec   bool     // want came from baseline.json

	setups, gens []time.Duration
	attempted    int
	failed       int
}

func runBench(o options, log io.Writer) (*result, error) {
	setup, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames())
	}
	r := &runner{o: o, setup: setup, log: log}
	if !o.smoke && !o.record {
		b, err := loadBaseline()
		if err != nil {
			return nil, err
		}
		r.want, r.rec = b.Digests[o.workload][fmt.Sprint(o.seed)]
	}
	if err := r.sampleSetups(); err != nil {
		return nil, err
	}
	cat, run := endToEnd, r.untraced
	if o.trace {
		cat, run = perLayer, r.traced
	}
	m, err := run()
	if err != nil {
		return nil, err
	}
	if err := r.sampleSetups(); err != nil {
		return nil, err
	}
	m["setup_s"] = median(seconds(r.setups))
	m["setup.gen_s"] = median(seconds(r.gens))
	fmt.Fprintf(r.log, "perfbench: setup median %.6fs over %d set-ups\n", m["setup_s"], len(r.setups))
	return r.result(cat, m), nil
}

// untraced repeats passes until the time budget is used and measures the
// end-to-end metrics but setup_s.
func (r *runner) untraced() (map[string]float64, error) {
	start := time.Now()
	budget := time.Duration(r.o.seconds * float64(time.Second))
	var walls []time.Duration
	var lat, peaks []float64
	var first []string
	cached := 0
	for i := 0; ; i++ {
		ps, err := r.pass(nil)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			first = digestsOf(ps.ops)
		}
		walls = append(walls, ps.wall)
		peaks = append(peaks, float64(ps.peakMem)/(1<<20))
		for _, op := range ps.ops {
			switch {
			case op.err != nil:
			case op.cached:
				cached++
			default:
				lat = append(lat, float64(op.latency)/1e6)
			}
		}
		if i+1 >= maxPasses || time.Since(start)+ps.wall > budget {
			break
		}
	}
	m := map[string]float64{
		"wall_s":         median(seconds(walls)),
		"peak_rss_mb":    median(peaks),
		"latency_p50_ms": quantile(lat, 0.5),
	}
	fmt.Fprintf(r.log, "perfbench: workload=%s seed=%d workers=%d passes=%d ops=%d ops_failed=%d latency_samples=%d (p90 %.3fms) cached_samples=%d\n",
		r.o.workload, r.o.seed, r.o.workers, len(walls), r.attempted, r.failed, len(lat), quantile(lat, 0.9), cached)
	fmt.Fprintf(r.log, "perfbench: pass walls %v, pass peak memory %.1f MiB, process peak RSS %.1f MiB\n",
		roundAll(walls), peaks, peakRSSMiB())
	r.printDigests(first)
	return m, nil
}

// traced runs the ops once untraced and once traced and measures the
// per-layer metrics but setup.gen_s.
func (r *runner) traced() (map[string]float64, error) {
	plain, err := r.pass(nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	tp, err := r.pass(tr)
	if err != nil {
		return nil, err
	}
	spans, counters, err := tr.snapshot()
	if err != nil {
		return nil, fmt.Errorf("%s traced pass: %w", r.o.workload, err)
	}
	if r.o.spans != "" {
		if err := writeSpans(r.o.spans, spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	m := layerMetrics(layerInput{
		spans: spans, counters: counters,
		workers: r.o.workers,
		wall:    tp.wall,
		plain:   plain,
	})
	fmt.Fprintf(r.log, "perfbench: workload=%s seed=%d workers=%d traced ops=%d ops_failed=%d spans=%d (%s)\n",
		r.o.workload, r.o.seed, r.o.workers, r.attempted, r.failed, len(spans), r.o.spans)
	fmt.Fprintf(r.log, "perfbench: untraced wall %.4fs, traced wall %.4fs, tracing overhead %.4fs, unattributed %.4fs\n",
		plain.wall.Seconds(), tp.wall.Seconds(), m["trace.overhead_s"], m["trace.unattributed_s"])
	r.printDigests(digestsOf(plain.ops))
	return m, nil
}

// pass sets the workload up, runs its ops once, tears it down, and checks
// the ops' digests.
func (r *runner) pass(tr *tracer) (passStats, error) {
	var ps passStats
	// Each pass starts from a collected heap whose free pages went back to
	// the OS, as a fresh process would: the previous pass's garbage neither
	// raises this pass's resident peak nor bills its collection to it.
	debug.FreeOSMemory()
	p, _, err := r.setup(r.env(), tr)
	if err != nil {
		return ps, fmt.Errorf("%s setup: %w", r.o.workload, err)
	}
	mem := startMemSampler()
	before := readRuntime()
	root := tr.begin("pass", r.o.workload, noSpan, noSpan)
	t1 := time.Now()
	ps.ops = p.run(tr, root)
	ps.wall = time.Since(t1)
	tr.end(root)
	after := readRuntime()
	ps.peakMem = mem.done()
	ps.allocBytes = after.allocBytes - before.allocBytes
	ps.gcCPU = after.gcCPU - before.gcCPU

	if err := p.close(); err != nil {
		return ps, fmt.Errorf("%s teardown: %w", r.o.workload, err)
	}
	r.check(ps.ops)
	return ps, nil
}

// check counts the ops and fails those whose digest differs from the
// reference. The first pass of a seed without recorded digests becomes the
// reference for the passes after it.
func (r *runner) check(ops []opResult) {
	if r.want == nil {
		r.want = digestsOf(ops)
	}
	for i := range ops {
		op := &ops[i]
		if op.err == nil {
			switch {
			case i >= len(r.want):
				op.err = fmt.Errorf("op %d has no reference digest (%d recorded)", i, len(r.want))
			case op.digest != r.want[i]:
				op.err = fmt.Errorf("digest %s, want %s", op.digest, r.want[i])
			}
		}
		r.attempted++
		if op.err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s op %d failed: %v\n", r.o.workload, i, op.err)
		}
	}
	if len(ops) != len(r.want) {
		r.attempted++
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s pass ran %d ops, want %d\n", r.o.workload, len(ops), len(r.want))
	}
}

func (r *runner) env() env {
	return env{seed: r.o.seed, workers: r.o.workers, dir: r.o.dir, smoke: r.o.smoke}
}

// sampleSetups sets the workload up and tears it down setupSamples times
// in a row, timing each setup. Each starts from a collected heap, as the
// set-up at process start does, so garbage from the previous sample does
// not bill its collection to the next.
func (r *runner) sampleSetups() error {
	for i := 0; i < setupSamples; i++ {
		runtime.GC()
		t0 := time.Now()
		p, gen, err := r.setup(r.env(), nil)
		d := time.Since(t0)
		if err != nil {
			return fmt.Errorf("%s setup: %w", r.o.workload, err)
		}
		r.setups, r.gens = append(r.setups, d), append(r.gens, gen)
		if err := p.close(); err != nil {
			return fmt.Errorf("%s teardown: %w", r.o.workload, err)
		}
	}
	return nil
}

// result assembles the printed object from the metrics of one catalog.
func (r *runner) result(cat []metricDef, values map[string]float64) *result {
	res := &result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(cat)),
	}
	for _, d := range cat {
		v := values[d.name]
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(r.log, "  %-28s %14.6g %s\n", d.name, v, d.unit)
	}
	return res
}

func (r *runner) printDigests(ds []string) {
	if !r.o.record {
		if r.rec {
			fmt.Fprintf(r.log, "perfbench: digests checked against baseline.json for seed %d\n", r.o.seed)
		}
		return
	}
	b, _ := json.Marshal(map[string]map[string][]string{r.o.workload: {fmt.Sprint(r.o.seed): ds}})
	fmt.Fprintf(r.log, "perfbench: record %s\n", b)
}

func roundAll(ds []time.Duration) []time.Duration {
	out := make([]time.Duration, len(ds))
	for i, d := range ds {
		out[i] = d.Round(time.Millisecond)
	}
	return out
}

func digestsOf(ops []opResult) []string {
	out := make([]string, len(ops))
	for i, op := range ops {
		out[i] = op.digest
	}
	return out
}

// runtimeSample is a point reading of the Go runtime's counters.
type runtimeSample struct {
	allocBytes uint64
	gcCPU      float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	var out runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[1].Value.Float64()
	}
	return out
}

// memSampler tracks the peak of the Go runtime's resident memory — all it
// has mapped minus what it has returned to the OS — read from
// runtime/metrics every millisecond. That is the process's resident set
// but for its fixed binary image. Unlike getrusage's peak RSS, which is one
// maximum over the whole process, it yields a peak per pass, whose median
// is steadier than the maximum of all passes.
type memSampler struct {
	stop chan struct{}
	peak chan uint64
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), peak: make(chan uint64)}
	go func() {
		s := []metrics.Sample{
			{Name: "/memory/classes/total:bytes"},
			{Name: "/memory/classes/heap/released:bytes"},
		}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64()-s[1].Value.Uint64())
			select {
			case <-m.stop:
				m.peak <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// done stops the sampler and returns its peak in bytes once it has exited.
func (m *memSampler) done() uint64 {
	close(m.stop)
	return <-m.peak
}

// peakRSSMiB is the process's peak resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

//go:embed baseline.json
var baselineJSON []byte

// baselineDoc is baseline.json: the host the baseline was recorded on and
// the per-op digests of the default and held-out seeds.
type baselineDoc struct {
	Host  map[string]any `json:"host"`
	Seeds struct {
		Default int64 `json:"default"`
		HeldOut int64 `json:"held_out"`
	} `json:"seeds"`
	Traffic string                         `json:"traffic"`
	Digests map[string]map[string][]string `json:"digests"`
}

func loadBaseline() (baselineDoc, error) {
	var b baselineDoc
	if err := json.Unmarshal(baselineJSON, &b); err != nil {
		return b, fmt.Errorf("baseline.json: %w", err)
	}
	return b, nil
}

// workloads are the benchmark's workloads by name. BENCHMARK.json lists
// them, and why each is there.
var workloads = map[string]setupFunc{
	"fig13":    gridSetup(fig13Spec),
	"fig19":    gridSetup(fig19Spec),
	"serve":    setupServe,
	"validate": setupValidate,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
