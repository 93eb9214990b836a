package jumanji

// One benchmark per table and figure of the paper's evaluation. Each
// benchmark regenerates its experiment end to end through the same harness
// cmd/figures uses, at a reduced protocol scale so `go test -bench=.`
// completes in minutes; run `cmd/figures -paper` for the 40-mix protocol.
// Custom metrics surface the headline quantity of each experiment so the
// benchmark output doubles as a results table (see EXPERIMENTS.md).

import (
	"io"
	"math/rand"
	"testing"

	"jumanji/internal/core"
	"jumanji/internal/harness"
	"jumanji/internal/obs"
	"jumanji/internal/obs/tsdb"
	"jumanji/internal/system"
)

// must unwraps a figure's result; the benchmarks run without a sweep
// engine, so an error is a bug.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// benchOptions keeps each figure's regeneration to a few seconds.
func benchOptions() harness.Options {
	return harness.Options{Mixes: 2, Epochs: 30, Warmup: 10, Seed: 1}
}

func BenchmarkFig04CaseStudyTimeline(b *testing.B) {
	var lastJigsaw, lastJumanji float64
	for i := 0; i < b.N; i++ {
		r := must(harness.Fig4(benchOptions()))
		for d, name := range r.Designs {
			final := r.LatNorm[d][len(r.LatNorm[d])-1]
			switch name {
			case "Jigsaw":
				lastJigsaw = final
			case "Jumanji":
				lastJumanji = final
			}
		}
	}
	b.ReportMetric(lastJigsaw, "jigsaw-final-lat/ddl")
	b.ReportMetric(lastJumanji, "jumanji-final-lat/ddl")
}

func BenchmarkFig05CaseStudy(b *testing.B) {
	var jumanjiSpeedup float64
	for i := 0; i < b.N; i++ {
		for _, row := range must(harness.Fig5(benchOptions())) {
			if row.Design == "Jumanji" {
				jumanjiSpeedup = row.Speedup
			}
		}
	}
	b.ReportMetric(jumanjiSpeedup, "jumanji-speedup")
}

func BenchmarkFig08TailVsAllocation(b *testing.B) {
	var crossoverMB float64
	for i := 0; i < b.N; i++ {
		crossoverMB = 0
		for _, p := range must(harness.Fig8(benchOptions())) {
			if crossoverMB == 0 && p.NormTailDNUCA <= 1 && p.NormTailSNUCA > 1 {
				crossoverMB = p.AllocMB
			}
		}
	}
	b.ReportMetric(crossoverMB, "dnuca-crossover-MB")
}

func BenchmarkFig09ControllerSensitivity(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		rows := must(harness.Fig9(benchOptions()))
		lo, hi := rows[0].Speedup, rows[0].Speedup
		for _, r := range rows {
			if r.Speedup < lo {
				lo = r.Speedup
			}
			if r.Speedup > hi {
				hi = r.Speedup
			}
		}
		spread = (hi - lo) / lo
	}
	b.ReportMetric(spread*100, "speedup-spread-%")
}

func BenchmarkFig11PortAttack(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		r := harness.Fig11(benchOptions())
		gap = r.Signal.SameBank - r.Signal.OtherBank
	}
	b.ReportMetric(gap, "same-bank-extra-cycles")
}

func BenchmarkFig12PerformanceLeakage(b *testing.B) {
	var snucaSpread, dnucaSpread float64
	for i := 0; i < b.N; i++ {
		o := benchOptions()
		o.Mixes = 4
		r := must(harness.Fig12(o))
		snucaSpread = r.SNUCA[len(r.SNUCA)-1] - r.SNUCA[0]
		dnucaSpread = r.DNUCA[len(r.DNUCA)-1] - r.DNUCA[0]
	}
	b.ReportMetric(snucaSpread, "snuca-tail-spread")
	b.ReportMetric(dnucaSpread, "dnuca-tail-spread")
}

func BenchmarkFig13MainResults(b *testing.B) {
	var jumanjiSpeedup, jigsawWorstTail float64
	for i := 0; i < b.N; i++ {
		res := must(harness.Fig13(benchOptions()))
		for _, row := range res.Rows {
			for _, d := range row {
				switch d.Design {
				case "Jumanji":
					jumanjiSpeedup += d.Speedup.Median
				case "Jigsaw":
					if d.NormTail.Max > jigsawWorstTail {
						jigsawWorstTail = d.NormTail.Max
					}
				}
			}
		}
		jumanjiSpeedup /= float64(len(res.Rows))
	}
	b.ReportMetric(jumanjiSpeedup, "jumanji-mean-speedup")
	b.ReportMetric(jigsawWorstTail, "jigsaw-worst-tail/ddl")
}

func BenchmarkFig14Vulnerability(b *testing.B) {
	var jigsaw, jumanji float64
	for i := 0; i < b.N; i++ {
		for _, row := range must(harness.Fig14(benchOptions())) {
			switch row.Design {
			case "Jigsaw":
				jigsaw = row.Vulnerability
			case "Jumanji":
				jumanji = row.Vulnerability
			}
		}
	}
	b.ReportMetric(jigsaw, "jigsaw-attackers")
	b.ReportMetric(jumanji, "jumanji-attackers")
}

func BenchmarkFig15Energy(b *testing.B) {
	var jumanjiVsStatic float64
	for i := 0; i < b.N; i++ {
		for _, row := range must(harness.Fig15(benchOptions())) {
			if row.Design == "Jumanji" {
				jumanjiVsStatic = row.TotalVsStatic
			}
		}
	}
	b.ReportMetric(jumanjiVsStatic, "jumanji-energy-vs-static")
}

func BenchmarkFig16Variants(b *testing.B) {
	var worstGapToIdeal float64
	for i := 0; i < b.N; i++ {
		o := benchOptions()
		o.Mixes = 1
		worstGapToIdeal = 0
		for _, row := range must(harness.Fig16(o)) {
			if gap := row.IdealBatch - row.Jumanji; gap > worstGapToIdeal {
				worstGapToIdeal = gap
			}
		}
	}
	b.ReportMetric(worstGapToIdeal*100, "worst-gap-to-ideal-%")
}

func BenchmarkFig17VMScaling(b *testing.B) {
	var min, max float64
	for i := 0; i < b.N; i++ {
		rows := must(harness.Fig17(benchOptions()))
		min, max = rows[0].Speedup, rows[0].Speedup
		for _, r := range rows {
			if r.Speedup < min {
				min = r.Speedup
			}
			if r.Speedup > max {
				max = r.Speedup
			}
		}
	}
	b.ReportMetric(min, "min-speedup")
	b.ReportMetric(max, "max-speedup")
}

func BenchmarkFig18NoCSensitivity(b *testing.B) {
	var atOne, atThree float64
	for i := 0; i < b.N; i++ {
		rows := must(harness.Fig18(benchOptions()))
		atOne, atThree = rows[0].Speedup, rows[2].Speedup
	}
	b.ReportMetric(atOne, "speedup-1cy-router")
	b.ReportMetric(atThree, "speedup-3cy-router")
}

func BenchmarkTable1Scorecard(b *testing.B) {
	var jumanjiScore float64
	for i := 0; i < b.N; i++ {
		for _, row := range must(harness.Table1(benchOptions())) {
			if row.Design == "Jumanji" {
				jumanjiScore = 0
				if row.TailLatency {
					jumanjiScore++
				}
				if row.Security {
					jumanjiScore++
				}
				if row.BatchSpeedup {
					jumanjiScore++
				}
			}
		}
	}
	b.ReportMetric(jumanjiScore, "jumanji-score-of-3")
}

// BenchmarkPlacementAlgorithmOverhead measures the wall-clock cost of one
// JumanjiPlacer reconfiguration on the standard 20-application input —
// the §IV-B overhead claim (11.9 Mcycles per 100 ms epoch, 0.22% of system
// cycles on the paper's 20-core 2.66 GHz machine).
func BenchmarkPlacementAlgorithmOverhead(b *testing.B) {
	cfg := system.DefaultConfig()
	rng := rand.New(rand.NewSource(1))
	wl, err := system.CaseStudyWorkload(cfg.Machine, "xapian", rng, true)
	if err != nil {
		b.Fatal(err)
	}
	// One epoch to warm state, then extract a representative input by
	// running the placer inside the benchmark loop on a fresh Input each
	// time (the input construction itself is part of the OS work).
	in := benchInput(cfg, wl)
	placer := core.JumanjiPlacer{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		placer.Place(in)
	}
	b.StopTimer()
	nsPerPlace := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	cycles := nsPerPlace * cfg.FreqHz / 1e9
	overheadPct := cycles / (float64(cfg.Machine.Banks()) * cfg.EpochSeconds * cfg.FreqHz) * 100
	b.ReportMetric(cycles/1e6, "Mcycles/reconfig")
	b.ReportMetric(overheadPct, "overhead-%")
}

// benchInput builds a placer input equivalent to what the runner assembles
// each epoch.
func benchInput(cfg system.Config, wl system.Workload) *core.Input {
	r := system.Run(cfg, wl, core.JumanjiPlacer{}, 3, 1)
	_ = r
	// Reconstruct an input directly from the workload profiles.
	in := &core.Input{Machine: cfg.Machine, LatSizes: map[core.AppID]float64{}}
	unit := cfg.Machine.WayBytes()
	points := cfg.CurvePoints()
	for i, a := range wl.Apps {
		spec := core.AppSpec{VM: a.VM, Core: a.Core, Name: a.Name()}
		if a.Batch != nil {
			spec.MissRatio = a.Batch.MissRatio(unit, points)
			spec.AccessRate = a.Batch.APKI / 1000
		} else {
			spec.MissRatio = a.LatCrit.MissRatio(unit, points)
			spec.AccessRate = a.LatCrit.APKI / 1000 * 0.3
			spec.LatencyCritical = true
			in.LatSizes[core.AppID(i)] = 2 << 20
		}
		in.Apps = append(in.Apps, spec)
	}
	return in
}

// BenchmarkObsOverhead is the observability layer's overhead guard: the
// same case-study run with no sinks (the production default — every
// instrumentation point reduces to a nil check) versus all three sinks
// enabled and writing to io.Discard. Compare ns/op between the sub-
// benchmarks; the disabled case must stay within ~2% of a build without
// instrumentation, and the README's zero-cost claim rests on this number:
//
//	go test -bench=ObsOverhead -count=5 .
func BenchmarkObsOverhead(b *testing.B) {
	setup := func(b *testing.B) (system.Config, system.Workload) {
		b.Helper()
		cfg := system.DefaultConfig()
		rng := rand.New(rand.NewSource(1))
		wl, err := system.CaseStudyWorkload(cfg.Machine, "xapian", rng, true)
		if err != nil {
			b.Fatal(err)
		}
		return cfg, wl
	}
	b.Run("disabled", func(b *testing.B) {
		cfg, wl := setup(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			system.Run(cfg, wl, core.JumanjiPlacer{}, 30, 10)
		}
	})
	b.Run("enabled", func(b *testing.B) {
		cfg, wl := setup(b)
		cfg.Metrics = obs.NewRegistry()
		cfg.Events = obs.NewEventLog(io.Discard)
		cfg.Trace = obs.NewTrace(io.Discard)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			system.Run(cfg, wl, core.JumanjiPlacer{}, 30, 10)
		}
	})
	// The flight recorder on top of metrics: one registry sample per epoch
	// (counter deltas, gauge reads, three histogram quantiles) into the
	// ring store. Steady-state sampling allocates nothing
	// (TestAllocGuardRecorder); this bounds its time cost per epoch.
	b.Run("recorder", func(b *testing.B) {
		cfg, wl := setup(b)
		cfg.Metrics = obs.NewRegistry()
		cfg.TS = tsdb.New(tsdb.DefaultCapacity)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			system.Run(cfg, wl, core.JumanjiPlacer{}, 30, 10)
		}
	})
	// The span timer pair: all three sinks on with cfg.Spans left nil (the
	// default even when sinks are enabled — -spans is its own flag) versus
	// spans collecting. The nil case pins that the Start/Stop call sites
	// added to the runner cost one pointer check; the enabled case bounds
	// what -status/-spans adds on top: two clock reads and one locked
	// histogram observe per phase, amortized over a 100 ms-modeled epoch.
	b.Run("spans-disabled", func(b *testing.B) {
		cfg, wl := setup(b)
		cfg.Metrics = obs.NewRegistry()
		cfg.Events = obs.NewEventLog(io.Discard)
		cfg.Trace = obs.NewTrace(io.Discard)
		cfg.Spans = nil
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			system.Run(cfg, wl, core.JumanjiPlacer{}, 30, 10)
		}
	})
	b.Run("spans-enabled", func(b *testing.B) {
		cfg, wl := setup(b)
		cfg.Metrics = obs.NewRegistry()
		cfg.Events = obs.NewEventLog(io.Discard)
		cfg.Trace = obs.NewTrace(io.Discard)
		cfg.Spans = obs.NewSpans()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			system.Run(cfg, wl, core.JumanjiPlacer{}, 30, 10)
		}
	})
	// The provenance sink (fifth sink, schema v3): disabled is the
	// production default — every instrumentation point in the placers is
	// behind one nil-receiver Enabled() check, so this case must match
	// "disabled" in both time and allocations (TestAllocGuardProvenance
	// pins the allocation half). Enabled records one placement_decision
	// per placed VM/app per reconfiguration, with candidate lists and
	// elimination reasons, into io.Discard; this bounds what -provenance
	// costs on top of a bare run.
	b.Run("provenance-disabled", func(b *testing.B) {
		cfg, wl := setup(b)
		cfg.Prov = nil
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			system.Run(cfg, wl, core.JumanjiPlacer{}, 30, 10)
		}
	})
	b.Run("provenance-enabled", func(b *testing.B) {
		cfg, wl := setup(b)
		cfg.Prov = obs.NewEventLog(io.Discard)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			system.Run(cfg, wl, core.JumanjiPlacer{}, 30, 10)
		}
	})
}

// BenchmarkFiguresParallel is the experiment engine's scaling benchmark: the
// same Fig. 13 regeneration (the full mix×design product) run serially and
// fanned across every CPU. The rendered output is byte-identical either way
// (TestParallelEquivalence); only wall clock changes. Compare ns/op of the
// two sub-benchmarks — the engine's acceptance bar is >=2x on 4 cores:
//
//	go test -bench=FiguresParallel -count=3 .
func BenchmarkFiguresParallel(b *testing.B) {
	run := func(workers int) func(*testing.B) {
		return func(b *testing.B) {
			o := benchOptions()
			o.Mixes = 4
			o.Parallel = workers
			for i := 0; i < b.N; i++ {
				must(harness.Fig13(o))
			}
		}
	}
	b.Run("serial", run(1))
	b.Run("parallel", run(0))
}
