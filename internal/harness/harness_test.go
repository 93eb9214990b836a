package harness

import (
	"bytes"
	"strings"
	"testing"
)

// must unwraps a figure's result; these tests run without a sweep engine,
// so an error is a bug.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// tinyOptions keeps every figure's test under a second or two.
func tinyOptions() Options {
	return Options{Mixes: 2, Epochs: 24, Warmup: 8, Seed: 1}
}

func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{Mixes: 0, Epochs: 10, Warmup: 1},
		{Mixes: 1, Epochs: 0, Warmup: 0},
		{Mixes: 1, Epochs: 10, Warmup: 10},
	}
	for i, o := range bad {
		if o.validate() == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestFig4ShapesAndStory(t *testing.T) {
	r := must(Fig4(tinyOptions()))
	if len(r.Designs) != 4 {
		t.Fatalf("designs = %v", r.Designs)
	}
	for d := range r.Designs {
		if len(r.LatNorm[d]) != tinyOptions().Epochs {
			t.Fatalf("series length %d", len(r.LatNorm[d]))
		}
	}
	// Jumanji's vulnerability is zero in every epoch; S-NUCAs are 15.
	for d, name := range r.Designs {
		for e, v := range r.Vuln[d] {
			switch name {
			case "Jumanji":
				if v != 0 {
					t.Errorf("Jumanji vulnerability %v at epoch %d", v, e)
				}
			case "Adaptive", "VM-Part":
				if v < 14 {
					t.Errorf("%s vulnerability %v at epoch %d, want ~15", name, v, e)
				}
			}
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Fig. 4") {
		t.Error("render missing banner")
	}
}

func TestFig5Story(t *testing.T) {
	rows := must(Fig5(tinyOptions()))
	byName := map[string]Fig5Row{}
	for _, r := range rows {
		byName[r.Design] = r
	}
	if byName["Jigsaw"].WorstNormTail < 2 {
		t.Errorf("Jigsaw tail %.2f, want violation", byName["Jigsaw"].WorstNormTail)
	}
	if byName["Jumanji"].WorstNormTail > 1.3 {
		t.Errorf("Jumanji tail %.2f", byName["Jumanji"].WorstNormTail)
	}
	if byName["Jumanji"].Speedup < byName["Adaptive"].Speedup {
		t.Error("Jumanji should beat Adaptive on batch speedup")
	}
	var buf bytes.Buffer
	RenderFig5(&buf, rows)
	if !strings.Contains(buf.String(), "Jumanji") {
		t.Error("render missing rows")
	}
}

func TestFig8Crossover(t *testing.T) {
	o := tinyOptions()
	o.Epochs, o.Warmup = 40, 10
	pts := must(Fig8(o))
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	// Find an allocation where D-NUCA meets the deadline and S-NUCA does
	// not — Fig. 8's headline gap.
	found := false
	for _, p := range pts {
		if p.NormTailDNUCA <= 1 && p.NormTailSNUCA > 1 {
			found = true
		}
	}
	if !found {
		t.Error("no crossover allocation found")
	}
	var buf bytes.Buffer
	RenderFig8(&buf, pts)
	if !strings.Contains(buf.String(), "alloc MB") {
		t.Error("render missing header")
	}
}

func TestFig9Insensitive(t *testing.T) {
	rows := must(Fig9(tinyOptions()))
	if len(rows) != 9 {
		t.Fatalf("%d rows", len(rows))
	}
	lo, hi := rows[0].Speedup, rows[0].Speedup
	for _, r := range rows {
		if r.Speedup < lo {
			lo = r.Speedup
		}
		if r.Speedup > hi {
			hi = r.Speedup
		}
	}
	if (hi-lo)/lo > 0.15 {
		t.Errorf("controller parameters change speedup by %.0f%%, want small", (hi-lo)/lo*100)
	}
	var buf bytes.Buffer
	RenderFig9(&buf, rows)
	if !strings.Contains(buf.String(), "band 0.85-0.95 *") {
		t.Error("render missing default marker")
	}
}

func TestFig11PortAttackSignal(t *testing.T) {
	r := Fig11(tinyOptions())
	if r.Signal.SameBank <= r.Signal.OtherBank || r.Signal.OtherBank <= r.Signal.Idle {
		t.Errorf("signal out of order: %+v", r.Signal)
	}
	if r.Banks != 20 {
		t.Errorf("banks = %d", r.Banks)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "port attack") {
		t.Error("render missing caption")
	}
}

func TestFig12LeakageShape(t *testing.T) {
	o := tinyOptions()
	o.Mixes = 4
	r := must(Fig12(o))
	if len(r.SNUCA) != 4 || len(r.DNUCA) != 4 {
		t.Fatal("wrong mix count")
	}
	// D-NUCA is stable and at least as good: its spread should be smaller
	// and its worst mix no worse than S-NUCA's worst.
	spread := func(xs []float64) float64 { return xs[len(xs)-1] - xs[0] }
	if spread(r.DNUCA) > spread(r.SNUCA) {
		t.Errorf("D-NUCA spread %.3f exceeds S-NUCA %.3f", spread(r.DNUCA), spread(r.SNUCA))
	}
	if r.DNUCA[len(r.DNUCA)-1] > r.SNUCA[len(r.SNUCA)-1] {
		t.Error("D-NUCA worst mix should not exceed S-NUCA worst mix")
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "img-dnn") {
		t.Error("render missing caption")
	}
}

func TestFig14Vulnerability(t *testing.T) {
	rows := must(Fig14(tinyOptions()))
	byName := map[string]float64{}
	for _, r := range rows {
		byName[r.Design] = r.Vulnerability
	}
	if byName["Adaptive"] < 14 || byName["VM-Part"] < 14 {
		t.Errorf("S-NUCA vulnerability %v/%v, want ~15", byName["Adaptive"], byName["VM-Part"])
	}
	if byName["Jigsaw"] > 5 || byName["Jigsaw"] <= 0 {
		t.Errorf("Jigsaw vulnerability %v, want small but nonzero", byName["Jigsaw"])
	}
	if byName["Jumanji"] != 0 {
		t.Errorf("Jumanji vulnerability %v", byName["Jumanji"])
	}
	var buf bytes.Buffer
	RenderFig14(&buf, rows)
	if !strings.Contains(buf.String(), "attackers/access") {
		t.Error("render missing header")
	}
}

func TestFig15EnergyShape(t *testing.T) {
	rows := must(Fig15(tinyOptions()))
	byName := map[string]Fig15Row{}
	for _, r := range rows {
		byName[r.Design] = r
	}
	if byName["Static"].TotalVsStatic != 1 {
		t.Errorf("Static vs itself = %v", byName["Static"].TotalVsStatic)
	}
	for _, d := range []string{"Jumanji", "Jigsaw"} {
		if byName[d].TotalVsStatic >= 1 {
			t.Errorf("%s energy %.3f, want < Static", d, byName[d].TotalVsStatic)
		}
		if byName[d].NoC >= byName["Adaptive"].NoC {
			t.Errorf("%s NoC energy should undercut Adaptive's", d)
		}
	}
	var buf bytes.Buffer
	RenderFig15(&buf, rows)
	if !strings.Contains(buf.String(), "total/Static") {
		t.Error("render missing header")
	}
}

func TestFig17Scaling(t *testing.T) {
	o := tinyOptions()
	o.Mixes = 2
	rows := must(Fig17(o))
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Speedup < 1.03 {
			t.Errorf("%d VMs: speedup %.3f, want meaningful gain", r.VMs, r.Speedup)
		}
	}
	// Scaling from 1 to 12 VMs costs only a little.
	if rows[5].Speedup < rows[0].Speedup-0.08 {
		t.Errorf("12-VM speedup %.3f too far below 1-VM %.3f", rows[5].Speedup, rows[0].Speedup)
	}
	var buf bytes.Buffer
	RenderFig17(&buf, rows)
	if !strings.Contains(buf.String(), "configuration") {
		t.Error("render missing header")
	}
}

func TestFig18Monotone(t *testing.T) {
	o := tinyOptions()
	rows := must(Fig18(o))
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	if !(rows[0].Speedup < rows[2].Speedup) {
		t.Errorf("speedup should grow with router delay: %+v", rows)
	}
	var buf bytes.Buffer
	RenderFig18(&buf, rows)
	if !strings.Contains(buf.String(), "router cycles") {
		t.Error("render missing header")
	}
}

func TestTable1Scorecard(t *testing.T) {
	// Longer runs than tinyOptions: the scorecard's deadline criterion
	// needs settled controllers.
	rows := must(Table1(Options{Mixes: 2, Epochs: 50, Warmup: 25, Seed: 1}))
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Design] = r
	}
	ju := byName["Jumanji"]
	if !ju.TailLatency || !ju.Security || !ju.BatchSpeedup {
		t.Errorf("Jumanji should score all three: %+v", ju)
	}
	jig := byName["Jigsaw"]
	if jig.TailLatency || jig.Security {
		t.Errorf("Jigsaw should miss tail latency and security: %+v", jig)
	}
	if !jig.BatchSpeedup {
		t.Error("Jigsaw should score batch speedup")
	}
	ad := byName["Adaptive"]
	if !ad.TailLatency || ad.Security || ad.BatchSpeedup {
		t.Errorf("Adaptive row wrong: %+v", ad)
	}
	var buf bytes.Buffer
	RenderTable1(&buf, rows)
	RenderTable2(&buf)
	RenderTable3(&buf)
	out := buf.String()
	for _, want := range []string{"Table I", "Table II", "Table III", "xapian", "5x4 mesh"} {
		if !strings.Contains(out, want) {
			t.Errorf("tables render missing %q", want)
		}
	}
}

func TestFig16VariantsClose(t *testing.T) {
	o := tinyOptions()
	o.Mixes = 2
	// Restrict to one workload for test speed by calling runMixes directly.
	sums := must(runMixes(o, caseStudyBuilder("xapian", true), variantPlacers()))
	var ju, ins, ideal float64
	for _, s := range sums {
		switch s.Design {
		case "Jumanji":
			ju = s.Speedup.Median
		case "Jumanji: Insecure":
			ins = s.Speedup.Median
		case "Jumanji: Ideal Batch":
			ideal = s.Speedup.Median
		}
	}
	if ju > ins*1.03 {
		t.Errorf("Jumanji %.3f should not beat Insecure %.3f", ju, ins)
	}
	if ju < ideal*0.9 {
		t.Errorf("Jumanji %.3f more than 10%% behind Ideal %.3f", ju, ideal)
	}
}

func TestCSVOutput(t *testing.T) {
	o := tinyOptions()
	for _, fig := range []int{8, 17, 18} {
		var buf bytes.Buffer
		if err := CSV(&buf, fig, o); err != nil {
			t.Fatalf("fig %d: %v", fig, err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if len(lines) < 2 {
			t.Errorf("fig %d: CSV has %d lines", fig, len(lines))
		}
		if !strings.Contains(lines[0], ",") {
			t.Errorf("fig %d: header missing commas: %q", fig, lines[0])
		}
	}
	var buf bytes.Buffer
	if err := CSV(&buf, 13, o); err == nil {
		t.Error("fig 13 should have no CSV form")
	}
}

func TestFig13FullProtocolTiny(t *testing.T) {
	// Exercise the real Fig. 13 driver end to end at the smallest scale:
	// all 12 workload/load combinations present, each with the five main
	// designs, and the headline inequality holding in aggregate.
	o := Options{Mixes: 1, Epochs: 16, Warmup: 6, Seed: 1}
	r := must(Fig13(o))
	if len(r.Workloads) != 12 || len(r.Rows) != 12 {
		t.Fatalf("workloads = %d", len(r.Workloads))
	}
	high, low := 0, 0
	var jumanjiSum, staticSum float64
	for i := range r.Rows {
		if r.HighLoad[i] {
			high++
		} else {
			low++
		}
		for _, d := range r.Rows[i] {
			switch d.Design {
			case "Jumanji":
				jumanjiSum += d.Speedup.Median
			case "Static":
				staticSum += d.Speedup.Median
			}
		}
	}
	if high != 6 || low != 6 {
		t.Errorf("high/low split = %d/%d", high, low)
	}
	if jumanjiSum <= staticSum {
		t.Errorf("Jumanji aggregate speedup %.2f not above Static %.2f", jumanjiSum, staticSum)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	for _, want := range []string{"masstree", "Mixed", "high load", "low load"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Fig13 render missing %q", want)
		}
	}
}

func TestFig16FullProtocolTiny(t *testing.T) {
	o := Options{Mixes: 1, Epochs: 16, Warmup: 6, Seed: 1}
	rows := must(Fig16(o))
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Jumanji <= 0 || r.Insecure <= 0 || r.IdealBatch <= 0 {
			t.Errorf("row %s/%v has zero entries: %+v", r.Workload, r.HighLoad, r)
		}
	}
	var buf bytes.Buffer
	RenderFig16(&buf, rows)
	if !strings.Contains(buf.String(), "IdealBatch") {
		t.Error("render missing header")
	}
}

func TestCSVFig4And12(t *testing.T) {
	o := Options{Mixes: 2, Epochs: 12, Warmup: 4, Seed: 1}
	for _, fig := range []int{4, 12} {
		var buf bytes.Buffer
		if err := CSV(&buf, fig, o); err != nil {
			t.Fatalf("fig %d: %v", fig, err)
		}
		if lines := strings.Count(buf.String(), "\n"); lines < 3 {
			t.Errorf("fig %d: only %d CSV lines", fig, lines)
		}
	}
}

func TestOptionHelpers(t *testing.T) {
	if q := QuickOptions(); q.Mixes <= 0 || q.Warmup >= q.Epochs {
		t.Errorf("QuickOptions invalid: %+v", q)
	}
	p := PaperOptions()
	if p.Mixes != 40 {
		t.Errorf("PaperOptions mixes = %d, want the paper's 40", p.Mixes)
	}
	if len(LCNames()) != 5 {
		t.Errorf("LCNames = %v", LCNames())
	}
}
