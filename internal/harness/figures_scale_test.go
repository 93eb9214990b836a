package harness

import (
	"bytes"
	"strings"
	"testing"
)

func TestFig4RenderPanelOrder(t *testing.T) {
	// Regression: the panels used to render in map-iteration order, so two
	// runs of the same result could interleave (a)/(b)/(c) differently.
	r := Fig4Result{
		Designs: []string{"A", "B"},
		LatNorm: [][]float64{{1, 2}, {3, 4}},
		AllocMB: [][]float64{{5, 6}, {7, 8}},
		Vuln:    [][]float64{{0, 0}, {1, 1}},
	}
	var first bytes.Buffer
	r.Render(&first)
	ia := strings.Index(first.String(), "(a) latency/deadline")
	ib := strings.Index(first.String(), "(b) allocation MB")
	ic := strings.Index(first.String(), "(c) vulnerability")
	if ia < 0 || ib < 0 || ic < 0 || ia > ib || ib > ic {
		t.Fatalf("panels out of order (a@%d b@%d c@%d):\n%s", ia, ib, ic, first.String())
	}
	for trial := 0; trial < 8; trial++ {
		var again bytes.Buffer
		r.Render(&again)
		if again.String() != first.String() {
			t.Fatalf("render not byte-identical across calls")
		}
	}
}

func TestFig19Scaling(t *testing.T) {
	o := Options{Mixes: 1, Epochs: 12, Warmup: 4, Seed: 1}
	rows := must(Fig19(o))
	meshes, placers := scaleMeshes(), scalePlacers()
	if len(rows) != len(meshes)*len(placers) {
		t.Fatalf("%d rows, want %d", len(rows), len(meshes)*len(placers))
	}
	for i, r := range rows {
		mesh, p := meshes[i/len(placers)], placers[i%len(placers)]
		if r.MeshW != mesh.W || r.MeshH != mesh.H {
			t.Errorf("row %d mesh %dx%d, want %dx%d", i, r.MeshW, r.MeshH, mesh.W, mesh.H)
		}
		// Sharding is an implementation strategy, not a policy: the wrapped
		// D-NUCAs keep their flat names in the figure.
		if r.Design != p.Name() {
			t.Errorf("row %d design %q, want %q", i, r.Design, p.Name())
		}
		if r.Speedup <= 0 {
			t.Errorf("row %d (%s %dx%d) speedup %v", i, r.Design, r.MeshW, r.MeshH, r.Speedup)
		}
		if r.SLOViolFrac < 0 || r.SLOViolFrac > 1 {
			t.Errorf("row %d SLO violation fraction %v", i, r.SLOViolFrac)
		}
		if r.Design == "Static" {
			// Static never reconfigures after the first placement.
			if r.Speedup != 1 {
				t.Errorf("Static speedup %v on %dx%d", r.Speedup, r.MeshW, r.MeshH)
			}
		}
	}
	var buf bytes.Buffer
	RenderFig19(&buf, rows)
	for _, want := range []string{"Fig. 19", "16x16", "moved/reconf", "Jumanji"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestCSVFig19(t *testing.T) {
	o := Options{Mixes: 1, Epochs: 10, Warmup: 3, Seed: 1}
	var buf bytes.Buffer
	if err := CSV(&buf, 19, o); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(scaleMeshes()) {
		t.Fatalf("CSV has %d lines:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], "Jumanji_speedup") || !strings.HasPrefix(lines[0], "tiles") {
		t.Errorf("CSV header %q", lines[0])
	}
	if !strings.HasPrefix(lines[len(lines)-1], "256,") {
		t.Errorf("last CSV row %q, want the 256-tile mesh", lines[len(lines)-1])
	}
}

func TestMeshOverrideValidate(t *testing.T) {
	for _, o := range []Options{
		{Mixes: 1, Epochs: 10, Warmup: 1, MeshW: 3},
		{Mixes: 1, Epochs: 10, Warmup: 1, MeshH: 3},
		{Mixes: 1, Epochs: 10, Warmup: 1, MeshW: -2, MeshH: -2},
		{Mixes: 1, Epochs: 10, Warmup: 1, MeshW: 2, MeshH: 2},
		{Mixes: 1, Epochs: 10, Warmup: 1, MeshW: 4, MeshH: 4},
	} {
		if o.validate() == nil {
			t.Errorf("options %+v should fail validation", o)
		}
	}
	// A valid override reaches the system config.
	o := Options{Mixes: 1, Epochs: 10, Warmup: 1, MeshW: 8, MeshH: 8}
	if err := o.validate(); err != nil {
		t.Fatal(err)
	}
	if cfg := o.systemConfig(); cfg.Machine.Banks() != 64 {
		t.Errorf("mesh override not applied: %d banks", cfg.Machine.Banks())
	}
}
