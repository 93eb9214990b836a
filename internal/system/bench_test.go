package system

import (
	"math/rand"
	"testing"

	"jumanji/internal/core"
	"jumanji/internal/topo"
)

// BenchmarkEpochLoop measures the epoch-based model end to end: one
// case-study run (4 VMs × (xapian + 4 SPEC), 30 epochs) under JumanjiPlacer,
// the cell every figure sweep executes thousands of times. Both ns/op and
// allocs/op matter: the dense-placement refactor's acceptance bar is >=2x
// fewer allocations per epoch with no ns/op regression.
//
//	go test -run xxx -bench EpochLoop -benchmem ./internal/system
func BenchmarkEpochLoop(b *testing.B) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(1))
	wl, err := CaseStudyWorkload(cfg.Machine, "xapian", rng, true)
	if err != nil {
		b.Fatal(err)
	}
	const epochs = 30
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(cfg, wl, core.JumanjiPlacer{}, epochs, 10)
	}
	b.ReportMetric(epochs, "epochs/op")
}

// BenchmarkEpochLoopFleet is BenchmarkEpochLoop at fleet scale: the 16×16
// DatacenterWorkload (28 VMs, 140 apps on 256 banks) under StaticPlacer,
// whose striping puts every app in every bank. Placement is cheap there, so
// the epoch step — and within it the per-bank vulnerability pass — sets the
// time.
//
//	go test -run xxx -bench EpochLoopFleet -benchmem -cpu 1 ./internal/system
func BenchmarkEpochLoopFleet(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Machine.Mesh = topo.NewMesh(16, 16)
	wl, err := DatacenterWorkload(cfg.Machine, rand.New(rand.NewSource(1)), true)
	if err != nil {
		b.Fatal(err)
	}
	const epochs = 10
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(cfg, wl, core.StaticPlacer{}, epochs, 2)
	}
	b.ReportMetric(epochs, "epochs/op")
}
