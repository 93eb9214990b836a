package harness

import (
	"fmt"
	"io"
	"math/rand"

	"jumanji/internal/core"
	"jumanji/internal/stats"
	"jumanji/internal/system"
	"jumanji/internal/topo"
)

// Fig19Row is one (mesh, design) point of the big-topology scaling study.
type Fig19Row struct {
	MeshW, MeshH int
	Design       string
	// Speedup is the gmean batch weighted speedup vs Static across mixes.
	Speedup float64
	// SLOViolFrac is the fraction of mixes whose worst latency-critical
	// tail exceeded its deadline.
	SLOViolFrac float64
	// ReconfigMoved is the mean fraction of cached bytes re-homed per
	// reconfiguration (reconfiguration cost), averaged across mixes.
	ReconfigMoved float64
}

// scaleMeshes are the swept topologies: the paper's near-square baseline up
// to a 256-tile datacenter-class chip.
func scaleMeshes() []topo.Mesh {
	return []topo.Mesh{
		topo.NewMesh(6, 6),
		topo.NewMesh(8, 8),
		topo.NewMesh(12, 12),
		topo.NewMesh(16, 16),
	}
}

// scalePlacers returns the five main designs as run at scale: the S-NUCAs
// stripe globally and need no decomposition, while the D-NUCAs place
// hierarchically (core.ShardedPlacer with default regions) — flat D-NUCA
// placement is superlinear in banks and unaffordable at 256 tiles.
func scalePlacers() []core.Placer {
	return []core.Placer{
		core.StaticPlacer{},
		core.AdaptivePlacer{},
		core.VMPartPlacer{},
		core.ShardedPlacer{Inner: core.JigsawPlacer{}},
		core.ShardedPlacer{Inner: core.JumanjiPlacer{}},
	}
}

// datacenterBuilder builds the mesh-proportional VM environment (one VM per
// ~9 tiles, 1 LC + 4 batch each). The mesh dimensions are part of the label:
// different machine sizes are different workload configurations and must not
// share mix seeds.
func datacenterBuilder(w, h int, highLoad bool) mixBuilder {
	return mixBuilder{
		label: fmt.Sprintf("datacenter/%dx%d/%s", w, h, loadLabel(highLoad)),
		build: func(m core.Machine, rng *rand.Rand) (system.Workload, error) {
			return system.DatacenterWorkload(m, rng, highLoad)
		},
	}
}

// Fig19 runs the big-topology scaling study (new; beyond the paper's 5×4
// evaluation): the five main designs over meshes from 36 to 256 tiles, with
// a workload that grows with the machine. Headlines: Jumanji's batch speedup
// and deadline behaviour survive the scale-up, and hierarchical placement
// keeps its reconfiguration cost (fraction of data re-homed) bounded while
// S-NUCA striping re-homes more data as the stripe set widens.
func Fig19(o Options) ([]Fig19Row, error) {
	meshes := scaleMeshes()
	placers := scalePlacers()
	// Flatten meshes × mixes into one cell grid, Fig. 18 style. Exported
	// fields: cell results are gob-encoded into the crash journal.
	type outcome struct {
		Tails, Speedups, Moved []float64 // per placer
	}
	cells, err := runCells(o, "fig19", len(meshes)*o.Mixes, func(i int, co Options) outcome {
		mesh, mix := meshes[i/o.Mixes], i%o.Mixes
		cfg := co.systemConfig()
		cfg.Machine.Mesh = mesh
		b := datacenterBuilder(mesh.W, mesh.H, true)
		wl, seed := buildMix(b, cfg.Machine, o.Seed, mix)
		cfg.Seed = seed
		out := outcome{
			Tails:    make([]float64, len(placers)),
			Speedups: make([]float64, len(placers)),
			Moved:    make([]float64, len(placers)),
		}
		var static *system.RunResult
		results := make([]*system.RunResult, len(placers))
		for pi, p := range placers {
			results[pi] = system.Run(cfg, wl, p, o.Epochs, o.Warmup)
			if p.Name() == "Static" {
				static = results[pi]
			}
		}
		for pi, r := range results {
			out.Tails[pi] = r.WorstNormTail
			out.Speedups[pi] = r.BatchWeightedSpeedup / static.BatchWeightedSpeedup
			out.Moved[pi] = r.ReconfigMoved
		}
		return out
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig19Row, 0, len(meshes)*len(placers))
	for mi, mesh := range meshes {
		mixCells := cells[mi*o.Mixes : (mi+1)*o.Mixes]
		for pi, p := range placers {
			row := Fig19Row{MeshW: mesh.W, MeshH: mesh.H, Design: p.Name()}
			speedups := make([]float64, len(mixCells))
			viol, moved := 0, 0.0
			for ci, c := range mixCells {
				speedups[ci] = c.Speedups[pi]
				if c.Tails[pi] > 1 {
					viol++
				}
				moved += c.Moved[pi]
			}
			row.Speedup = stats.Gmean(speedups)
			row.SLOViolFrac = float64(viol) / float64(len(mixCells))
			row.ReconfigMoved = moved / float64(len(mixCells))
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderFig19 prints the scaling study.
func RenderFig19(w io.Writer, rows []Fig19Row) {
	header(w, "Fig. 19", "Big-topology scaling (beyond the paper): batch speedup vs Static, SLO violation fraction, and data re-homed per reconfiguration as the mesh grows from 36 to 256 tiles. D-NUCAs place hierarchically (4x4 regions).")
	fmt.Fprintf(w, "%-8s %-10s %10s %10s %14s\n", "mesh", "design", "speedup", "SLO-viol", "moved/reconf")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %-10s %10.3f %10.2f %14.3f\n",
			fmt.Sprintf("%dx%d", r.MeshW, r.MeshH), r.Design, r.Speedup, r.SLOViolFrac, r.ReconfigMoved)
	}
}
