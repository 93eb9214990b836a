package system

import (
	"fmt"
	"math/rand"

	"jumanji/internal/core"
	"jumanji/internal/tailbench"
	"jumanji/internal/topo"
	"jumanji/internal/workload"
)

// AppConfig describes one application instance in a run. Exactly one of
// Batch or LatCrit is set.
type AppConfig struct {
	VM      core.VMID
	Core    topo.TileID
	Batch   *workload.Profile
	LatCrit *tailbench.Profile
	// HighLoad selects the Table III HighQPS rate for latency-critical
	// applications (≈50% utilization); otherwise LowQPS (≈10%).
	HighLoad bool
	// BatchPhases, when set on a batch app, cycles the app through these
	// profiles (phase behaviour), switching every PhaseEpochs epochs.
	// Batch (above) still provides the initial phase's profile if it is
	// not the first list entry.
	BatchPhases []*workload.Profile
	// PhaseEpochs is the phase length in reconfiguration epochs.
	PhaseEpochs int
}

// Name returns the underlying profile name.
func (a AppConfig) Name() string {
	if a.LatCrit != nil {
		return a.LatCrit.Name
	}
	return a.Batch.Name
}

// Migration moves an application's thread to a different core at the start
// of an epoch. Like prior D-NUCAs, Jumanji migrates LLC allocations along
// with threads (Sec. IV-B): the next reconfiguration sees the new core and
// re-places the data nearby.
type Migration struct {
	Epoch int
	App   int // index into Workload.Apps
	To    topo.TileID
}

// Workload is the set of applications sharing the machine for one run.
type Workload struct {
	Apps []AppConfig
	// Migrations are applied at the given epochs' starts, in order.
	Migrations []Migration
}

// Validate checks the workload against the machine.
func (w Workload) Validate(m core.Machine) error {
	if len(w.Apps) == 0 {
		return fmt.Errorf("system: empty workload")
	}
	for i, a := range w.Apps {
		if (a.Batch == nil) == (a.LatCrit == nil) {
			return fmt.Errorf("system: app %d must be exactly one of batch or latency-critical", i)
		}
		if int(a.Core) < 0 || int(a.Core) >= m.Banks() {
			return fmt.Errorf("system: app %d on invalid core %d", i, a.Core)
		}
		if len(a.BatchPhases) > 0 {
			if a.Batch == nil {
				return fmt.Errorf("system: app %d has phases but is not a batch app", i)
			}
			if a.PhaseEpochs < 1 {
				return fmt.Errorf("system: app %d has phases but PhaseEpochs %d", i, a.PhaseEpochs)
			}
		}
	}
	for i, mig := range w.Migrations {
		if mig.App < 0 || mig.App >= len(w.Apps) {
			return fmt.Errorf("system: migration %d names unknown app %d", i, mig.App)
		}
		if int(mig.To) < 0 || int(mig.To) >= m.Banks() {
			return fmt.Errorf("system: migration %d targets invalid core %d", i, mig.To)
		}
		if mig.Epoch < 0 {
			return fmt.Errorf("system: migration %d at negative epoch", i)
		}
	}
	return nil
}

// VMSpec declares one VM's contents for workload construction.
type VMSpec struct {
	LatCrit []string // tailbench profile names
	Batch   int      // number of batch apps drawn from the mix
}

// BuildVMWorkload constructs the paper's VM environment: VMs occupy
// contiguous core blocks, latency-critical applications sit at the
// corner-most core of each block (the paper pins them at chip corners),
// and batch slots are filled from `mix` in order. highLoad selects the
// QPS operating point.
//
// For the default 4×(1 LC + 4 B) configuration on the 5×4 mesh this yields
// the Fig. 2a layout: one VM per quadrant with xapian-style apps in the
// corners.
func BuildVMWorkload(m core.Machine, vms []VMSpec, mix []workload.Profile, highLoad bool) (Workload, error) {
	totalApps := 0
	for _, vm := range vms {
		totalApps += len(vm.LatCrit) + vm.Batch
	}
	if totalApps > m.Banks() {
		return Workload{}, fmt.Errorf("system: %d apps exceed %d cores", totalApps, m.Banks())
	}
	needBatch := 0
	for _, vm := range vms {
		needBatch += vm.Batch
	}
	if needBatch > len(mix) {
		return Workload{}, fmt.Errorf("system: workload needs %d batch profiles, mix has %d", needBatch, len(mix))
	}

	// Order cores so that each VM's block starts at a corner-ish tile:
	// cores sorted by distance from the VM's anchor corner.
	corners := m.Mesh.Corners()
	var w Workload
	used := make(map[topo.TileID]bool)
	mixNext := 0
	for vmIdx, vm := range vms {
		anchor := corners[vmIdx%len(corners)]
		order := m.Mesh.BanksByDistanceView(anchor)
		take := func() topo.TileID {
			for _, c := range order {
				if !used[c] {
					used[c] = true
					return c
				}
			}
			panic("system: ran out of cores")
		}
		for _, name := range vm.LatCrit {
			p, ok := tailbench.ByName(name)
			if !ok {
				return Workload{}, fmt.Errorf("system: unknown latency-critical app %q", name)
			}
			prof := p
			w.Apps = append(w.Apps, AppConfig{
				VM: core.VMID(vmIdx), Core: take(), LatCrit: &prof, HighLoad: highLoad,
			})
		}
		for b := 0; b < vm.Batch; b++ {
			prof := mix[mixNext]
			mixNext++
			w.Apps = append(w.Apps, AppConfig{
				VM: core.VMID(vmIdx), Core: take(), Batch: &prof,
			})
		}
	}
	return w, nil
}

// CaseStudyWorkload builds the Sec. III case study: four VMs, each with one
// instance of lcName and four batch applications randomly drawn from the
// SPEC profiles.
func CaseStudyWorkload(m core.Machine, lcName string, rng *rand.Rand, highLoad bool) (Workload, error) {
	mix := workload.RandomMix(rng, 16)
	vms := []VMSpec{
		{LatCrit: []string{lcName}, Batch: 4},
		{LatCrit: []string{lcName}, Batch: 4},
		{LatCrit: []string{lcName}, Batch: 4},
		{LatCrit: []string{lcName}, Batch: 4},
	}
	return BuildVMWorkload(m, vms, mix, highLoad)
}

// MixedLCWorkload builds the "Mixed" configuration of Fig. 13: four VMs,
// each running a different latency-critical application drawn from the five
// TailBench profiles, plus four batch apps each.
func MixedLCWorkload(m core.Machine, rng *rand.Rand, highLoad bool) (Workload, error) {
	names := make([]string, len(tailbench.Profiles))
	for i, p := range tailbench.Profiles {
		names[i] = p.Name
	}
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	mix := workload.RandomMix(rng, 16)
	vms := []VMSpec{
		{LatCrit: []string{names[0]}, Batch: 4},
		{LatCrit: []string{names[1]}, Batch: 4},
		{LatCrit: []string{names[2]}, Batch: 4},
		{LatCrit: []string{names[3]}, Batch: 4},
	}
	return BuildVMWorkload(m, vms, mix, highLoad)
}

// DatacenterWorkload scales the paper's VM environment with the mesh: one VM
// per ~9 tiles (at least the paper's 4), each with one latency-critical
// application — cycling through the TailBench profiles — and four batch
// applications drawn from a random SPEC mix. VM anchors stripe across the
// tile space (corners alone cannot seed 20+ VMs), and each VM's threads
// cluster greedily around its anchor, so trust domains stay local the way
// the Fig. 2 quadrant layout is local on the 5×4 chip. A mesh too small for
// the four-VM minimum (under 20 tiles) is an error.
func DatacenterWorkload(m core.Machine, rng *rand.Rand, highLoad bool) (Workload, error) {
	nVMs := m.Banks() / 9
	if nVMs < 4 {
		nVMs = 4
	}
	if 5*nVMs > m.Banks() {
		return Workload{}, fmt.Errorf("system: %d apps exceed %d cores", 5*nVMs, m.Banks())
	}
	mix := workload.RandomMix(rng, 4*nVMs)
	var w Workload
	used := make(map[topo.TileID]bool)
	mixNext := 0
	for vmIdx := 0; vmIdx < nVMs; vmIdx++ {
		anchor := topo.TileID(vmIdx * m.Banks() / nVMs)
		order := m.Mesh.BanksByDistanceView(anchor)
		take := func() topo.TileID {
			for _, c := range order {
				if !used[c] {
					used[c] = true
					return c
				}
			}
			panic("system: ran out of cores")
		}
		prof := tailbench.Profiles[vmIdx%len(tailbench.Profiles)]
		w.Apps = append(w.Apps, AppConfig{
			VM: core.VMID(vmIdx), Core: take(), LatCrit: &prof, HighLoad: highLoad,
		})
		for b := 0; b < 4; b++ {
			bprof := mix[mixNext]
			mixNext++
			w.Apps = append(w.Apps, AppConfig{
				VM: core.VMID(vmIdx), Core: take(), Batch: &bprof,
			})
		}
	}
	return w, nil
}

// ScalingWorkload builds the Fig. 17 configurations: the same 4 LC + 16
// batch applications divided into nVMs trust domains. Valid nVMs values
// divide the 20 applications into whole VMs (1, 2, 4, 5, 10, 12 — 12 is the
// paper's "one per LC app and per pair of batch apps" special case).
func ScalingWorkload(m core.Machine, nVMs int, rng *rand.Rand, highLoad bool) (Workload, error) {
	names := make([]string, 0, 4)
	all := tailbench.Profiles
	for i := 0; i < 4; i++ {
		names = append(names, all[i%len(all)].Name)
	}
	mix := workload.RandomMix(rng, 16)
	var vms []VMSpec
	switch nVMs {
	case 1:
		vms = []VMSpec{{LatCrit: names, Batch: 16}}
	case 2:
		vms = []VMSpec{
			{LatCrit: names[:2], Batch: 8},
			{LatCrit: names[2:], Batch: 8},
		}
	case 4:
		for i := 0; i < 4; i++ {
			vms = append(vms, VMSpec{LatCrit: names[i : i+1], Batch: 4})
		}
	case 5:
		// Four LC VMs with 3 batch each, one batch-only VM with 4.
		for i := 0; i < 4; i++ {
			vms = append(vms, VMSpec{LatCrit: names[i : i+1], Batch: 3})
		}
		vms = append(vms, VMSpec{Batch: 4})
	case 10:
		for i := 0; i < 4; i++ {
			vms = append(vms, VMSpec{LatCrit: names[i : i+1], Batch: 1})
		}
		for i := 0; i < 6; i++ {
			vms = append(vms, VMSpec{Batch: 2})
		}
	case 12:
		// One VM per LC app and per pair of batch apps.
		for i := 0; i < 4; i++ {
			vms = append(vms, VMSpec{LatCrit: names[i : i+1]})
		}
		for i := 0; i < 8; i++ {
			vms = append(vms, VMSpec{Batch: 2})
		}
	default:
		return Workload{}, fmt.Errorf("system: unsupported VM count %d (use 1, 2, 4, 5, 10, or 12)", nVMs)
	}
	return BuildVMWorkload(m, vms, mix, highLoad)
}
