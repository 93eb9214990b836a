// alloc-guarded: the vulnerability pass runs once per epoch; its counts live
// in scratch reused across the run (TestAllocGuardVulnerability).

package system

import (
	"slices"

	"jumanji/internal/core"
)

// vulnPass computes the Sec. VII security metric for every app: the
// average number of applications from other VMs resident in the banks it
// accesses, weighted by its capacity per bank. Another app counts as an
// attacker in a bank when both hold space there, they belong to different
// VMs, they live in the same LLC space (physical, or the Ideal-Batch
// overlay, which is shared only within a VM), and they are not both
// time-shared: time-multiplexed co-tenants (Sec. IV-B oversubscription) are
// never resident together — the bank is flushed on every context switch,
// so there is no shared state or port contention to observe.
//
// Rather than scanning every other app for each (app, bank) pair, the pass
// counts each bank's residents once per epoch, split by LLC space and by
// time-shared or not, both in total and per VM. An app's attackers in a bank
// are then its space's residents minus its own VM's residents in that
// space, counting only non-time-shared residents when the app is itself
// time-shared. That makes the pass linear in apps×banks. The counts are
// exact integers and every app still sums its banks in ascending order, so
// each output is bit-identical to the pairwise scan
// (TestVulnerabilityMatchesReference).
//
// The zero value is ready to use; one vulnPass per run keeps its scratch
// warm across epochs.
type vulnPass struct {
	vms  []core.VMID // dense VM number -> VMID, in first-seen app order
	vmOf []int       // app -> dense VM number
	// counts holds one row of banks resident counts per (space, kind,
	// owner): space 0 is the physical LLC and 1 the overlay; kind 0 counts
	// every resident and kind 1 only the non-time-shared ones; owner is a
	// dense VM number, or len(vms) for all VMs together. See row.
	counts []int32
	banks  int
}

// row returns the per-bank resident counts of one (space, kind, owner).
func (v *vulnPass) row(space, kind, owner int) []int32 {
	i := ((space*2+kind)*(len(v.vms)+1) + owner) * v.banks
	return v.counts[i : i+v.banks]
}

// renumber maps the apps' VMIDs, which are arbitrary ints, onto dense VM
// numbers. VMs never change within a run (migrations move cores, not VMs),
// so after the first epoch this is one comparison per app.
func (v *vulnPass) renumber(in *core.Input) {
	if len(v.vmOf) == len(in.Apps) {
		same := true
		for i := range in.Apps {
			if v.vms[v.vmOf[i]] != in.Apps[i].VM {
				same = false
				break
			}
		}
		if same {
			return
		}
	}
	v.vms, v.vmOf = v.vms[:0], v.vmOf[:0]
	for i := range in.Apps {
		k := slices.Index(v.vms, in.Apps[i].VM)
		if k < 0 {
			k = len(v.vms)
			v.vms = append(v.vms, in.Apps[i].VM)
		}
		v.vmOf = append(v.vmOf, k)
	}
}

// vulnClass returns app's LLC space (0 physical, 1 overlay) and whether it is
// time-shared.
func vulnClass(pl *core.Placement, app core.AppID) (space int, ts bool) {
	if pl.Overlay(app) {
		space = 1
	}
	return space, pl.TimeShared(app) > 0
}

// run writes every app's vulnerability under pl into out.
func (v *vulnPass) run(in *core.Input, pl *core.Placement, out []float64) {
	v.renumber(in)
	v.banks = 0
	for i := range in.Apps {
		v.banks = max(v.banks, len(pl.AllocRow(core.AppID(i))))
	}
	need := 4 * (len(v.vms) + 1) * v.banks
	if cap(v.counts) < need {
		v.counts = make([]int32, need) // alloc: ok (scratch growth, once per run)
	}
	v.counts = v.counts[:need]
	clear(v.counts)

	all := len(v.vms)
	for i := range in.Apps {
		app := core.AppID(i)
		row := pl.AllocRow(app)
		if row == nil {
			continue
		}
		// A time-shared app is a resident of kind 0 only.
		space, ts := vulnClass(pl, app)
		kinds := 2
		if ts {
			kinds = 1
		}
		for kind := 0; kind < kinds; kind++ {
			tot, mine := v.row(space, kind, all), v.row(space, kind, v.vmOf[i])
			for b, by := range row {
				if by <= 0 {
					continue
				}
				tot[b]++
				mine[b]++
			}
		}
	}

	for i := range in.Apps {
		app := core.AppID(i)
		space, ts := vulnClass(pl, app)
		kind := 0
		if ts {
			kind = 1
		}
		tot, mine := v.row(space, kind, all), v.row(space, kind, v.vmOf[i])
		total, weighted := 0.0, 0.0
		for b, by := range pl.AllocRow(app) {
			if by <= 0 {
				continue
			}
			total += by
			weighted += by * float64(tot[b]-mine[b])
		}
		out[i] = 0
		if total > 0 {
			out[i] = weighted / total
		}
	}
}
