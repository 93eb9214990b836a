// Package vtb implements Jigsaw/Jumanji's data-placement hardware (Fig. 7):
// virtual caches (VCs), placement descriptors, and the per-core virtual-cache
// translation buffer (VTB). Software controls where each VC's data lives in
// the distributed LLC by writing bank IDs into the VC's 128-entry placement
// descriptor; hardware hashes each address to pick the descriptor entry and
// thus the address's unique LLC bank (single-lookup D-NUCA).
package vtb

import (
	"fmt"
	"sort"

	"jumanji/internal/topo"
)

// VCID identifies a virtual cache. The paper uses roughly one VC per
// application (Sec. IV-A).
type VCID int

// DescriptorEntries is the number of bank slots per placement descriptor.
// With 128 entries, capacity shares are controlled at 1/128 granularity.
const DescriptorEntries = 128

// PageSize is the granularity at which data is mapped to VCs.
const PageSize = 4096

// Descriptor is a placement descriptor: an array of bank IDs. An address
// hashes to one entry; the entry names the bank that caches the address.
type Descriptor [DescriptorEntries]topo.TileID

// NewDescriptor builds a descriptor whose entries are distributed over banks
// in proportion to shares (bank -> fractional share of the VC's capacity).
// Shares must be non-negative with a positive sum. Entry counts are rounded
// with the largest-remainder method so exactly DescriptorEntries entries are
// assigned; assignment is deterministic (banks in ascending ID order) and
// entries of the same bank are spread round-robin so hashing distributes
// load evenly.
func NewDescriptor(shares map[topo.TileID]float64) Descriptor {
	type bankShare struct {
		bank  topo.TileID
		share float64
	}
	var total float64
	banks := make([]bankShare, 0, len(shares))
	for b, s := range shares {
		if s < 0 {
			panic(fmt.Sprintf("vtb: negative share %v for bank %d", s, b))
		}
		if s > 0 {
			banks = append(banks, bankShare{b, s})
			total += s
		}
	}
	if total <= 0 {
		panic("vtb: descriptor shares sum to zero")
	}
	sort.Slice(banks, func(i, j int) bool { return banks[i].bank < banks[j].bank })

	// Largest-remainder apportionment of the 128 entries.
	type alloc struct {
		idx       int
		count     int
		remainder float64
	}
	allocs := make([]alloc, len(banks))
	assigned := 0
	for i, bs := range banks {
		exact := bs.share / total * DescriptorEntries
		count := int(exact)
		allocs[i] = alloc{idx: i, count: count, remainder: exact - float64(count)}
		assigned += count
	}
	rest := DescriptorEntries - assigned
	sort.SliceStable(allocs, func(i, j int) bool { return allocs[i].remainder > allocs[j].remainder })
	for i := 0; i < rest; i++ {
		allocs[i%len(allocs)].count++
	}
	sort.Slice(allocs, func(i, j int) bool { return allocs[i].idx < allocs[j].idx })

	// Interleave entries round-robin across banks for even hashing.
	var d Descriptor
	remaining := make([]int, len(banks))
	for i := range allocs {
		remaining[i] = allocs[i].count
	}
	pos := 0
	for pos < DescriptorEntries {
		progressed := false
		for i := range banks {
			if remaining[i] > 0 && pos < DescriptorEntries {
				d[pos] = banks[i].bank
				remaining[i]--
				pos++
				progressed = true
			}
		}
		if !progressed {
			panic("vtb: descriptor apportionment under-assigned entries")
		}
	}
	return d
}

// SingleBank returns a descriptor placing the whole VC in one bank.
func SingleBank(b topo.TileID) Descriptor {
	var d Descriptor
	for i := range d {
		d[i] = b
	}
	return d
}

// Striped returns a descriptor striping the VC uniformly across the given
// banks — the S-NUCA placement used by the non-NUCA baseline designs.
func Striped(banks []topo.TileID) Descriptor {
	if len(banks) == 0 {
		panic("vtb: Striped over no banks")
	}
	var d Descriptor
	for i := range d {
		d[i] = banks[i%len(banks)]
	}
	return d
}

// hashAddr mixes a line address into a descriptor index. It is a 64-bit
// finalizer (splitmix64-style), standing in for the hardware hash H in
// Fig. 7; quality matters because skewed hashing would unbalance banks.
func hashAddr(addr uint64) uint64 {
	x := addr
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// BankFor returns the LLC bank caching addr under this descriptor.
func (d *Descriptor) BankFor(addr uint64) topo.TileID {
	return d[hashAddr(addr)%DescriptorEntries]
}

// Shares returns each bank's fraction of the descriptor's entries.
func (d *Descriptor) Shares() map[topo.TileID]float64 {
	out := make(map[topo.TileID]float64)
	for _, b := range d {
		out[b] += 1.0 / DescriptorEntries
	}
	return out
}

// Banks returns the distinct banks in the descriptor, ascending.
func (d *Descriptor) Banks() []topo.TileID {
	seen := make(map[topo.TileID]bool)
	for _, b := range d {
		seen[b] = true
	}
	out := make([]topo.TileID, 0, len(seen))
	for b := range seen {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MovedLines reports, for a descriptor change old->new, the descriptor
// entries whose bank changed. Addresses hashing to these entries must be
// invalidated from their old banks (the background walk of Sec. IV-A).
// The returned fraction (0..1) estimates the share of the VC's data that
// moves.
func MovedLines(old, new *Descriptor) (entries []int, fraction float64) {
	for i := range old {
		if old[i] != new[i] {
			entries = append(entries, i)
		}
	}
	return entries, float64(len(entries)) / DescriptorEntries
}

// VTB is one core's virtual-cache translation buffer plus the OS page→VC
// map feeding it. Lookups resolve an address to (VC, bank).
type VTB struct {
	pages       map[uint64]VCID // page number -> VC
	descriptors map[VCID]*Descriptor
	defaultVC   VCID
	hasDefault  bool

	// Lookups and Misses count VTB activity. A "miss" is a lookup for a VC
	// with no installed descriptor, which in real hardware would trap to
	// software.
	Lookups uint64
	Misses  uint64
}

// New returns an empty VTB.
func New() *VTB {
	return &VTB{
		pages:       make(map[uint64]VCID),
		descriptors: make(map[VCID]*Descriptor),
	}
}

// SetDefaultVC routes pages with no explicit mapping to vc (typically the
// owning application's VC, cached in the TLB in real hardware).
func (v *VTB) SetDefaultVC(vc VCID) {
	v.defaultVC = vc
	v.hasDefault = true
}

// MapRange assigns every page overlapping [base, base+size) to vc — the
// OS mapping an application's whole address space to its virtual cache.
func (v *VTB) MapRange(base, size uint64, vc VCID) {
	if size == 0 {
		return
	}
	first := base / PageSize
	last := (base + size - 1) / PageSize
	for p := first; p <= last; p++ {
		v.pages[p] = vc
	}
}

// Install sets the placement descriptor for vc, replacing any previous one.
func (v *VTB) Install(vc VCID, d Descriptor) {
	v.descriptors[vc] = &d
}

// Descriptor returns the installed descriptor for vc, if any.
func (v *VTB) Descriptor(vc VCID) (*Descriptor, bool) {
	d, ok := v.descriptors[vc]
	return d, ok
}

// VCFor returns the VC owning addr (the page mapping, else the default VC).
// ok is false if the page is unmapped and no default is set.
func (v *VTB) VCFor(addr uint64) (VCID, bool) {
	if vc, ok := v.pages[addr/PageSize]; ok {
		return vc, true
	}
	if v.hasDefault {
		return v.defaultVC, true
	}
	return 0, false
}

// Lookup resolves addr to its VC and LLC bank. ok is false when the page is
// unmapped or the VC has no descriptor installed (counted as a miss).
func (v *VTB) Lookup(addr uint64) (vc VCID, b topo.TileID, ok bool) {
	v.Lookups++
	vc, found := v.VCFor(addr)
	if !found {
		v.Misses++
		return 0, 0, false
	}
	d, haveDesc := v.descriptors[vc]
	if !haveDesc {
		v.Misses++
		return vc, 0, false
	}
	return vc, d.BankFor(addr), true
}
