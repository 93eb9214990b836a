package cache

import "math/bits"

// directory is the MESI sharer directory: for each line address it tracks,
// the cores that may hold a private copy (bit i = core i). It is an
// open-addressing table with linear probing, and a removal shifts the rest
// of its probe run back instead of leaving a tombstone, so the table holds
// exactly the entries a map[uint64]uint32 would under the same operations
// and probe runs stay short. An entry may hold no sharers: a write clears
// every bit but the writer's, which need not be set.
type directory struct {
	slots []dirSlot // a power of two long
	n     int       // live entries
	shift uint      // 64 - log2(len(slots)): home takes the hash's top bits
}

type dirSlot struct {
	line    uint64
	sharers uint32
	used    bool
}

// newDirectory returns a directory sized for lines entries, an inclusive
// LLC's line count, so that it reaches its steady state without growing.
// It doubles whenever an insert would fill more than three quarters of it.
func newDirectory(lines int) directory {
	size := 64
	for 3*size < 4*lines {
		size *= 2
	}
	return directory{
		slots: make([]dirSlot, size),
		shift: uint(64 - bits.TrailingZeros(uint(size))),
	}
}

// home is line's preferred slot, by Fibonacci hashing: line addresses are
// aligned, so their low bits carry nothing and the product's top bits do.
func (d *directory) home(line uint64) int {
	return int((line * 0x9e3779b97f4a7c15) >> d.shift)
}

// find returns the slot holding line's entry, or -1 if there is none.
func (d *directory) find(line uint64) int {
	mask := len(d.slots) - 1
	for i := d.home(line); ; i = (i + 1) & mask {
		s := &d.slots[i]
		if !s.used {
			return -1
		}
		if s.line == line {
			return i
		}
	}
}

// mark adds core to line's sharers, creating the entry if there is none.
func (d *directory) mark(line uint64, core int) {
	bit := uint32(1) << uint(core)
	mask := len(d.slots) - 1
	i := d.home(line)
	for ; d.slots[i].used; i = (i + 1) & mask {
		if d.slots[i].line == line {
			d.slots[i].sharers |= bit
			return
		}
	}
	if 4*(d.n+1) > 3*len(d.slots) {
		d.grow()
		i = d.free(line)
	}
	d.slots[i] = dirSlot{line: line, sharers: bit, used: true}
	d.n++
}

// free returns the first empty slot of line's probe run.
func (d *directory) free(line uint64) int {
	mask := len(d.slots) - 1
	i := d.home(line)
	for d.slots[i].used {
		i = (i + 1) & mask
	}
	return i
}

// remove deletes the entry in slot i (from find). Each later entry of the
// probe run whose home does not lie between the hole and itself moves back
// into the hole, so every remaining entry stays reachable from its home
// without crossing an empty slot.
func (d *directory) remove(i int) {
	mask := len(d.slots) - 1
	for j := (i + 1) & mask; d.slots[j].used; j = (j + 1) & mask {
		if (j-d.home(d.slots[j].line))&mask >= (j-i)&mask {
			d.slots[i] = d.slots[j]
			i = j
		}
	}
	d.slots[i] = dirSlot{}
	d.n--
}

// grow doubles the table and reinserts every entry.
func (d *directory) grow() {
	old := d.slots
	d.slots = make([]dirSlot, 2*len(old))
	d.shift--
	for _, s := range old {
		if s.used {
			d.slots[d.free(s.line)] = s
		}
	}
}
