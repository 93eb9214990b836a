// Package trace provides synthetic memory-address generators for the
// detailed (trace-driven) simulation layer. Real SPEC/TailBench traces are
// unavailable (DESIGN.md §1); these generators produce access streams with
// controlled reuse structure — working sets, scans, Zipfian popularity,
// pointer chases — so the detailed cache hierarchy, the UMON profilers, and
// the analytic epoch model can be exercised and cross-validated on streams
// whose miss behaviour is known.
package trace

import (
	"fmt"
	"math"
	"math/rand"
)

// Generator produces an infinite address stream.
type Generator interface {
	// Next returns the next accessed byte address.
	Next() uint64
}

// Sequential streams through a region repeatedly — a pure scan with a reuse
// distance equal to the region size (thrashes any smaller cache).
type Sequential struct {
	Base   uint64
	Region uint64 // bytes
	Stride uint64 // bytes per access (e.g. 64 for line-sized)
	pos    uint64
}

// NewSequential returns a scan over `region` bytes with the given stride.
func NewSequential(base, region, stride uint64) *Sequential {
	if region == 0 || stride == 0 {
		panic(fmt.Sprintf("trace: invalid sequential region/stride %d/%d", region, stride))
	}
	return &Sequential{Base: base, Region: region, Stride: stride}
}

// Next implements Generator.
func (s *Sequential) Next() uint64 {
	addr := s.Base + s.pos
	s.pos += s.Stride
	if s.pos >= s.Region {
		s.pos = 0
	}
	return addr
}

// WorkingSet accesses a fixed set of lines uniformly at random — a
// cache-friendly workload whose miss ratio collapses once the set fits.
type WorkingSet struct {
	Base  uint64
	Lines uint64 // working-set size in lines
	Line  uint64 // line size in bytes
	rng   *rand.Rand
}

// NewWorkingSet returns a uniform random generator over `lines` lines.
func NewWorkingSet(base uint64, lines, line uint64, seed int64) *WorkingSet {
	if lines == 0 || line == 0 {
		panic("trace: empty working set")
	}
	return &WorkingSet{Base: base, Lines: lines, Line: line, rng: rand.New(rand.NewSource(seed))}
}

// Next implements Generator.
func (w *WorkingSet) Next() uint64 {
	return w.Base + uint64(w.rng.Int63n(int64(w.Lines)))*w.Line
}

// Zipf accesses lines with Zipfian popularity — a heavy-tailed reuse
// pattern typical of key-value and index workloads, with a smooth miss
// curve (every extra way captures the next-hottest lines).
type Zipf struct {
	Base uint64
	Line uint64
	z    *rand.Zipf
}

// NewZipf returns a Zipfian generator over `lines` lines with skew s > 1.
func NewZipf(base uint64, lines, line uint64, s float64, seed int64) *Zipf {
	if lines == 0 || line == 0 || s <= 1 {
		panic(fmt.Sprintf("trace: invalid zipf config (lines=%d, s=%g)", lines, s))
	}
	rng := rand.New(rand.NewSource(seed))
	return &Zipf{Base: base, Line: line, z: rand.NewZipf(rng, s, 1, lines-1)}
}

// Next implements Generator.
func (z *Zipf) Next() uint64 {
	return z.Base + z.z.Uint64()*z.Line
}

// PointerChase walks a fixed random permutation of lines — fully serialized
// reuse with a working set exactly the chase length, the classic
// latency-bound pattern of tree/graph codes.
type PointerChase struct {
	Base  uint64
	Line  uint64
	chain []uint64 // chain[i] = index of next line
	cur   uint64
}

// NewPointerChase builds a random single-cycle permutation over `lines`.
func NewPointerChase(base uint64, lines, line uint64, seed int64) *PointerChase {
	if lines == 0 || line == 0 {
		panic("trace: empty pointer chase")
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(int(lines))
	chain := make([]uint64, lines)
	// Sattolo-style: connect perm into one cycle.
	for i := 0; i < len(perm); i++ {
		chain[perm[i]] = uint64(perm[(i+1)%len(perm)])
	}
	return &PointerChase{Base: base, Line: line, chain: chain}
}

// Next implements Generator.
func (p *PointerChase) Next() uint64 {
	addr := p.Base + p.cur*p.Line
	p.cur = p.chain[p.cur]
	return addr
}

// MissRatioOracle returns the asymptotic miss ratio a fully-associative LRU
// cache of capBytes would see on the given canonical generator, for
// validation tests. It covers the generators with closed-form behaviour.
func MissRatioOracle(g Generator, capBytes uint64) (float64, bool) {
	switch t := g.(type) {
	case *Sequential:
		// A cyclic scan misses everything below the region size and (after
		// warmup) hits everything at or above it.
		lines := t.Region / t.Stride
		if capBytes >= lines*t.Stride {
			return 0, true
		}
		return 1, true
	case *WorkingSet:
		ws := t.Lines * t.Line
		if capBytes >= ws {
			return 0, true
		}
		// Uniform random over N lines with capacity for c: steady-state
		// hit ratio ≈ c/N under LRU ≈ random for uniform access.
		return 1 - float64(capBytes)/float64(ws), true
	case *PointerChase:
		ws := uint64(len(t.chain)) * t.Line
		if capBytes >= ws {
			return 0, true
		}
		return 1, true // cyclic permutation thrashes LRU below its size
	}
	return math.NaN(), false
}
