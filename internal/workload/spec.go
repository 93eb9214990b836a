// Package workload provides the batch application models standing in for
// SPEC CPU2006 (the paper draws its sixteen batch applications from the
// footnote-1 list). Real SPEC binaries and traces are unavailable here, so
// each application is a synthetic profile — a base CPI, an LLC access
// intensity, and a parametric miss-ratio curve — chosen to match the
// qualitative, published cache behaviour of its namesake: streamers that no
// LLC can help (lbm, libquantum, milc), cliff-shaped working sets
// (omnetpp, xalancbmk, cactusADM), smoothly cache-sensitive codes (mcf,
// astar, sphinx3), and compute-bound codes that barely touch the LLC
// (calculix, gcc). Every policy in the paper consumes exactly this
// information (miss curves and access rates), so the substitution exercises
// the same decision paths. See DESIGN.md §1.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"jumanji/internal/mrc"
)

// CurveShape selects the parametric family of a profile's miss-ratio curve.
type CurveShape int

// Families of miss-ratio behaviour seen across SPEC CPU2006.
const (
	// Stream: flat, high miss ratio — no realistic LLC helps.
	Stream CurveShape = iota
	// Cliff: high miss ratio until the working set fits, then a sharp drop.
	Cliff
	// Smooth: exponential decay with capacity (mixed reuse distances).
	Smooth
	// Tiny: almost everything hits in L2; the LLC barely matters.
	Tiny
)

// Profile is a synthetic batch application model.
type Profile struct {
	Name    string
	BaseCPI float64 // CPI excluding LLC and memory stalls
	APKI    float64 // LLC accesses per kilo-instruction (post-L2)
	Shape   CurveShape
	// WS is the dominant working-set size in bytes (unused for Stream/Tiny).
	WS float64
	// Floor is the irreducible miss ratio at infinite capacity.
	Floor float64
}

// Profiles are the sixteen batch applications of the evaluation
// (SPEC CPU2006 per footnote 1), with qualitative characteristics from
// published characterization studies.
var Profiles = []Profile{
	{Name: "401.bzip2", BaseCPI: 0.8, APKI: 6, Shape: Smooth, WS: 2 << 20, Floor: 0.15},
	{Name: "403.gcc", BaseCPI: 0.7, APKI: 3, Shape: Tiny, WS: 1 << 20, Floor: 0.10},
	{Name: "410.bwaves", BaseCPI: 0.6, APKI: 18, Shape: Stream, Floor: 0.85},
	{Name: "429.mcf", BaseCPI: 1.1, APKI: 55, Shape: Smooth, WS: 12 << 20, Floor: 0.25},
	{Name: "433.milc", BaseCPI: 0.7, APKI: 16, Shape: Stream, Floor: 0.90},
	{Name: "434.zeusmp", BaseCPI: 0.6, APKI: 8, Shape: Smooth, WS: 3 << 20, Floor: 0.30},
	{Name: "436.cactusADM", BaseCPI: 0.7, APKI: 10, Shape: Cliff, WS: 3 << 20, Floor: 0.10},
	{Name: "437.leslie3d", BaseCPI: 0.6, APKI: 14, Shape: Smooth, WS: 5 << 20, Floor: 0.45},
	{Name: "454.calculix", BaseCPI: 0.5, APKI: 1, Shape: Tiny, WS: 512 << 10, Floor: 0.10},
	{Name: "459.GemsFDTD", BaseCPI: 0.7, APKI: 15, Shape: Stream, Floor: 0.80},
	{Name: "462.libquantum", BaseCPI: 0.5, APKI: 25, Shape: Stream, Floor: 0.95},
	{Name: "470.lbm", BaseCPI: 0.6, APKI: 22, Shape: Stream, Floor: 0.90},
	{Name: "471.omnetpp", BaseCPI: 1.0, APKI: 30, Shape: Cliff, WS: 6 << 20, Floor: 0.12},
	{Name: "473.astar", BaseCPI: 0.9, APKI: 12, Shape: Smooth, WS: 4 << 20, Floor: 0.20},
	{Name: "482.sphinx3", BaseCPI: 0.8, APKI: 13, Shape: Smooth, WS: 8 << 20, Floor: 0.15},
	{Name: "483.xalancbmk", BaseCPI: 0.9, APKI: 20, Shape: Cliff, WS: 4 << 20, Floor: 0.15},
}

// ByName returns the profile with the given name.
func ByName(name string) (Profile, bool) {
	for _, p := range Profiles {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// MissRatio samples the profile's miss-ratio curve on a grid of `points`
// steps of `unit` bytes each (callers use the machine's way size so all
// curves share a grid).
func (p Profile) MissRatio(unit float64, points int) mrc.Curve {
	if unit <= 0 || points < 1 {
		panic(fmt.Sprintf("workload: bad curve grid (%g, %d)", unit, points))
	}
	pts := make([]float64, points+1)
	for i := range pts {
		pts[i] = p.missRatioAt(float64(i) * unit)
	}
	return mrc.New(unit, pts)
}

// missRatioAt evaluates the parametric family at capacity s bytes.
func (p Profile) missRatioAt(s float64) float64 {
	switch p.Shape {
	case Stream:
		// Tiny reuse pocket, then the floor.
		return p.Floor + (1-p.Floor)*math.Exp(-s/(256<<10))
	case Cliff:
		// Logistic cliff at the working set with a 10%-of-WS transition.
		k := 10 / (p.WS * 0.1)
		drop := 1 / (1 + math.Exp(-k*(s-p.WS)))
		return p.Floor + (1-p.Floor)*(1-drop)
	case Smooth:
		return p.Floor + (1-p.Floor)*math.Exp(-2*s/p.WS)
	case Tiny:
		return p.Floor + (1-p.Floor)*math.Exp(-4*s/p.WS)
	}
	panic(fmt.Sprintf("workload: unknown shape %d", p.Shape))
}

// RandomMix draws n profiles uniformly with replacement — the paper's
// "random mix of sixteen SPEC applications".
func RandomMix(rng *rand.Rand, n int) []Profile {
	out := make([]Profile, n)
	for i := range out {
		out[i] = Profiles[rng.Intn(len(Profiles))]
	}
	return out
}
