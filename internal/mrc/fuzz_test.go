package mrc

import (
	"math"
	"testing"
)

// curveFromBytes decodes a fuzz payload into curve points in [0, 25.5].
func curveFromBytes(data []byte) []float64 {
	if len(data) == 0 {
		return []float64{1}
	}
	if len(data) > 200 {
		data = data[:200]
	}
	pts := make([]float64, len(data))
	for i, b := range data {
		pts[i] = float64(b) / 10
	}
	return pts
}

// FuzzConvexHull checks ConvexHullInto, IsConvex and resampleHull bitwise
// against their references (convexHullRef, isConvexRef, resampleHullRef)
// on arbitrary curves: bytes 251-255 decode to a negative point, −0, −Inf,
// +Inf and NaN (hullCurveFromBytes), a non-zero scale multiplies the curve
// by scale/16 first (an access-rate-scaled curve, as the placers hull), and
// alias hulls the curve into its own backing (the fallback that keeps the
// input intact). On finite non-negative curves it also checks the hull
// invariants: convex, non-increasing, pointwise at or below the monotone
// curve, endpoints anchored.
func FuzzConvexHull(f *testing.F) {
	f.Add([]byte{100, 100, 100, 0}, uint8(0), false)
	f.Add([]byte{50, 60, 10, 10, 5}, uint8(0), false)
	f.Add([]byte{0}, uint8(0), false)
	f.Add([]byte{30, 40}, uint8(0), true)
	f.Add([]byte{200, 150, 150, 20, 19, 0}, uint8(37), false)
	f.Add([]byte{90, 255, 40, 30, 10}, uint8(16), true)
	f.Add([]byte{254, 80, 252, 253, 10, 251}, uint8(3), false)
	f.Fuzz(func(t *testing.T, data []byte, scale uint8, alias bool) {
		c := Curve{Unit: 1, M: hullCurveFromBytes(data)}
		if scale > 0 {
			c = c.ScaleInto(make([]float64, len(c.M)), float64(scale)/16)
		}
		h := checkHullKernels(t, c, alias)
		for _, v := range c.M {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		mono := c.Monotone()
		if !h.IsConvex(1e-9) {
			t.Fatalf("hull not convex: in=%v out=%v", c.M, h.M)
		}
		for i := range h.M {
			if h.M[i] > mono.M[i]+1e-9 {
				t.Fatalf("hull above curve at %d", i)
			}
			if h.M[i] < 0 {
				t.Fatalf("hull negative at %d", i)
			}
		}
		n := len(h.M)
		if diff(h.M[0], mono.M[0]) > 1e-9 || diff(h.M[n-1], mono.M[n-1]) > 1e-9 {
			t.Fatal("hull endpoints moved")
		}
	})
}

// combineCurvesFromBytes decodes a FuzzCombine payload into 1-8 curves:
// n picks the count and data is dealt out in equal consecutive chunks, one
// per curve, decoded like curveFromBytes except that byte 255 becomes NaN
// (the chaos curve-nan fault). The curves bypass New, which rejects NaN.
func combineCurvesFromBytes(n uint8, data []byte) (curves []Curve, finite bool) {
	k := 1 + int(n)%8
	finite = true
	for i := 0; i < k; i++ {
		chunk := data[i*len(data)/k : (i+1)*len(data)/k]
		pts := curveFromBytes(chunk)
		for j, b := range chunk[:len(pts)] {
			if b == 255 {
				pts[j] = math.NaN()
				finite = false
			}
		}
		curves = append(curves, Curve{Unit: 1, M: pts})
	}
	return curves, finite
}

// FuzzCombine checks CombineHullsInto fed 1-8 curves' ConvexHullInto
// outputs, and MergeGainRuns fed the same hulls' kept AppendGainRun runs,
// bitwise against the global-sort reference (combineGlobalSort) on the raw
// curves, and the Whirlpool combination invariants on finite input:
// monotone, convex, correct length and endpoints.
func FuzzCombine(f *testing.F) {
	f.Add(uint8(1), []byte{100, 50, 20, 80, 10})
	f.Add(uint8(1), []byte{0, 254, 0})
	// Hulls whose resampled gains rise by an ulp (the run-repair path).
	f.Add(uint8(0), []byte{157, 112, 64, 116, 175})
	f.Add(uint8(2), []byte{88, 26, 139, 149, 37, 226, 15, 218, 157, 112, 64, 116, 175, 119, 84, 48, 3, 143})
	// NaN points (the sort.Float64s fallback), alone and beside finite curves.
	f.Add(uint8(0), []byte{200, 255, 30, 10})
	f.Add(uint8(1), []byte{50, 10, 255, 40, 20, 10})
	f.Add(uint8(3), []byte{90, 40, 10, 255, 60, 20, 5, 0, 70, 255, 255, 1, 80, 30})
	f.Add(uint8(7), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 255, 100, 90, 80, 70, 60})
	// Run repair beside a NaN curve (the fallback wins), and repair in
	// several runs at once, for both entries.
	f.Add(uint8(1), []byte{157, 112, 64, 116, 175, 255, 40, 20, 10, 5})
	f.Add(uint8(4), []byte{157, 112, 64, 116, 175, 88, 26, 139, 149, 37, 226, 15, 218, 157, 112, 64, 116, 175, 119, 84, 48, 3, 143, 157, 112})
	f.Fuzz(func(t *testing.T, n uint8, data []byte) {
		curves, finite := combineCurvesFromBytes(n, data)
		comb := hullAndCombine(curves...)
		want := combineGlobalSort(curves...)
		if !bitsEqual(comb.M, want.M) {
			t.Fatalf("CombineHullsInto differs from the global-sort reference:\n got %v\nwant %v\n  in %v", comb.M, want.M, curves)
		}
		if kept := hullAndMerge(t, curves...); !bitsEqual(kept.M, want.M) {
			t.Fatalf("MergeGainRuns differs from the global-sort reference:\n got %v\nwant %v\n  in %v", kept.M, want.M, curves)
		}
		if !finite {
			return
		}
		wantLen := 1
		start, last := 0.0, 0.0
		for _, c := range curves {
			wantLen += len(c.M) - 1
			h := c.ConvexHull()
			start += h.M[0]
			last += h.M[len(h.M)-1]
		}
		if len(comb.M) != wantLen {
			t.Fatalf("combined length %d, want %d", len(comb.M), wantLen)
		}
		if !comb.IsConvex(1e-6) {
			t.Fatal("combined curve not convex")
		}
		if diff(comb.M[0], start) > 1e-6 {
			t.Fatalf("combined start %v, want %v", comb.M[0], start)
		}
		if comb.M[len(comb.M)-1] > last+1e-6 {
			t.Fatal("combined end above the sum of minima")
		}
	})
}

func diff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}
