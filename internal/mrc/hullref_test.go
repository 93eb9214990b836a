package mrc

import (
	"math"
	"math/rand"
	"testing"
)

// The hull kernels as they were before ConvexHullInto fused its monotone
// and chain passes, resampleHull went segment by segment and IsConvex became
// one pass. They are kept here as the references the new kernels are pinned
// to, bit for bit (TestHullKernelsMatchReference, FuzzConvexHull).

// convexHullRef is the two-pass ConvexHullInto: a monotone pass into its
// own backing, then Andrew's monotone chain over it, then resampleHullRef.
func convexHullRef(c Curve) Curve {
	n := len(c.M)
	dst := make([]float64, n)
	if n == 0 {
		return Curve{Unit: c.Unit, M: dst}
	}
	dst[0] = c.M[0]
	for i := 1; i < n; i++ {
		dst[i] = c.M[i]
		if dst[i] > dst[i-1] {
			dst[i] = dst[i-1]
		}
	}
	out := Curve{Unit: c.Unit, M: dst}
	if n <= 2 {
		return out
	}
	resampleHullRef(dst, chainRef(dst))
	return out
}

// chainRef is Andrew's monotone chain over the points (i, mono[i]): the
// vertices of their lower hull.
func chainRef(mono []float64) []pt {
	var hull []pt
	for i := range mono {
		p := pt{float64(i), mono[i]}
		for len(hull) >= 2 {
			a, b := hull[len(hull)-2], hull[len(hull)-1]
			if (b.y-a.y)*(p.x-a.x) >= (p.y-a.y)*(b.x-a.x) {
				hull = hull[:len(hull)-1]
			} else {
				break
			}
		}
		hull = append(hull, p)
	}
	return hull
}

// resampleHullRef is the point-by-point resample: every grid point searches
// forward for its segment.
func resampleHullRef(dst []float64, hull []pt) {
	seg := 0
	for i := range dst {
		x := float64(i)
		for seg < len(hull)-2 && hull[seg+1].x <= x {
			seg++
		}
		a, b := hull[seg], hull[min(seg+1, len(hull)-1)]
		if a.x == b.x {
			dst[i] = a.y
			continue
		}
		t := (x - a.x) / (b.x - a.x)
		dst[i] = a.y + t*(b.y-a.y)
	}
}

// isConvexRef is the two-pass IsConvex: monotonicity first, then the
// second differences.
func isConvexRef(c Curve, eps float64) bool {
	for i := 1; i < len(c.M); i++ {
		if c.M[i] > c.M[i-1]+eps {
			return false
		}
	}
	for i := 2; i < len(c.M); i++ {
		d1 := c.M[i-1] - c.M[i-2]
		d2 := c.M[i] - c.M[i-1]
		if d2 < d1-eps {
			return false
		}
	}
	return true
}

// hullCurveFromBytes decodes a FuzzConvexHull payload like curveFromBytes,
// except that bytes 251-255 become the values the chaos faults and float
// arithmetic can leave in a curve: a negative point, −0, −Inf, +Inf and NaN.
func hullCurveFromBytes(data []byte) []float64 {
	pts := curveFromBytes(data)
	for i, b := range data[:min(len(data), len(pts))] {
		switch b {
		case 251:
			pts[i] = -1
		case 252:
			pts[i] = math.Copysign(0, -1)
		case 253:
			pts[i] = math.Inf(-1)
		case 254:
			pts[i] = math.Inf(1)
		case 255:
			pts[i] = math.NaN()
		}
	}
	return pts
}

// checkHullKernels compares ConvexHullInto (into fresh backing and, when
// alias is set, into the curve's own backing), IsConvex and resampleHull
// with their references on c.
func checkHullKernels(t testing.TB, c Curve, alias bool) Curve {
	t.Helper()
	want := convexHullRef(c)
	in := append([]float64(nil), c.M...)
	dst := make([]float64, len(c.M))
	if alias {
		dst = c.M
	}
	got := c.ConvexHullInto(dst)
	if !bitsEqual(got.M, want.M) || got.Unit != want.Unit {
		t.Fatalf("ConvexHullInto (alias %v) differs from the reference:\n got %v\nwant %v\n  in %v", alias, got.M, want.M, in)
	}
	if !bitsEqual(c.M, in) {
		t.Fatalf("ConvexHullInto (alias %v) changed its input: %v, was %v", alias, c.M, in)
	}
	if alias && len(c.M) > 0 && &got.M[0] == &c.M[0] {
		t.Fatal("ConvexHullInto into the input's own backing returned the input's backing")
	}
	for _, eps := range []float64{0, 1e-12, 1e-9, 1e-6} {
		for _, cv := range []Curve{c, got} {
			if g, w := cv.IsConvex(eps), isConvexRef(cv, eps); g != w {
				t.Fatalf("IsConvex(%g) = %v, reference %v on %v", eps, g, w, cv.M)
			}
		}
	}
	// resampleHull against its reference on the vertices the chain keeps.
	if n := len(c.M); n > 2 {
		hull := chainRef(c.Monotone().M)
		g, w := make([]float64, n), make([]float64, n)
		resampleHull(g, hull)
		resampleHullRef(w, hull)
		if !bitsEqual(g, w) {
			t.Fatalf("resampleHull differs from the reference:\n got %v\nwant %v\nhull %v", g, w, hull)
		}
	}
	return got
}

// TestHullKernelsMatchReference pins the fused hull, the per-segment
// resample and the one-pass IsConvex to their references on realistic
// curves at the placers' sizes (640 and 8,193 points), scaled by access
// rates, on random and cliffed curves, on curves holding NaN, ±Inf, −0 and
// negative points, and on one- and two-point curves.
func TestHullKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var curves []Curve
	for _, n := range []int{1, 2, 3, 4, 17, 640, 8193} {
		c := benchCurve(rng, n)
		h := c.ConvexHull()
		curves = append(curves, c, h)
		for _, rate := range []float64{0, 0.37, 3, 1e3} {
			curves = append(curves, c.ScaleInto(make([]float64, n), rate), h.ScaleInto(make([]float64, n), rate))
		}
		r := make([]float64, n)
		for i := range r {
			r[i] = rng.Float64() * 10
			if rng.Intn(8) == 0 && i > 0 {
				r[i] = r[i-1] // flats
			}
		}
		curves = append(curves, Curve{Unit: 1, M: r})
		specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), -2}
		for _, v := range specials {
			s := append([]float64(nil), r...)
			s[rng.Intn(n)] = v
			curves = append(curves, Curve{Unit: 1, M: s})
		}
	}
	curves = append(curves, Curve{Unit: 1, M: []float64{}},
		Curve{Unit: 1, M: []float64{0.8, 0.8, 0.8, 0.1, 0.1}},
		Curve{Unit: 1, M: []float64{math.Copysign(0, -1), math.Copysign(0, -1)}},
		Curve{Unit: 1, M: []float64{math.NaN(), 1, 0.5}})
	for _, c := range curves {
		for _, alias := range []bool{false, true} {
			checkHullKernels(t, Curve{Unit: c.Unit, M: append([]float64(nil), c.M...)}, alias)
		}
	}
}
