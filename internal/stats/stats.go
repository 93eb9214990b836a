// Package stats provides the small set of summary statistics used throughout
// the Jumanji evaluation: percentiles for tail latency, geometric means for
// speedups, and box-and-whisker summaries for the distribution plots
// (Fig. 13 of the paper).
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It copies xs, so the input is not
// reordered. Percentile panics if xs is empty or p is out of range (or NaN),
// since a percentile of nothing is a programming error in the callers of this
// package.
//
// The result is bitwise what sorting a copy and interpolating gives: the
// lower order statistic comes from OrderStat, which selects it in linear
// expected time instead of sorting (and sorts when the values hold a NaN or
// a ±0), and the upper one is the smallest value OrderStat left after it.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if !(p >= 0 && p <= 100) {
		panic(fmt.Sprintf("stats: percentile %v out of range [0,100]", p))
	}
	if len(xs) == 1 {
		return xs[0]
	}
	work := make([]float64, len(xs))
	copy(work, xs)
	lo, hi, frac := closestRanks(len(work), p)
	v := OrderStat(work, lo)
	if lo == hi {
		return v
	}
	// OrderStat left every larger order statistic after lo, so the next one
	// is the smallest of them.
	return lerp(v, Min(work[lo+1:]), frac)
}

// OrderStat returns the k-th smallest value of xs, counting from 0: bitwise
// the value sort.Float64s would put at xs[k]. It reorders xs, leaving xs[k]
// there, no value before it that sorts after it and none after it that
// sorts before it. It selects in linear expected time (selectRank) unless
// xs holds a NaN or a ±0. A selection fixes the value at a rank, not which
// of several equal values lands there; that is the same bits for every
// value except ±0, which compare equal, and NaN, which compares unequal to
// everything, so for those OrderStat sorts xs (sort.Float64s) and even the
// sign of a zero result matches the sort. It panics if k is out of range.
func OrderStat(xs []float64, k int) float64 {
	if k < 0 || k >= len(xs) {
		panic(fmt.Sprintf("stats: order statistic %d of %d values", k, len(xs)))
	}
	for _, x := range xs {
		if x != x || x == 0 {
			sort.Float64s(xs)
			return xs[k]
		}
	}
	selectRank(xs, k)
	return xs[k]
}

// percentileSorted computes the percentile of an already-sorted slice.
func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	lo, hi, frac := closestRanks(len(sorted), p)
	if lo == hi {
		return sorted[lo]
	}
	return lerp(sorted[lo], sorted[hi], frac)
}

// closestRanks returns the two ranks around the p-th percentile of n sorted
// values and the weight of the upper one.
func closestRanks(n int, p float64) (lo, hi int, frac float64) {
	rank := p / 100 * float64(n-1)
	lo = int(math.Floor(rank))
	hi = int(math.Ceil(rank))
	return lo, hi, rank - float64(lo)
}

// lerp interpolates between the order statistics at two adjacent ranks.
// Percentile and percentileSorted share it so both round alike.
func lerp(lo, hi, frac float64) float64 {
	return lo*(1-frac) + hi*frac
}

// selectRank reorders xs, which holds no NaN, so that xs[k] is the value a
// sort would put there, no value before it is larger and none after it is
// smaller. It is quickselect with a median-of-three pivot and a three-way
// partition, so runs of equal values cost one pass. After about 2·log2(n)
// rounds without finishing it sorts what is left, which bounds the worst
// case at O(n log n).
func selectRank(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	for budget := 2 * bits.Len(uint(len(xs))); hi > lo; budget-- {
		if budget == 0 {
			sort.Float64s(xs[lo : hi+1])
			return
		}
		pivot := medianOf3(xs[lo], xs[lo+(hi-lo)/2], xs[hi])
		// Dijkstra's partition: xs[lo:lt] < pivot, xs[lt:i] == pivot,
		// xs[gt+1:hi+1] > pivot, xs[i:gt+1] unread.
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch v := xs[i]; {
			case v < pivot:
				xs[lt], xs[i] = v, xs[lt]
				lt++
				i++
			case v > pivot:
				xs[i], xs[gt] = xs[gt], v
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return // xs[lt:gt+1] all equal the pivot, k among them
		}
	}
}

// medianOf3 returns the median of three values, none of them NaN.
func medianOf3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		return a
	}
	return b
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Gmean returns the geometric mean of xs, or 0 for an empty slice.
// All values must be positive; Gmean panics otherwise because speedups
// are strictly positive by construction.
func Gmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: Gmean of non-positive value %v", x))
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// Max returns the maximum of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs. It panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// BoxPlot summarizes a distribution the way Fig. 13 of the paper plots one:
// quartile box plus whiskers at the furthest data points.
type BoxPlot struct {
	Min    float64 // lower whisker: furthest low data point
	Q1     float64 // lower quartile
	Median float64
	Q3     float64 // upper quartile
	Max    float64 // upper whisker: furthest high data point
	N      int     // number of samples summarized
}

// Summarize computes the box-and-whisker summary of xs.
// It panics on an empty slice.
func Summarize(xs []float64) BoxPlot {
	if len(xs) == 0 {
		panic("stats: Summarize of empty slice")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return BoxPlot{
		Min:    sorted[0],
		Q1:     percentileSorted(sorted, 25),
		Median: percentileSorted(sorted, 50),
		Q3:     percentileSorted(sorted, 75),
		Max:    sorted[len(sorted)-1],
		N:      len(sorted),
	}
}

// String renders the box plot as "min/Q1/med/Q3/max (n=N)" with three
// significant digits, which is how cmd/figures prints distributions.
func (b BoxPlot) String() string {
	return fmt.Sprintf("%.3g/%.3g/%.3g/%.3g/%.3g (n=%d)", b.Min, b.Q1, b.Median, b.Q3, b.Max, b.N)
}
