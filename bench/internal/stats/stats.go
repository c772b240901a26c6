// Package stats holds the order statistics the benchmark reports:
// percentiles, quartiles and geometric means.
package stats

import (
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0 <= p <= 100) of xs by
// linear interpolation between closest ranks, the estimator numpy and
// spreadsheets call "linear". It returns NaN for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// Median is the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method),
// so spreads computed here match the ones an outside check computes.
// It needs at least two values and returns NaNs otherwise.
func Quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		// CPython's integer arithmetic, clamp included: position
		// i*(n+1)/4 on the 1-based sorted data.
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// GeoMean returns the geometric mean of positive values, or NaN when
// xs is empty or holds a value <= 0.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
