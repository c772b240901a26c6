package stats

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {90, 4.6}, {25, 2},
	} {
		if got := Percentile(xs, tc.p); !near(got, tc.want) {
			t.Errorf("Percentile(%v, %v) = %v, want %v", xs, tc.p, got, tc.want)
		}
	}
	if got := Median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("Median = %v, want 2.5", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile of no values should be NaN")
	}
	if xs[0] != 5 {
		t.Error("Percentile reordered its input")
	}
}

// TestQuartiles pins the values CPython's statistics.quantiles(xs, n=4)
// returns for the same inputs.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		q1, q3 := Quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("Quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if q1, _ := Quartiles([]float64{1}); !math.IsNaN(q1) {
		t.Error("Quartiles of one value should be NaN")
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4, 16}); !near(got, 4) {
		t.Errorf("GeoMean = %v, want 4", got)
	}
	if got := GeoMean([]float64{2}); !near(got, 2) {
		t.Errorf("GeoMean = %v, want 2", got)
	}
	for _, xs := range [][]float64{nil, {1, 0}, {2, -1}} {
		if !math.IsNaN(GeoMean(xs)) {
			t.Errorf("GeoMean(%v) should be NaN", xs)
		}
	}
}
