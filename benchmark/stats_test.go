package main

import (
	"math"
	"testing"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n, beyond int
	}{{1000, 10}, {999, 9}, {1100, 11}, {100, 1}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if _, beyond := percentile(xs, 99); beyond != tc.beyond {
			t.Errorf("p99 of %d samples: %d beyond, want %d", tc.n, beyond, tc.beyond)
		}
	}
}

func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 1
	}
	for i := 0; i < 10; i++ {
		xs[i] = math.Inf(1)
	}
	if v, _ := percentile(xs, 99); v != 1 {
		t.Errorf("p99 with 10 failures in 1000 = %v, want 1", v)
	}
	xs[10] = math.Inf(1)
	if v, _ := percentile(xs, 99); !math.IsInf(v, 1) {
		t.Errorf("p99 with 11 failures in 1000 = %v, want +Inf", v)
	}
	if v := median(xs); v != 1 {
		t.Errorf("median = %v, want 1", v)
	}
}

func TestTrimmedMeanDropsTheEnds(t *testing.T) {
	xs := []float64{100, 1, 2, 3, 4, 5, 6, 7, 8, -50}
	// Ten values: one dropped at each end, the mean of 1..8 remains.
	if got := trimmedMean(xs); got != 4.5 {
		t.Errorf("trimmedMean = %v, want 4.5", got)
	}
	if got := trimmedMean([]float64{3, 5}); got != 4 {
		t.Errorf("trimmedMean of two values = %v, want their mean 4", got)
	}
	if !math.IsNaN(trimmedMean(nil)) {
		t.Error("trimmedMean of no values is not NaN")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}
