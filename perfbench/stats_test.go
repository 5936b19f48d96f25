package main

import (
	"math"
	"testing"
)

func TestTailReportableNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{0, 0.9, false},
		{10, 0.9, false},
		{99, 0.9, false}, // rank 90, 9 beyond
		{100, 0.9, true}, // rank 90, 10 beyond
		{101, 0.9, true}, // rank 91, 10 beyond
		{110, 0.9, true},
		{999, 0.99, false},
		{1000, 0.99, true},
		{20, 0.5, true},
		{19, 0.5, false},
	} {
		if got := tailReportable(tc.n, tc.p); got != tc.want {
			t.Errorf("tailReportable(%d, %v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if got := percentile(xs, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("p90 of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if xs[0] != 3 {
		t.Errorf("median reordered its input: %v", xs)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
}
