package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a p90 over fewer than 100 samples rests on a handful of
// ops and moves with every preemption, so it is not reported.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs,
// which it sorts in place; NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1]
}

// rank is the 1-based nearest rank of the p-quantile of n samples. The
// small slack keeps p × n from rounding up past an exact integer.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// tailReportable reports whether the p-quantile of n samples has at
// least minBeyond samples above it.
func tailReportable(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= minBeyond
}

// median of xs (mean of the middle two for an even count), without
// reordering the caller's slice; NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
