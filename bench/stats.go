package main

import (
	"math"
	"slices"

	"fairnn/internal/stats"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: with fewer, a single outlier decides it.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of ascending samples,
// and false when fewer than minBeyond samples lie above it.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	k := int(math.Ceil(q*float64(n) - 1e-9)) // 1-based rank
	if k < 1 {
		k = 1
	}
	if n-k < minBeyond {
		return 0, false
	}
	return sorted[k-1], true
}

// median returns the median of values (the mean of the middle two for an
// even count); values is not modified.
func median(values []float64) float64 {
	s := slices.Sorted(slices.Values(values))
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// chiSquare tests observed bin counts against expected counts of the same
// total. Bins with no expected mass are skipped; the degrees of freedom
// are the remaining bins minus one.
func chiSquare(observed, expected []float64) (stat float64, df int, p float64) {
	for i, e := range expected {
		if e <= 0 {
			continue
		}
		d := observed[i] - e
		stat += d * d / e
		df++
	}
	df--
	if df < 1 {
		return stat, df, 1
	}
	return stat, df, stats.ChiSquareSurvival(stat, float64(df))
}
