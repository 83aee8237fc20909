package main

import (
	"math"
	"slices"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted,
// which must be ascending and non-empty: the smallest value with at least
// q of the samples at or below it. No interpolation, so every reported
// latency is one that was actually measured.
func percentile(sorted []int32, q float64) int32 {
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// median returns the middle value of vals (mean of the two middle values
// for an even count). vals is not modified.
func median(vals []float64) float64 {
	s := sortedCopy(vals)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the exclusive method
// Python's statistics.quantiles(vals, n=4) uses, which is what the PR
// driver computes spreads with. Fewer than two values give (v, v).
func quartiles(vals []float64) (q1, q3 float64) {
	s := sortedCopy(vals)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	slices.Sort(s)
	return s
}

// nanosToMicros sorts nanosecond samples in place and returns the requested
// quantiles in microseconds (zeros when there are no samples).
func nanosToMicros(samples []int32, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(samples) == 0 {
		return out
	}
	slices.Sort(samples)
	for i, q := range qs {
		out[i] = float64(percentile(samples, q)) / 1e3
	}
	return out
}
