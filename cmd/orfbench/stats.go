package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middle values for an
// even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns Q1 and Q3 by the exclusive method, the one Python's
// statistics.quantiles(xs, n=4) uses, so spreads computed here match
// the acceptance check. Fewer than two values give (x, x).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		// Position k*(n+1)/4, 1-based, clamped into the sample.
		j := k * (n + 1) / 4
		d := k*(n+1) - 4*j
		if j < 1 {
			j, d = 1, 0
		}
		if j > n-1 {
			j, d = n-1, 4
		}
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// tailPercentile names the highest percentile a sample supports: the
// one with at least ten samples beyond it, stepping through the usual
// p50, p90, p99, p99.9 ladder. It returns the percentile in per mille
// (990 for p99) and its value; sorted must be ascending. With fewer
// than a hundred samples nothing above the median is supported.
func tailPercentile(sorted []float64) (perMille int, v float64) {
	perMille = 500
	for _, c := range []int{900, 990, 999} {
		if beyond(len(sorted), c) >= 10 {
			perMille = c
		}
	}
	return perMille, percentile(sorted, perMille)
}

// rank is the 1-based nearest-rank position of a per-mille percentile
// in a sample of n: the smallest rank with at least that share of the
// sample at or below it. Integer arithmetic, so 900 of 100 is rank 90.
func rank(n, perMille int) int {
	r := (n*perMille + 999) / 1000
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank percentile of an ascending sample.
func percentile(sorted []float64, perMille int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), perMille)-1]
}

// beyond counts the samples strictly past the percentile's position.
func beyond(n, perMille int) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, perMille)
}
