package stats

import (
	"math"
	"sort"
)

// KSResult reports a two-sample Kolmogorov-Smirnov test.
type KSResult struct {
	D      float64 // max |F1 - F2|, the KS statistic
	PValue float64 // asymptotic p-value
	N1, N2 int
}

// KolmogorovSmirnov runs the two-sample KS test: D is the maximum
// distance between the empirical CDFs of x and y, and the p-value uses
// the asymptotic Kolmogorov distribution. This is the statistic behind
// the paper's motivating observation that the underlying distribution of
// cumulative SMART attributes changes over time ("model aging"): large D
// between an early month and a late month of healthy-disk samples means
// an offline model's training distribution no longer matches reality.
func KolmogorovSmirnov(x, y []float64) KSResult {
	res := KSResult{N1: len(x), N2: len(y), PValue: 1}
	if len(x) == 0 || len(y) == 0 {
		return res
	}
	xs := append([]float64(nil), x...)
	ys := append([]float64(nil), y...)
	sort.Float64s(xs)
	sort.Float64s(ys)

	// Walk the pooled order, advancing BOTH pointers through ties before
	// measuring: the CDF difference is only defined between distinct
	// values, and heavy ties (SMART counters are mostly zero) would
	// otherwise inflate D.
	var i, j int
	var d float64
	for i < len(xs) && j < len(ys) {
		v := xs[i]
		if ys[j] < v {
			v = ys[j]
		}
		for i < len(xs) && xs[i] == v {
			i++
		}
		for j < len(ys) && ys[j] == v {
			j++
		}
		diff := math.Abs(float64(i)/float64(len(xs)) - float64(j)/float64(len(ys)))
		if diff > d {
			d = diff
		}
	}
	res.D = d

	n := float64(len(xs)) * float64(len(ys)) / float64(len(xs)+len(ys))
	lambda := (math.Sqrt(n) + 0.12 + 0.11/math.Sqrt(n)) * d
	res.PValue = ksProb(lambda)
	return res
}

// ksProb is the Kolmogorov survival function Q(lambda) = 2 sum_{k>=1}
// (-1)^{k-1} exp(-2 k^2 lambda^2).
func ksProb(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	var sum float64
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := sign * math.Exp(-2*float64(k*k)*lambda*lambda)
		sum += term
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	p := 2 * sum
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
