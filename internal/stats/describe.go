package stats

import (
	"math"
	"sort"
)

// Description holds the usual descriptive statistics of a float sample.
type Description struct {
	N                  int
	Mean, Std          float64
	Min, Max           float64
	Median, Q1, Q3     float64
	Skewness, Kurtosis float64
}

// Describe computes descriptive statistics over xs. NaN entries are
// skipped. For an empty (or all-NaN) input every field is NaN except N=0.
func Describe(xs []float64) Description {
	clean := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			clean = append(clean, x)
		}
	}
	d := Description{N: len(clean)}
	if d.N == 0 {
		nan := math.NaN()
		d.Mean, d.Std, d.Min, d.Max = nan, nan, nan, nan
		d.Median, d.Q1, d.Q3, d.Skewness, d.Kurtosis = nan, nan, nan, nan, nan
		return d
	}
	sort.Float64s(clean)
	d.Min, d.Max = clean[0], clean[len(clean)-1]
	d.Median = Quantile(clean, 0.5)
	d.Q1 = Quantile(clean, 0.25)
	d.Q3 = Quantile(clean, 0.75)

	var sum float64
	for _, x := range clean {
		sum += x
	}
	n := float64(d.N)
	d.Mean = sum / n
	var m2, m3, m4 float64
	for _, x := range clean {
		dx := x - d.Mean
		m2 += dx * dx
		m3 += dx * dx * dx
		m4 += dx * dx * dx * dx
	}
	m2 /= n
	m3 /= n
	m4 /= n
	if d.N > 1 {
		d.Std = math.Sqrt(m2 * n / (n - 1))
	}
	if m2 > 0 {
		d.Skewness = m3 / math.Pow(m2, 1.5)
		d.Kurtosis = m4/(m2*m2) - 3
	}
	return d
}

// Quantile returns the q-quantile (0 <= q <= 1) of sorted data using
// linear interpolation between closest ranks. data must be sorted
// ascending and non-empty.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
