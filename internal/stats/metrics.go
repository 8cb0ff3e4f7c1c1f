package stats

import (
	"fmt"
	"math"
)

// DiskOutcome aggregates per-sample predictions for one disk over an
// evaluation window, following the paper's disk-granularity metric
// definitions (section 4.3):
//
//   - A failed disk counts as detected (true positive) iff at least one
//     sample collected within the last week before its failure was
//     predicted positive.
//   - A good disk counts as a false alarm iff any of its samples collected
//     outside the latest week was predicted positive.
type DiskOutcome struct {
	Failed  bool // ground truth: did the disk fail in the window
	Alarmed bool // did the model raise at least one qualifying alarm
}

// Confusion is a disk-level confusion matrix.
type Confusion struct {
	TP, FN int // failed disks: detected / missed
	FP, TN int // good disks: falsely alarmed / quiet
}

// Add accumulates one disk outcome.
func (c *Confusion) Add(o DiskOutcome) {
	switch {
	case o.Failed && o.Alarmed:
		c.TP++
	case o.Failed && !o.Alarmed:
		c.FN++
	case !o.Failed && o.Alarmed:
		c.FP++
	default:
		c.TN++
	}
}

// FDR returns the failure detection rate TP/(TP+FN) in percent. It returns
// NaN when no failed disks are present.
func (c Confusion) FDR() float64 {
	d := c.TP + c.FN
	if d == 0 {
		return math.NaN()
	}
	return 100 * float64(c.TP) / float64(d)
}

// FAR returns the false alarm rate FP/(FP+TN) in percent. It returns NaN
// when no good disks are present.
func (c Confusion) FAR() float64 {
	d := c.FP + c.TN
	if d == 0 {
		return math.NaN()
	}
	return 100 * float64(c.FP) / float64(d)
}

// FailedDisks returns the number of failed disks in the evaluation.
func (c Confusion) FailedDisks() int { return c.TP + c.FN }

// GoodDisks returns the number of good disks in the evaluation.
func (c Confusion) GoodDisks() int { return c.FP + c.TN }

// String renders the matrix with its derived rates.
func (c Confusion) String() string {
	return fmt.Sprintf("TP=%d FN=%d FP=%d TN=%d FDR=%.2f%% FAR=%.2f%%",
		c.TP, c.FN, c.FP, c.TN, c.FDR(), c.FAR())
}

// MeanStd summarizes repeated experiment measurements the way the paper
// reports them: "mean +/- standard deviation" over repetitions.
type MeanStd struct {
	Mean, Std float64
	N         int
}

// Summarize computes the mean and sample standard deviation of xs,
// ignoring NaN entries (repetitions whose rate was undefined).
func Summarize(xs []float64) MeanStd {
	var sum float64
	n := 0
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		sum += x
		n++
	}
	if n == 0 {
		return MeanStd{Mean: math.NaN(), Std: math.NaN()}
	}
	mean := sum / float64(n)
	var ss float64
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		d := x - mean
		ss += d * d
	}
	std := 0.0
	if n > 1 {
		std = math.Sqrt(ss / float64(n-1))
	}
	return MeanStd{Mean: mean, Std: std, N: n}
}

// String renders "mean +/- std" with two decimals, matching the paper's
// table formatting.
func (m MeanStd) String() string {
	if math.IsNaN(m.Mean) {
		return "n/a"
	}
	return fmt.Sprintf("%.2f ± %.2f", m.Mean, m.Std)
}
