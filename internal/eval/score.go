package eval

import (
	"math"
	"runtime"
	"sort"
	"sync"

	"orfdisk/internal/smart"
	"orfdisk/internal/stats"
)

// Scorer maps a feature vector to a failure score; higher means more
// failure-like. The offline models take vectors scaled by the corpus's
// fitted scaler, the ORF unscaled ones (see unscaled). Probabilities,
// decision values and log-odds all qualify — only the ordering matters
// for operating-point tuning.
type Scorer func(x []float64) float64

// DiskScores holds, per disk of the test set, the score that determines
// its disk-level outcome under section 4.3's definitions:
//
//   - a failed disk is detected iff ANY sample of its final week scores
//     at or above the threshold, so its score is the max over that week;
//   - a good disk is falsely alarmed iff ANY sample outside its latest
//     week scores at or above the threshold, so its score is the max
//     over that region.
type DiskScores struct {
	Failed []float64 // one max-score per failed disk
	Good   []float64 // one max-score per good disk
}

// ScoreTestDisks evaluates scorer over the test split in parallel and
// reduces each disk to its decision-relevant max score.
func ScoreTestDisks(disks []TestDisk, scorer Scorer) DiskScores {
	return scoreTestDisksH(disks, scorer, smart.PredictionHorizonDays)
}

// scoreTestDisksH is ScoreTestDisks with an explicit prediction horizon.
func scoreTestDisksH(disks []TestDisk, scorer Scorer, horizon int) DiskScores {
	type result struct {
		score  float64
		failed bool
		valid  bool
	}
	results := make([]result, len(disks))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	chunk := max(1, (len(disks)+workers-1)/workers)
	for lo := 0; lo < len(disks); lo += chunk {
		hi := min(lo+chunk, len(disks))
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				d := &disks[i]
				if len(d.Days) == 0 {
					continue
				}
				lastDay := d.Days[len(d.Days)-1]
				max := math.Inf(-1)
				valid := false
				for j, day := range d.Days {
					inFinalWeek := day > lastDay-horizon
					if d.Meta.Failed != inFinalWeek {
						// Failed disks are judged on their final week;
						// good disks on everything outside it.
						continue
					}
					valid = true
					if s := scorer(d.X[j]); s > max {
						max = s
					}
				}
				results[i] = result{score: max, failed: d.Meta.Failed, valid: valid}
			}
		}(lo, hi)
	}
	wg.Wait()

	var ds DiskScores
	for _, r := range results {
		if !r.valid {
			continue
		}
		if r.failed {
			ds.Failed = append(ds.Failed, r.score)
		} else {
			ds.Good = append(ds.Good, r.score)
		}
	}
	return ds
}

// Rates returns the disk-level FDR and FAR (percent) at a threshold.
func (ds DiskScores) Rates(threshold float64) (fdr, far float64) {
	var c stats.Confusion
	for _, s := range ds.Failed {
		c.Add(stats.DiskOutcome{Failed: true, Alarmed: s >= threshold})
	}
	for _, s := range ds.Good {
		c.Add(stats.DiskOutcome{Failed: false, Alarmed: s >= threshold})
	}
	return c.FDR(), c.FAR()
}

// ThresholdForFAR returns the smallest threshold whose FAR does not
// exceed targetFAR percent — the operating point the paper's figures use
// ("all points ensure FARs around 1.0%"). With no good disks it returns
// +Inf is avoided by returning 0.5.
func (ds DiskScores) ThresholdForFAR(targetFAR float64) float64 {
	n := len(ds.Good)
	if n == 0 {
		return 0.5
	}
	sorted := append([]float64(nil), ds.Good...)
	sort.Float64s(sorted)
	// Allow at most floor(target% of n) good disks at/above the
	// threshold.
	allowed := int(targetFAR / 100 * float64(n))
	if allowed >= n {
		return sorted[0]
	}
	// Threshold just above the (allowed+1)-th largest good score.
	cut := sorted[n-1-allowed]
	return math.Nextafter(cut, math.Inf(1))
}

// ThresholdNearFAR picks, among all meaningful thresholds, the one whose
// FAR lands closest to targetFAR percent without exceeding 2x the target
// (ties break toward the lower FAR). This matches the paper's protocol —
// "all points ensure FARs around 1.0%" — and is robust to the coarse
// score granularity of small ensembles, where no threshold achieves the
// target exactly. Falls back to the strict ThresholdForFAR when every
// nonzero-FAR threshold overshoots the allowance.
func (ds DiskScores) ThresholdNearFAR(targetFAR float64) float64 {
	n := len(ds.Good)
	if n == 0 {
		return 0.5
	}
	sorted := append([]float64(nil), ds.Good...)
	sort.Float64s(sorted)
	bestTh := math.NaN()
	bestDist := math.Inf(1)
	consider := func(th float64) {
		_, far := ds.Rates(th)
		if far > 2*targetFAR {
			return
		}
		dist := math.Abs(far - targetFAR)
		if dist < bestDist-1e-12 || (math.Abs(dist-bestDist) <= 1e-12 && far < targetFAR) {
			bestDist = dist
			bestTh = th
		}
	}
	// Candidate thresholds: just above each distinct good score, plus
	// at-or-below the minimum (FAR 100%).
	consider(sorted[0])
	for i := 0; i < n; i++ {
		if i+1 < n && sorted[i+1] == sorted[i] {
			continue
		}
		consider(math.Nextafter(sorted[i], math.Inf(1)))
	}
	if math.IsNaN(bestTh) {
		return ds.ThresholdForFAR(targetFAR)
	}
	return bestTh
}

// FDRAtFAR is the headline figure statistic: the failure detection rate
// achievable at an operating point with FAR near targetFAR percent
// (at most 2x). It returns the FDR and the realized FAR.
func (ds DiskScores) FDRAtFAR(targetFAR float64) (fdr, far float64) {
	return ds.Rates(ds.ThresholdNearFAR(targetFAR))
}

// AUC returns the threshold-free area under the disk-level ROC curve —
// a summary of the whole FDR/FAR trade-off rather than one operating
// point.
func (ds DiskScores) AUC() float64 {
	return stats.AUC(ds.Failed, ds.Good)
}
