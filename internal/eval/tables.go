package eval

import (
	"fmt"

	"orfdisk/internal/core"
	"orfdisk/internal/forest"
	"orfdisk/internal/smart"
	"orfdisk/internal/stats"
)

// LambdaResult is one row of Table 3 or Table 4: the FDR/FAR achieved at
// one setting of the balance hyper-parameter, summarized over
// repetitions as mean ± std.
type LambdaResult struct {
	Param    string // "1", "3", "Max" (Table 3) or "0.02" (Table 4)
	Lambda   float64
	FDR, FAR stats.MeanStd
}

// String renders the row like the paper's tables.
func (r LambdaResult) String() string {
	return fmt.Sprintf("%-6s FDR %-14s FAR %-14s", r.Param, r.FDR, r.FAR)
}

// Table3 measures the impact of the offline NegSampleRatio λ on the RF
// baseline (paper Table 3): for each λ the forest is trained on the full
// offline-labeled training set downsampled per Eq. 4 and evaluated on
// the test disks at the plain majority threshold 0.5, repeated reps
// times with different sampling seeds.
//
// Lambda <= 0 encodes the paper's "Max" row (no downsampling).
func Table3(c *Corpus, lambdas []float64, reps int, baseCfg forest.Config, seed uint64) []LambdaResult {
	X, y := c.OfflineTrainingSet(c.Days)
	out := make([]LambdaResult, 0, len(lambdas))
	for li, lambda := range lambdas {
		var fdrs, fars []float64
		for rep := 0; rep < reps; rep++ {
			// Cap the λ=Max row's training set so unlimited-depth forests
			// on the full negative class stay tractable; the subsample is
			// uniform, preserving the imbalance the row demonstrates.
			l := RFLearner{Lambda: lambda, Config: baseCfg, MaxRows: 60000}
			s, err := l.Fit(X, y, seed+uint64(li*1000+rep))
			if err != nil {
				continue
			}
			ds := ScoreTestDisks(c.TestDisks, s)
			fdr, far := ds.Rates(0.5)
			fdrs = append(fdrs, fdr)
			fars = append(fars, far)
		}
		out = append(out, LambdaResult{
			Param:  lambdaLabel(lambda),
			Lambda: lambda,
			FDR:    stats.Summarize(fdrs),
			FAR:    stats.Summarize(fars),
		})
	}
	return out
}

func lambdaLabel(lambda float64) string {
	if lambda <= 0 {
		return "Max"
	}
	return fmt.Sprintf("%g", lambda)
}

// Table4 measures the impact of the online negative-sampling rate λn on
// the ORF model (paper Table 4): for each λn a fresh forest consumes the
// whole chronological training stream through the automatic online label
// method and is evaluated on the test disks at threshold 0.5.
func Table4(c *Corpus, lambdaNs []float64, reps int, baseCfg core.Config, seed uint64) []LambdaResult {
	out := make([]LambdaResult, 0, len(lambdaNs))
	days := c.Days
	for li, ln := range lambdaNs {
		var fdrs, fars []float64
		for rep := 0; rep < reps; rep++ {
			cfg := baseCfg
			cfg.LambdaNeg = ln
			cfg.Seed = seed + uint64(li*1000+rep)
			runner := NewORFRunner(len(c.Features), smart.PredictionHorizonDays, cfg)
			runner.ConsumeThroughDay(c, 0, days)
			ds := ScoreTestDisks(c.TestDisks, runner.Scorer())
			fdr, far := ds.Rates(0.5)
			fdrs = append(fdrs, fdr)
			fars = append(fars, far)
		}
		out = append(out, LambdaResult{
			Param:  fmt.Sprintf("%g", ln),
			Lambda: ln,
			FDR:    stats.Summarize(fdrs),
			FAR:    stats.Summarize(fars),
		})
	}
	return out
}
