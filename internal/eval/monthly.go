package eval

import (
	"math"

	"orfdisk/internal/core"
	"orfdisk/internal/smart"
)

// MonthlyOptions configures the Figure 2/3 protocol: ORF evolves with the
// chronological training stream while the offline baselines are retrained
// each month on all data collected so far; every model is evaluated
// monthly on the fixed test split at an operating point tuned to
// TargetFAR.
type MonthlyOptions struct {
	// StartMonth is the first evaluation checkpoint (1-based count of
	// elapsed months). The paper omits the first months, where no model
	// can reach the FAR budget; default 3.
	StartMonth int
	// EndMonth is the last checkpoint; 0 means min(Months, 21), matching
	// the paper's figures which stop at month 21.
	EndMonth int
	// TargetFAR is the FAR budget in percent (paper: ~1.0).
	TargetFAR float64
	// ORFConfig configures the online model.
	ORFConfig core.Config
	// Learners are the offline baselines (RF, DT, SVM, ...).
	Learners []OfflineLearner
	// Seed drives training randomness.
	Seed uint64
}

func (o MonthlyOptions) withDefaults(months int) MonthlyOptions {
	if o.StartMonth <= 0 {
		o.StartMonth = 3
	}
	if o.EndMonth <= 0 || o.EndMonth > months {
		o.EndMonth = months
		if o.EndMonth > 21 {
			o.EndMonth = 21
		}
	}
	if o.TargetFAR <= 0 {
		o.TargetFAR = 1.0
	}
	return o
}

// Series is one model's monthly curve.
type Series struct {
	Name   string
	Months []int // checkpoint month numbers (1-based elapsed months)
	FDR    []float64
	FAR    []float64
}

// MonthlyConvergence runs the Figure 2/3 protocol and returns one series
// per model, ORF first. Missing points (a learner that cannot train yet,
// e.g. no positive samples in the first months) are NaN.
func MonthlyConvergence(c *Corpus, opt MonthlyOptions) []Series {
	opt = opt.withDefaults(c.Months())
	orfSeries := Series{Name: "ORF"}
	offSeries := make([]Series, len(opt.Learners))
	for i, l := range opt.Learners {
		offSeries[i] = Series{Name: l.Name()}
	}

	runner := NewORFRunner(len(c.Features), smart.PredictionHorizonDays, opt.ORFConfig)
	cursor := 0
	for month := 1; month <= opt.EndMonth; month++ {
		day := month * smart.DaysPerMonth
		cursor = runner.ConsumeThroughDay(c, cursor, day)
		if month < opt.StartMonth {
			continue
		}

		ds := ScoreTestDisks(c.TestDisks, runner.Scorer())
		fdr, far := ds.FDRAtFAR(opt.TargetFAR)
		orfSeries.Months = append(orfSeries.Months, month)
		orfSeries.FDR = append(orfSeries.FDR, fdr)
		orfSeries.FAR = append(orfSeries.FAR, far)

		X, y := c.OfflineTrainingSet(day)
		for i, l := range opt.Learners {
			s := &offSeries[i]
			s.Months = append(s.Months, month)
			scorer, err := l.Fit(X, y, opt.Seed+uint64(month*100+i))
			if err != nil {
				s.FDR = append(s.FDR, math.NaN())
				s.FAR = append(s.FAR, math.NaN())
				continue
			}
			dsl := ScoreTestDisks(c.TestDisks, scorer)
			fdrL, farL := dsl.FDRAtFAR(opt.TargetFAR)
			s.FDR = append(s.FDR, fdrL)
			s.FAR = append(s.FAR, farL)
		}
	}
	return append([]Series{orfSeries}, offSeries...)
}
