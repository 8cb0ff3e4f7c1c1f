package eval

import (
	"math"

	"orfdisk/internal/core"
	"orfdisk/internal/smart"
)

// LongTermOptions configures the Figure 4-7 protocol: simulate years of
// deployment, comparing the ORF (which never retrains) against the
// offline RF under three maintenance regimes — no updating, 1-month
// replacing, and accumulation (Zhu et al., DSN'14).
type LongTermOptions struct {
	// DeployMonth is the initial training window length in months
	// (paper: 6 for STA, 4 for STB). Evaluation starts the following
	// month.
	DeployMonth int
	// EndMonth is the last evaluation month (1-based); 0 means the whole
	// window.
	EndMonth int
	// TargetFAR is the FAR budget (percent) used to calibrate each
	// model's decision threshold at deployment time; thresholds are then
	// frozen, which is what exposes model aging.
	TargetFAR float64
	// CalibMonths is how many trailing pre-deployment months the
	// threshold calibration scores (default 3).
	CalibMonths int
	// RF configures the offline forest used by all three strategies.
	RF RFLearner
	// ORFConfig configures the online model.
	ORFConfig core.Config
	// Seed drives training randomness.
	Seed uint64
}

func (o LongTermOptions) withDefaults(months int) LongTermOptions {
	if o.DeployMonth <= 0 {
		o.DeployMonth = 6
	}
	if o.EndMonth <= 0 || o.EndMonth > months {
		o.EndMonth = months
	}
	if o.TargetFAR <= 0 {
		o.TargetFAR = 1.0
	}
	if o.CalibMonths <= 0 {
		o.CalibMonths = 3
	}
	if o.CalibMonths > o.DeployMonth {
		o.CalibMonths = o.DeployMonth
	}
	return o
}

// monthDiskScores reduces the test disks to disk-level max scores for
// one calendar month (0-based): failed disks that fail within the month
// are scored over their final week; disks that demonstrably survive the
// month plus the prediction horizon are scored over their in-month
// samples. Disks failing within the horizon after month end are skipped
// as unjudgeable.
func monthDiskScores(disks []TestDisk, scorer Scorer, month int) DiskScores {
	mStart := month * smart.DaysPerMonth
	mEnd := mStart + smart.DaysPerMonth
	var ds DiskScores
	for i := range disks {
		d := &disks[i]
		m := d.Meta
		failed := m.Failed && m.FailDay >= mStart && m.FailDay < mEnd
		if !failed && m.Failed && m.FailDay < mEnd+smart.PredictionHorizonDays {
			// Failed before this month, or will fail within the horizon
			// after it: not judgeable as a good disk this month.
			continue
		}
		// A failing disk is judged on its final week, a good one on the
		// month's samples.
		lo, hi := mStart, mEnd
		if failed {
			lo, hi = m.FailDay-smart.PredictionHorizonDays+1, math.MaxInt
		}
		max := math.Inf(-1)
		seen := false
		for j, day := range d.Days {
			if day >= lo && day < hi {
				seen = true
				if s := scorer(d.X[j]); s > max {
					max = s
				}
			}
		}
		if seen && failed {
			ds.Failed = append(ds.Failed, max)
		} else if seen {
			ds.Good = append(ds.Good, max)
		}
	}
	return ds
}

// mergeScores concatenates disk scores from several months.
func mergeScores(parts ...DiskScores) DiskScores {
	var out DiskScores
	for _, p := range parts {
		out.Failed = append(out.Failed, p.Failed...)
		out.Good = append(out.Good, p.Good...)
	}
	return out
}

// calibrate returns the decision threshold hitting the FAR budget on
// disks over the months [from, to) (0-based).
func calibrate(disks []TestDisk, scorer Scorer, from, to int, targetFAR float64) float64 {
	var parts []DiskScores
	for m := from; m < to; m++ {
		parts = append(parts, monthDiskScores(disks, scorer, m))
	}
	return mergeScores(parts...).ThresholdForFAR(targetFAR)
}

// LongTerm runs the Figure 4-7 protocol and returns four series (months
// are 1-based calendar labels, starting the month after deployment):
// "No updating", "1-month replacing", "Accumulation", and "ORF".
func LongTerm(c *Corpus, opt LongTermOptions) []Series {
	opt = opt.withDefaults(c.Months())
	deployDay := opt.DeployMonth * smart.DaysPerMonth
	calibFrom := opt.DeployMonth - opt.CalibMonths

	// --- deploy the three offline variants ---
	// All offline strategies share the same initial model: RF trained on
	// everything before deployment.
	X0, y0 := c.OfflineTrainingSet(deployDay)
	noUpdScorer, noUpdErr := opt.RF.Fit(X0, y0, opt.Seed+1)
	var thNoUpd float64 = 0.5
	if noUpdErr == nil {
		thNoUpd = calibrate(c.AllDiskViews(), noUpdScorer, calibFrom, opt.DeployMonth, opt.TargetFAR)
	}

	// --- deploy the ORF ---
	orf := newORFStream(c, smart.PredictionHorizonDays, opt.ORFConfig)
	orf.absorbUntil(deployDay)
	orfDisks := unscaled(c.AllDiskViews())
	thORF := calibrate(orfDisks, orf.scorer(), calibFrom, opt.DeployMonth, opt.TargetFAR)

	series := []Series{
		{Name: "No updating"},
		{Name: "1-month replacing"},
		{Name: "Accumulation"},
		{Name: "ORF"},
	}
	// record adds month's point to s: scorer's rates over disks at th, or
	// NaN when the model could not be trained (err).
	record := func(s *Series, month int, disks []TestDisk, scorer Scorer, err error, th float64) {
		fdr, far := math.NaN(), math.NaN()
		if err == nil {
			fdr, far = monthDiskScores(disks, scorer, month).Rates(th)
		}
		s.add(month+1, fdr, far)
	}

	for month := opt.DeployMonth; month < opt.EndMonth; month++ {
		mStart := month * smart.DaysPerMonth

		// No updating: frozen model, frozen threshold.
		if noUpdErr == nil {
			record(&series[0], month, c.AllDiskViews(), noUpdScorer, nil, thNoUpd)
		}

		// 1-month replacing: retrain on the previous month only. The
		// frozen deployment threshold is reused — retraining refreshes
		// the data fit, not the operating point.
		Xr, yr := c.OfflineTrainingSetRange(mStart-smart.DaysPerMonth, mStart)
		scorer, err := opt.RF.Fit(Xr, yr, opt.Seed+uint64(10+month))
		record(&series[1], month, c.AllDiskViews(), scorer, err, thNoUpd)

		// Accumulation: retrain on everything so far.
		Xa, ya := c.OfflineTrainingSet(mStart)
		scorer, err = opt.RF.Fit(Xa, ya, opt.Seed+uint64(1000+month))
		record(&series[2], month, c.AllDiskViews(), scorer, err, thNoUpd)

		// ORF: evaluate with the state reached through month-1, then
		// absorb the month's stream (Algorithm 2 keeps running; no
		// retraining ever happens).
		record(&series[3], month, orfDisks, orf.scorer(), nil, thORF)
		orf.absorbUntil(mStart + smart.DaysPerMonth)
	}
	return series
}
