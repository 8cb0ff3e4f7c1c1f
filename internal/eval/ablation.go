package eval

import (
	"orfdisk/internal/core"
	"orfdisk/internal/smart"
)

// AblationReplacement isolates the value of the OOBE-driven tree
// discard (Algorithm 1 lines 20-28): two identical ORFs consume the same
// chronological stream, one with replacement enabled and one without,
// and are evaluated month by month over the whole fleet at a threshold
// calibrated at deployment. On a drifting fleet the no-replacement
// variant ages like an offline model — which is exactly the paper's
// argument for the mechanism.
func AblationReplacement(c *Corpus, deployMonth int, targetFAR float64, base core.Config, seed uint64) []Series {
	if deployMonth <= 0 {
		deployMonth = 6
	}
	if targetFAR <= 0 {
		targetFAR = 1.0
	}
	variants := []struct {
		name    string
		disable bool
	}{
		{"ORF with replacement", false},
		{"ORF without replacement", true},
	}
	out := make([]Series, len(variants))
	for vi, v := range variants {
		cfg := base
		cfg.Seed = seed
		cfg.DisableReplacement = v.disable
		runner := NewORFRunner(len(c.Features), smart.PredictionHorizonDays, cfg)
		deployDay := deployMonth * smart.DaysPerMonth
		cursor := runner.ConsumeThroughDay(c, 0, deployDay)
		th := calibrate(c, runner.Scorer(), deployMonth-3, deployMonth, targetFAR)

		s := Series{Name: v.name}
		for month := deployMonth; month < c.Months(); month++ {
			ds := monthDiskScores(c.AllDiskViews(), runner.Scorer(), month)
			fdr, far := ds.Rates(th)
			s.Months = append(s.Months, month+1)
			s.FDR = append(s.FDR, fdr)
			s.FAR = append(s.FAR, far)
			cursor = runner.ConsumeThroughDay(c, cursor, (month+1)*smart.DaysPerMonth)
		}
		out[vi] = s
	}
	return out
}
