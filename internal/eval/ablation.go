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
	disks := unscaled(c.AllDiskViews())
	out := make([]Series, len(variants))
	for vi, v := range variants {
		cfg := base
		cfg.Seed = seed
		cfg.DisableReplacement = v.disable
		orf := newORFStream(c, smart.PredictionHorizonDays, cfg)
		orf.absorbUntil(deployMonth * smart.DaysPerMonth)
		th := calibrate(disks, orf.scorer(), deployMonth-3, deployMonth, targetFAR)

		s := Series{Name: v.name}
		for month := deployMonth; month < c.Months(); month++ {
			fdr, far := monthDiskScores(disks, orf.scorer(), month).Rates(th)
			s.add(month+1, fdr, far)
			orf.absorbUntil((month + 1) * smart.DaysPerMonth)
		}
		out[vi] = s
	}
	return out
}
