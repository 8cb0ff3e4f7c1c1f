package eval

import "orfdisk/internal/core"

// HorizonRow is one row of the horizon sweep: the prediction performance
// of the offline RF and the ORF when "failure" means "fails within H
// days" instead of the paper's fixed 7.
type HorizonRow struct {
	Horizon        int
	RFFDR, RFFAR   float64
	ORFFDR, ORFFAR float64
	TrainPositives int
}

// HorizonSweep varies the prediction horizon — the paper fixes 7 days
// "for the sake of simplicity"; this experiment quantifies what that
// choice buys. Longer horizons multiply the positive sample count (H
// samples per failed disk) but dilute them with weaker early-degradation
// samples; shorter horizons are crisper but scarcer. Both models are
// evaluated at an operating point near targetFAR on the test disks.
func HorizonSweep(c *Corpus, horizons []int, targetFAR float64,
	rf RFLearner, orfCfg core.Config, seed uint64) []HorizonRow {

	if targetFAR <= 0 {
		targetFAR = 1.0
	}
	rows := make([]HorizonRow, 0, len(horizons))
	for hi, h := range horizons {
		if h <= 0 {
			continue
		}
		row := HorizonRow{Horizon: h}

		// Offline RF with H-day labels.
		X, y := c.offlineSetRangeH(0, c.Days, h)
		_, row.TrainPositives = countClasses(y)
		if scorer, err := rf.Fit(X, y, seed+uint64(hi)); err == nil {
			ds := scoreTestDisksH(c.TestDisks, scorer, h)
			row.RFFDR, row.RFFAR = ds.FDRAtFAR(targetFAR)
		}

		// ORF with an H-deep labeling queue over the same stream.
		cfg := orfCfg
		cfg.Seed = seed + uint64(1000+hi)
		orf := newORFStream(c, h, cfg)
		orf.absorbUntil(c.Days)
		ds := scoreTestDisksH(unscaled(c.TestDisks), orf.scorer(), h)
		row.ORFFDR, row.ORFFAR = ds.FDRAtFAR(targetFAR)

		rows = append(rows, row)
	}
	return rows
}
