package stats

import "sort"

// ROCPoint is one operating point of a score-ranked classifier.
type ROCPoint struct {
	Threshold float64
	TPR       float64 // true positive rate (FDR, as a fraction)
	FPR       float64 // false positive rate (FAR, as a fraction)
}

// ROC computes the receiver operating characteristic from positive- and
// negative-class scores (higher = more positive). Points are ordered
// from the most conservative threshold (FPR 0) to the most permissive
// (FPR 1), with one point per distinct score value.
func ROC(pos, neg []float64) []ROCPoint {
	if len(pos) == 0 || len(neg) == 0 {
		return nil
	}
	type obs struct {
		score float64
		pos   bool
	}
	all := make([]obs, 0, len(pos)+len(neg))
	for _, s := range pos {
		all = append(all, obs{s, true})
	}
	for _, s := range neg {
		all = append(all, obs{s, false})
	}
	// Descending by score: lowering the threshold admits observations in
	// this order.
	sort.Slice(all, func(i, j int) bool { return all[i].score > all[j].score })

	nP, nN := float64(len(pos)), float64(len(neg))
	points := []ROCPoint{{Threshold: all[0].score + 1, TPR: 0, FPR: 0}}
	tp, fp := 0, 0
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].score == all[i].score {
			if all[j].pos {
				tp++
			} else {
				fp++
			}
			j++
		}
		points = append(points, ROCPoint{
			Threshold: all[i].score,
			TPR:       float64(tp) / nP,
			FPR:       float64(fp) / nN,
		})
		i = j
	}
	return points
}

// AUC returns the area under the ROC curve via the trapezoid rule.
// It equals the Mann-Whitney probability P(score_pos > score_neg) +
// 0.5*P(tie). Returns 0.5 for empty input (no information).
func AUC(pos, neg []float64) float64 {
	points := ROC(pos, neg)
	if points == nil {
		return 0.5
	}
	area := 0.0
	for i := 1; i < len(points); i++ {
		dx := points[i].FPR - points[i-1].FPR
		area += dx * (points[i].TPR + points[i-1].TPR) / 2
	}
	return area
}
