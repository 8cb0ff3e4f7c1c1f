package stats

import (
	"math"
	"testing"
	"testing/quick"

	"orfdisk/internal/rng"
)

func TestROCPerfectSeparation(t *testing.T) {
	pos := []float64{0.9, 0.8, 0.7}
	neg := []float64{0.3, 0.2, 0.1}
	if auc := AUC(pos, neg); math.Abs(auc-1) > 1e-12 {
		t.Fatalf("AUC = %v, want 1", auc)
	}
	// Every failure is caught before the first false alarm.
	if p := ROC(pos, neg)[len(pos)]; p.TPR != 1 || p.FPR != 0 {
		t.Fatalf("point after the positives = %+v, want TPR 1 at FPR 0", p)
	}
}

func TestROCReversedScores(t *testing.T) {
	pos := []float64{0.1, 0.2}
	neg := []float64{0.8, 0.9}
	if auc := AUC(pos, neg); math.Abs(auc) > 1e-12 {
		t.Fatalf("AUC = %v, want 0", auc)
	}
}

func TestROCRandomScoresNearHalf(t *testing.T) {
	r := rng.New(1)
	pos := make([]float64, 2000)
	neg := make([]float64, 2000)
	for i := range pos {
		pos[i] = r.Float64()
		neg[i] = r.Float64()
	}
	if auc := AUC(pos, neg); math.Abs(auc-0.5) > 0.03 {
		t.Fatalf("AUC on random scores = %v, want ~0.5", auc)
	}
}

func TestROCAllTied(t *testing.T) {
	pos := []float64{0.5, 0.5}
	neg := []float64{0.5, 0.5, 0.5}
	if auc := AUC(pos, neg); math.Abs(auc-0.5) > 1e-12 {
		t.Fatalf("AUC with all ties = %v, want 0.5", auc)
	}
}

func TestROCEmptyInput(t *testing.T) {
	if ROC(nil, []float64{1}) != nil {
		t.Fatal("ROC with empty positives should be nil")
	}
	if auc := AUC(nil, nil); auc != 0.5 {
		t.Fatalf("AUC(empty) = %v, want 0.5", auc)
	}
}

func TestROCEndpoints(t *testing.T) {
	r := rng.New(2)
	pos := make([]float64, 50)
	neg := make([]float64, 70)
	for i := range pos {
		pos[i] = r.NormFloat64() + 1
	}
	for i := range neg {
		neg[i] = r.NormFloat64()
	}
	points := ROC(pos, neg)
	first, last := points[0], points[len(points)-1]
	if first.TPR != 0 || first.FPR != 0 {
		t.Fatalf("first point %+v, want origin", first)
	}
	if last.TPR != 1 || last.FPR != 1 {
		t.Fatalf("last point %+v, want (1,1)", last)
	}
	// Monotone non-decreasing in both coordinates.
	for i := 1; i < len(points); i++ {
		if points[i].TPR < points[i-1].TPR || points[i].FPR < points[i-1].FPR {
			t.Fatalf("ROC not monotone at %d", i)
		}
	}
}

func TestAUCMatchesMannWhitney(t *testing.T) {
	// AUC must equal P(pos > neg) + 0.5 P(tie), computable exactly by
	// brute force for small samples.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nP, nN := 3+r.Intn(10), 3+r.Intn(10)
		pos := make([]float64, nP)
		neg := make([]float64, nN)
		for i := range pos {
			pos[i] = math.Floor(r.Float64()*8) / 8 // force ties
		}
		for i := range neg {
			neg[i] = math.Floor(r.Float64()*8) / 8
		}
		var wins, ties float64
		for _, p := range pos {
			for _, n := range neg {
				switch {
				case p > n:
					wins++
				case p == n:
					ties++
				}
			}
		}
		want := (wins + ties/2) / float64(nP*nN)
		return math.Abs(AUC(pos, neg)-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
