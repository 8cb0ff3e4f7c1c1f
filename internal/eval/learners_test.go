package eval

import (
	"strings"
	"testing"

	"orfdisk/internal/core"
	"orfdisk/internal/dtree"
	"orfdisk/internal/forest"
	"orfdisk/internal/rng"
	"orfdisk/internal/smart"
	"orfdisk/internal/svm"
)

// learnerData builds a separable two-class set with the given imbalance.
func learnerData(seed uint64, nPos, nNeg int) ([][]float64, []int) {
	r := rng.New(seed)
	X := make([][]float64, 0, nPos+nNeg)
	y := make([]int, 0, nPos+nNeg)
	for i := 0; i < nNeg; i++ {
		X = append(X, []float64{r.Float64() * 0.4, r.Float64()})
		y = append(y, 0)
	}
	for i := 0; i < nPos; i++ {
		X = append(X, []float64{0.6 + r.Float64()*0.4, r.Float64()})
		y = append(y, 1)
	}
	return X, y
}

func allLearners() []OfflineLearner {
	return []OfflineLearner{
		RFLearner{Lambda: 3, Config: forest.Config{Trees: 5}},
		DTLearner{Lambda: 3, Config: dtree.Config{MaxSplits: 20}},
		SVMLearner{Lambda: 3, Config: svm.Config{C: 1}},
	}
}

func TestLearnersFitAndScoreSeparable(t *testing.T) {
	X, y := learnerData(1, 50, 500)
	for _, l := range allLearners() {
		scorer, err := l.Fit(X, y, 2)
		if err != nil {
			t.Fatalf("%s: %v", l.Name(), err)
		}
		// A clear positive must outscore a clear negative.
		pos := scorer([]float64{0.9, 0.5})
		neg := scorer([]float64{0.1, 0.5})
		if pos <= neg {
			t.Errorf("%s: pos score %v not above neg %v", l.Name(), pos, neg)
		}
	}
}

func TestLearnersRejectSingleClass(t *testing.T) {
	X := [][]float64{{0, 0}, {1, 1}, {0.5, 0.5}}
	y := []int{0, 0, 0}
	for _, l := range allLearners() {
		if _, err := l.Fit(X, y, 1); err == nil {
			t.Errorf("%s accepted single-class data", l.Name())
		}
	}
}

func TestLearnerNames(t *testing.T) {
	if n := (RFLearner{Lambda: 3}).Name(); !strings.Contains(n, "3") {
		t.Errorf("RF name %q lacks lambda", n)
	}
	if n := (RFLearner{}).Name(); !strings.Contains(n, "Max") {
		t.Errorf("RF Max name %q", n)
	}
	for _, l := range allLearners() {
		if l.Name() == "" {
			t.Error("empty learner name")
		}
	}
}

func TestSVMLearnerCapsRows(t *testing.T) {
	X, y := learnerData(3, 200, 4000)
	l := SVMLearner{Lambda: 0, MaxRows: 150, Config: svm.Config{C: 1, MaxIter: 5000}}
	scorer, err := l.Fit(X, y, 4)
	if err != nil {
		t.Fatal(err)
	}
	if scorer([]float64{0.9, 0.5}) <= scorer([]float64{0.1, 0.5}) {
		t.Fatal("capped SVM failed to separate")
	}
}

func TestRFLearnerMaxRows(t *testing.T) {
	X, y := learnerData(5, 100, 5000)
	l := RFLearner{Lambda: 0, MaxRows: 500, Config: forest.Config{Trees: 5}}
	scorer, err := l.Fit(X, y, 6)
	if err != nil {
		t.Fatal(err)
	}
	if scorer([]float64{0.9, 0.5}) <= scorer([]float64{0.1, 0.5}) {
		t.Fatal("capped RF failed to separate")
	}
}

func TestORFStreamAbsorbUntilIdempotentCursor(t *testing.T) {
	c := buildTestCorpus(t, 30)
	orf := newORFStream(c, smart.PredictionHorizonDays, core.Config{Trees: 3, Seed: 1})
	orf.absorbUntil(50)
	cur := orf.next
	orf.absorbUntil(50)
	if orf.next != cur {
		t.Fatalf("cursor advanced without new days: %d -> %d", cur, orf.next)
	}
	orf.absorbUntil(100)
	if orf.next <= cur {
		t.Fatal("cursor did not advance for later days")
	}
	// Cursor must end at the stream's end when consuming everything.
	orf.absorbUntil(1 << 30)
	if orf.next != len(c.TrainArrivals) {
		t.Fatalf("final cursor %d, want %d", orf.next, len(c.TrainArrivals))
	}
}
