package forest

import (
	"math"
	"runtime"
	"testing"

	"orfdisk/internal/rng"
)

// gaussData makes a two-blob classification problem with the given
// imbalance (negatives per positive).
func gaussData(seed uint64, nPos, nNeg int, sep float64) ([][]float64, []int) {
	r := rng.New(seed)
	X := make([][]float64, 0, nPos+nNeg)
	y := make([]int, 0, nPos+nNeg)
	for i := 0; i < nNeg; i++ {
		X = append(X, []float64{r.NormFloat64(), r.NormFloat64(), r.Float64()})
		y = append(y, 0)
	}
	for i := 0; i < nPos; i++ {
		X = append(X, []float64{r.NormFloat64() + sep, r.NormFloat64() + sep, r.Float64()})
		y = append(y, 1)
	}
	return X, y
}

func TestTrainAndPredictSeparable(t *testing.T) {
	X, y := gaussData(1, 100, 100, 4)
	f := Train(X, y, Config{Trees: 15, Seed: 2})
	errs := 0
	for i := range X {
		if f.Predict(X[i], 0.5) != (y[i] == 1) {
			errs++
		}
	}
	if frac := float64(errs) / float64(len(X)); frac > 0.02 {
		t.Fatalf("training error %v too high for separable blobs", frac)
	}
	if f.NumTrees() != 15 {
		t.Fatalf("NumTrees = %d", f.NumTrees())
	}
}

func TestOOBErrorReasonable(t *testing.T) {
	X, y := gaussData(3, 200, 200, 3)
	f := Train(X, y, Config{Trees: 25, Seed: 4})
	if math.IsNaN(f.OOBError()) {
		t.Fatal("OOB error is NaN with 25 trees")
	}
	if f.OOBError() > 0.15 {
		t.Fatalf("OOB error %v too high for well-separated blobs", f.OOBError())
	}
	// On random labels OOB should be near 0.5.
	r := rng.New(5)
	Xr := make([][]float64, 300)
	yr := make([]int, 300)
	for i := range Xr {
		Xr[i] = []float64{r.Float64(), r.Float64()}
		yr[i] = r.Intn(2)
	}
	fr := Train(Xr, yr, Config{Trees: 25, Seed: 6, MinLeafSize: 2})
	if fr.OOBError() < 0.3 {
		t.Fatalf("OOB error %v on random labels suspiciously low", fr.OOBError())
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	X, y := gaussData(7, 80, 160, 2)
	train := func(procs int) *Forest {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return Train(X, y, Config{Trees: 10, Seed: 42})
	}
	f1, f2 := train(4), train(1)
	r := rng.New(8)
	for i := 0; i < 50; i++ {
		x := []float64{r.NormFloat64(), r.NormFloat64(), r.Float64()}
		if f1.PredictProba(x) != f2.PredictProba(x) {
			t.Fatal("forest not deterministic across core counts")
		}
	}
	if f1.OOBError() != f2.OOBError() {
		t.Fatalf("OOB differs across core counts: %v vs %v", f1.OOBError(), f2.OOBError())
	}
}

func TestSeedChangesForest(t *testing.T) {
	X, y := gaussData(9, 80, 160, 1.0)
	f1 := Train(X, y, Config{Trees: 10, Seed: 1})
	f2 := Train(X, y, Config{Trees: 10, Seed: 2})
	r := rng.New(10)
	same := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		x := []float64{r.NormFloat64(), r.NormFloat64(), r.Float64()}
		if f1.PredictProba(x) == f2.PredictProba(x) {
			same++
		}
	}
	if same == trials {
		t.Fatal("different seeds produced identical forests")
	}
}

func TestPredictProbaInUnitInterval(t *testing.T) {
	X, y := gaussData(12, 50, 100, 1)
	f := Train(X, y, Config{Trees: 5, Seed: 1})
	r := rng.New(13)
	for i := 0; i < 200; i++ {
		p := f.PredictProba([]float64{r.NormFloat64() * 3, r.NormFloat64() * 3, r.Float64()})
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("proba %v out of range", p)
		}
	}
}

func TestFeatureImportanceFindsSignal(t *testing.T) {
	// Only feature 0 and 1 carry signal; feature 2 is uniform noise.
	X, y := gaussData(14, 300, 300, 2.5)
	f := Train(X, y, Config{Trees: 20, Seed: 5})
	imp := f.FeatureImportance()
	if len(imp) != 3 {
		t.Fatalf("importance length %d", len(imp))
	}
	sum := imp[0] + imp[1] + imp[2]
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("importance sums to %v", sum)
	}
	if imp[2] > imp[0] || imp[2] > imp[1] {
		t.Fatalf("noise feature importance %v exceeds signal %v/%v", imp[2], imp[0], imp[1])
	}
}

func TestTrainPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty training set did not panic")
		}
	}()
	Train(nil, nil, Config{})
}

func TestDownsampleRatio(t *testing.T) {
	y := make([]int, 1000)
	for i := 0; i < 20; i++ {
		y[i] = 1
	}
	idx := Downsample(y, 3, 17)
	pos, neg := 0, 0
	for _, i := range idx {
		if y[i] == 1 {
			pos++
		} else {
			neg++
		}
	}
	if pos != 20 {
		t.Fatalf("downsample kept %d positives, want all 20", pos)
	}
	if neg != 60 {
		t.Fatalf("downsample kept %d negatives, want 60 (lambda=3)", neg)
	}
	// No duplicate indexes.
	seen := map[int]bool{}
	for _, i := range idx {
		if seen[i] {
			t.Fatalf("duplicate index %d", i)
		}
		seen[i] = true
	}
}

func TestDownsampleLambdaMax(t *testing.T) {
	y := []int{1, 0, 0, 0, 0}
	idx := Downsample(y, 0, 1)
	if len(idx) != len(y) {
		t.Fatalf("lambda<=0 kept %d rows, want all %d", len(idx), len(y))
	}
}

func TestDownsampleNotEnoughNegatives(t *testing.T) {
	y := []int{1, 1, 1, 0, 0}
	idx := Downsample(y, 5, 1)
	if len(idx) != 5 {
		t.Fatalf("kept %d rows, want all 5 when negatives run out", len(idx))
	}
}

func TestDownsampleDeterministic(t *testing.T) {
	y := make([]int, 500)
	for i := 0; i < 10; i++ {
		y[i] = 1
	}
	a := Downsample(y, 2, 7)
	b := Downsample(y, 2, 7)
	if len(a) != len(b) {
		t.Fatal("sizes differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different downsamples")
		}
	}
}

func TestGather(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}}
	y := []int{0, 1, 0}
	gx, gy := Gather(X, y, []int{2, 0})
	if len(gx) != 2 || gx[0][0] != 3 || gx[1][0] != 1 || gy[0] != 0 || gy[1] != 0 {
		t.Fatalf("Gather = %v %v", gx, gy)
	}
}

func TestImbalancedWithoutDownsamplingIsBiased(t *testing.T) {
	// Table 3's λ=Max row: with extreme imbalance and no downsampling the
	// forest rarely votes positive near the boundary. Verify the bias
	// mechanism: recall on a modest-separation positive class drops
	// compared to a balanced training set.
	Xfull, yfull := gaussData(20, 15, 1500, 1.8)
	fBiased := Train(Xfull, yfull, Config{Trees: 20, Seed: 21, MinLeafSize: 2})

	idx := Downsample(yfull, 1, 22)
	Xb, yb := Gather(Xfull, yfull, idx)
	fBalanced := Train(Xb, yb, Config{Trees: 20, Seed: 23, MinLeafSize: 2})

	// Fresh positives from the same distribution.
	r := rng.New(24)
	var recBiased, recBalanced int
	const n = 300
	for i := 0; i < n; i++ {
		x := []float64{r.NormFloat64() + 1.8, r.NormFloat64() + 1.8, r.Float64()}
		if fBiased.Predict(x, 0.5) {
			recBiased++
		}
		if fBalanced.Predict(x, 0.5) {
			recBalanced++
		}
	}
	if recBalanced <= recBiased {
		t.Fatalf("balanced recall %d/%d not above biased %d/%d",
			recBalanced, n, recBiased, n)
	}
}

func BenchmarkTrain30Trees(b *testing.B) {
	X, y := gaussData(30, 200, 600, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Train(X, y, Config{Trees: 30, Seed: uint64(i)})
	}
}
