// Package forest implements the offline Random Forest baseline (Breiman
// 2001): bootstrap bagging over dtree CART trees with per-split feature
// subsampling, parallel tree growth, out-of-bag error estimation and
// mean-decrease-in-impurity feature importance.
//
// It also provides the paper's NegSampleRatio (λ) downsampling of the
// negative class (Eq. 4): given a training set, only all positives plus
// λ·|positives| randomly chosen negatives are used for fitting, which is
// how the offline models are balanced (Table 3).
package forest

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"orfdisk/internal/dtree"
	"orfdisk/internal/rng"
)

// Config controls forest training.
type Config struct {
	// Trees is the ensemble size (paper: T = 30).
	Trees int
	// MTry is the per-split feature subsample size; 0 selects the
	// sqrt(d) default.
	MTry int
	// MaxDepth, MinLeafSize and MinGain pass through to the unit trees.
	MaxDepth    int
	MinLeafSize int
	MinGain     float64
	// Seed drives all bootstrap and feature sampling.
	Seed uint64
}

func (c Config) withDefaults(nFeatures int) Config {
	if c.Trees <= 0 {
		c.Trees = 30
	}
	if c.MTry <= 0 {
		c.MTry = int(math.Sqrt(float64(nFeatures)) + 0.5)
		if c.MTry < 1 {
			c.MTry = 1
		}
	}
	if c.MinLeafSize <= 0 {
		c.MinLeafSize = 1
	}
	return c
}

// Forest is a trained random forest.
type Forest struct {
	trees    []*dtree.Tree
	nFeature int
	oobErr   float64
}

// Train grows a forest on X and binary labels y. It panics on empty or
// inconsistent input.
func Train(X [][]float64, y []int, cfg Config) *Forest {
	if len(X) == 0 || len(X) != len(y) {
		panic(fmt.Sprintf("forest: bad training set (%d rows, %d labels)", len(X), len(y)))
	}
	n := len(X)
	cfg = cfg.withDefaults(len(X[0]))
	f := &Forest{nFeature: len(X[0]), trees: make([]*dtree.Tree, cfg.Trees)}

	// Derive one independent stream per tree up front so the parallel
	// growth is deterministic regardless of scheduling.
	master := rng.New(cfg.Seed)
	streams := make([]*rng.Source, cfg.Trees)
	for t := range streams {
		streams[t] = master.Split()
	}

	// oobVotes[i] accumulates out-of-bag votes for sample i:
	// positive and total.
	oobPos := make([]int32, n)
	oobTot := make([]int32, n)
	var oobMu sync.Mutex

	// Tree growth is embarrassingly parallel (the property the paper
	// cites for choosing forests over boosting): one goroutine per tree,
	// as many at a time as the host has cores.
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for t := 0; t < cfg.Trees; t++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(t int) {
			defer wg.Done()
			defer func() { <-sem }()
			r := streams[t]
			idx := make([]int, n)
			inBag := make([]bool, n)
			for i := range idx {
				j := r.Intn(n)
				idx[i] = j
				inBag[j] = true
			}
			tree := dtree.GrowIndexed(X, y, idx, dtree.Config{
				MaxDepth:    cfg.MaxDepth,
				MinLeafSize: cfg.MinLeafSize,
				MinGain:     cfg.MinGain,
				Smoothing:   1, // grade leaf scores by support
				MTry:        cfg.MTry,
				Rand:        r,
			})
			f.trees[t] = tree

			// Out-of-bag votes from this tree.
			var pos, tot []int32
			pos = make([]int32, 0, n/4)
			tot = make([]int32, 0, n/4)
			var which []int32
			for i := 0; i < n; i++ {
				if inBag[i] {
					continue
				}
				which = append(which, int32(i))
				if tree.Predict(X[i], 0.5) {
					pos = append(pos, 1)
				} else {
					pos = append(pos, 0)
				}
				tot = append(tot, 1)
			}
			oobMu.Lock()
			for k, i := range which {
				oobPos[i] += pos[k]
				oobTot[i] += tot[k]
			}
			oobMu.Unlock()
		}(t)
	}
	wg.Wait()

	// OOB error: majority vote over trees that did not see the sample.
	var wrong, counted int
	for i := 0; i < n; i++ {
		if oobTot[i] == 0 {
			continue
		}
		counted++
		pred := float64(oobPos[i]) >= float64(oobTot[i])/2
		if pred != (y[i] == 1) {
			wrong++
		}
	}
	if counted > 0 {
		f.oobErr = float64(wrong) / float64(counted)
	} else {
		f.oobErr = math.NaN()
	}
	return f
}

// PredictProba returns the mean positive probability across trees.
func (f *Forest) PredictProba(x []float64) float64 {
	sum := 0.0
	for _, t := range f.trees {
		sum += t.PredictProba(x)
	}
	return sum / float64(len(f.trees))
}

// Predict returns the decision at the given ensemble-probability
// threshold (0.5 = plain majority).
func (f *Forest) Predict(x []float64, threshold float64) bool {
	return f.PredictProba(x) >= threshold
}

// OOBError returns the out-of-bag misclassification rate measured during
// training (NaN if no sample was ever out of bag).
func (f *Forest) OOBError() float64 { return f.oobErr }

// NumTrees returns the ensemble size.
func (f *Forest) NumTrees() int { return len(f.trees) }

// FeatureImportance returns the mean-decrease-in-impurity importance per
// feature, normalized to sum to 1 (all-zero if the forest never split).
func (f *Forest) FeatureImportance() []float64 {
	imp := make([]float64, f.nFeature)
	for _, t := range f.trees {
		t.AccumulateImportance(imp)
	}
	var sum float64
	for _, v := range imp {
		sum += v
	}
	if sum > 0 {
		for i := range imp {
			imp[i] /= sum
		}
	}
	return imp
}

// Downsample implements the paper's NegSampleRatio balance (Eq. 4):
// it returns the indexes of all positive rows plus lambda*|positives|
// uniformly chosen negative rows. lambda <= 0 means "use everything"
// (the λ=Max row of Table 3). If there are fewer negatives than
// requested, all negatives are used.
func Downsample(y []int, lambda float64, seed uint64) []int {
	var pos, neg []int
	for i, v := range y {
		if v == 1 {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	if lambda <= 0 {
		idx := make([]int, 0, len(y))
		idx = append(idx, pos...)
		idx = append(idx, neg...)
		return idx
	}
	want := int(lambda*float64(len(pos)) + 0.5)
	if want > len(neg) {
		want = len(neg)
	}
	r := rng.New(seed)
	chosen := r.Sample(len(neg), want)
	idx := make([]int, 0, len(pos)+want)
	idx = append(idx, pos...)
	for _, c := range chosen {
		idx = append(idx, neg[c])
	}
	return idx
}

// Gather materializes the rows/labels selected by idx.
func Gather(X [][]float64, y []int, idx []int) ([][]float64, []int) {
	gx := make([][]float64, len(idx))
	gy := make([]int, len(idx))
	for k, i := range idx {
		gx[k] = X[i]
		gy[k] = y[i]
	}
	return gx, gy
}
