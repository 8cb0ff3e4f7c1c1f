package core

import (
	"fmt"
	"sync/atomic"

	"orfdisk/internal/rng"
)

// Forest is an online random forest (Algorithm 1). Construct with New,
// feed labeled samples with Update, query with PredictProba/Predict.
// A forest owns no goroutines: updates and predictions run on the
// caller's, and must not run concurrently with each other, since updates
// mutate tree structure.
type Forest struct {
	cfg   Config
	dim   int
	trees []*onlineTree

	updates      int64 // total Update calls
	replaced     atomic.Int64
	posSeen      int64
	negSeen      int64
	sinceReplace int64 // updates since the last tree replacement

	// Freeze state (see frozen.go). lastFrozen is the previous snapshot,
	// the splice source for trees whose dirty bit is still clear; the
	// freeze* slices are flattening scratch reused across trees and
	// across refreezes, since incremental refreeze makes Freeze a
	// steady-state hot path.
	lastFrozen  *FrozenForest
	freezePos   []int32
	freezeOrder []int32
	freezeStack []int32
}

// New creates an empty forest for dim-dimensional inputs.
func New(dim int, cfg Config) *Forest {
	if dim <= 0 {
		panic(fmt.Sprintf("core: non-positive input dimension %d", dim))
	}
	cfg = cfg.withDefaults()
	f := &Forest{cfg: cfg, dim: dim}
	master := rng.New(cfg.Seed)
	f.trees = make([]*onlineTree, cfg.Trees)
	for i := range f.trees {
		f.trees[i] = newOnlineTree(cfg, dim, master.Split())
	}
	return f
}

// Config returns the forest's effective (defaulted) configuration.
func (f *Forest) Config() Config { return f.cfg }

// Dim returns the input dimensionality.
func (f *Forest) Dim() int { return f.dim }

// Update absorbs one labeled sample into every tree, following
// Algorithm 1: per tree, draw k ~ Poisson(lambda_y); replay the sample k
// times if k > 0, otherwise use it to refresh the tree's OOBE; then
// check the replacement condition. Steady state allocates nothing.
func (f *Forest) Update(x []float64, y int) {
	if len(x) != f.dim {
		panic(fmt.Sprintf("core: Update dimension %d, want %d", len(x), f.dim))
	}
	f.updates++
	// The Poisson threshold is worked out once per sample, not per tree:
	// at the paper's lambda_n = 0.02 the exponential inside a fresh draw
	// costs more than the out-of-bag leaf walk that follows it.
	lambda := f.cfg.LambdaNeg
	if y == 1 {
		f.posSeen++
		lambda = f.cfg.LambdaPos
	} else {
		f.negSeen++
	}
	d := rng.NewPoissonDist(lambda)
	for _, t := range f.trees {
		k := d.Draw(t.r)
		if k == 0 {
			t.updateOOBE(x, y)
			continue
		}
		for j := 0; j < k; j++ {
			t.update(x, y)
		}
		t.age++
		t.dirty = true // leaf stats (at least) moved; refreeze must re-flatten
	}

	// Replacement pass: discard at most one decayed tree per cooldown
	// window, choosing the worst offender. Replacing serially instead of
	// en masse keeps the ensemble functional through drift episodes.
	if f.cfg.DisableReplacement {
		return
	}
	f.sinceReplace++
	if f.sinceReplace < int64(f.cfg.ReplaceCooldown) {
		return
	}
	worst := -1
	worstOOBE := f.cfg.OOBEThreshold
	for i, t := range f.trees {
		if t.age > f.cfg.AgeThreshold && t.oobe() > worstOOBE {
			worst, worstOOBE = i, t.oobe()
		}
	}
	if worst >= 0 {
		f.trees[worst].reset()
		f.replaced.Add(1)
		f.sinceReplace = 0
	}
}

// UpdateBatch is Update(X[i], Y[i]) in order, after checking every
// sample's shape. It and Close remain only for cmd/orfbench's twins.
func (f *Forest) UpdateBatch(X [][]float64, Y []int) {
	if len(X) != len(Y) {
		panic(fmt.Sprintf("core: UpdateBatch with %d samples, %d labels", len(X), len(Y)))
	}
	for _, x := range X {
		if len(x) != f.dim {
			panic(fmt.Sprintf("core: UpdateBatch dimension %d, want %d", len(x), f.dim))
		}
	}
	for i, x := range X {
		f.Update(x, Y[i])
	}
}

// Close does nothing: a forest owns no goroutines.
func (f *Forest) Close() {}

// PredictProba returns the mean positive probability across trees.
func (f *Forest) PredictProba(x []float64) float64 {
	if len(x) != f.dim {
		panic(fmt.Sprintf("core: Predict dimension %d, want %d", len(x), f.dim))
	}
	sum := 0.0
	for _, t := range f.trees {
		sum += t.predictProba(x)
	}
	return sum / float64(len(f.trees))
}

// Predict returns the positive decision at the given probability
// threshold.
func (f *Forest) Predict(x []float64, threshold float64) bool {
	return f.PredictProba(x) >= threshold
}

// PosSeen returns the number of positive samples absorbed so far. It is
// O(1) — use it on hot paths instead of Stats, which walks every node of
// every tree.
func (f *Forest) PosSeen() int64 { return f.posSeen }

// Updates returns the number of Update calls absorbed so far. Like
// PosSeen it is O(1), for hot paths that must not pay for Stats.
func (f *Forest) Updates() int64 { return f.updates }

// Stats is a point-in-time summary of forest state.
type Stats struct {
	Updates     int64
	PosSeen     int64
	NegSeen     int64
	Replaced    int64 // trees discarded and regrown so far
	Nodes       int   // total nodes across trees
	Leaves      int   // total leaves across trees
	MeanOOBE    float64
	OldestAge   int
	YoungestAge int
}

// FeatureImportance returns per-feature importance accumulated from
// every split's Gini gain weighted by the sample mass at the split,
// normalized to sum to 1 (all-zero if no tree ever split). Trees that
// were discarded and regrown only contribute their current structure —
// importance, like the forest itself, tracks the present distribution.
func (f *Forest) FeatureImportance() []float64 {
	imp := make([]float64, f.dim)
	for _, t := range f.trees {
		t.accumulateImportance(imp)
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

// Stats returns the current forest statistics.
func (f *Forest) Stats() Stats {
	s := Stats{
		Updates:  f.updates,
		PosSeen:  f.posSeen,
		NegSeen:  f.negSeen,
		Replaced: f.replaced.Load(),
	}
	if len(f.trees) == 0 {
		return s
	}
	s.OldestAge = f.trees[0].age
	s.YoungestAge = f.trees[0].age
	sumOOBE := 0.0
	for _, t := range f.trees {
		s.Nodes += t.numNodes()
		s.Leaves += t.numLeaves()
		sumOOBE += t.oobe()
		if t.age > s.OldestAge {
			s.OldestAge = t.age
		}
		if t.age < s.YoungestAge {
			s.YoungestAge = t.age
		}
	}
	s.MeanOOBE = sumOOBE / float64(len(f.trees))
	return s
}
