package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"orfdisk/internal/rng"
)

// Forest is an online random forest (Algorithm 1). Construct with New,
// feed labeled samples with Update/UpdateBatch, query with
// PredictProba/Predict.
//
// UpdateBatch and PredictProbaBatch parallelize internally (via a
// persistent worker pool, started lazily when Workers > 1 by the first
// update chunk of poolMinChunk samples or the first batch prediction);
// Update and short chunks run on the caller's goroutine. Updates must
// not run concurrently with predictions: they mutate tree structure. A
// forest that started workers releases them on Close; a finalizer covers
// forests that are dropped without Close.
type Forest struct {
	cfg   Config
	dim   int
	trees []*onlineTree

	updates      int64 // total Update calls
	replaced     atomic.Int64
	posSeen      int64
	negSeen      int64
	sinceReplace int64 // updates since the last tree replacement

	poolOnce sync.Once
	pool     *forestPool

	// Single-sample scratch so Update can reuse the batch path without
	// allocating a one-element slice per call.
	x1 [1][]float64
	y1 [1]int

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
// times if k > 0, otherwise use it to refresh the tree's OOBE and check
// the replacement condition. Steady state allocates nothing.
func (f *Forest) Update(x []float64, y int) {
	if len(x) != f.dim {
		panic(fmt.Sprintf("core: Update dimension %d, want %d", len(x), f.dim))
	}
	f.x1[0], f.y1[0] = x, y
	f.updateChunked(f.x1[:], f.y1[:])
	f.x1[0] = nil
}

// UpdateBatch absorbs a batch of labeled samples, waking the worker pool
// once per replacement-free run of at least poolMinChunk samples. The
// result is bit-identical to calling Update(X[i], Y[i]) in order: each
// tree sees the samples in the same order on the same RNG stream, and
// the tree-replacement check fires at exactly the same sample positions
// (batches are internally chunked so no check ever falls mid-chunk).
func (f *Forest) UpdateBatch(X [][]float64, Y []int) {
	if len(X) != len(Y) {
		panic(fmt.Sprintf("core: UpdateBatch with %d samples, %d labels", len(X), len(Y)))
	}
	for _, x := range X {
		if len(x) != f.dim {
			panic(fmt.Sprintf("core: UpdateBatch dimension %d, want %d", len(x), f.dim))
		}
	}
	f.updateChunked(X, Y)
}

// updateChunked applies (X, Y) in replacement-safe chunks. A chunk ends
// exactly where the sequential path would first run a replacement scan
// (sinceReplace reaching ReplaceCooldown), so scans — and therefore
// replacements — happen at identical sample positions to sequential
// Update calls. Once sinceReplace sits at/above the cooldown (scans
// firing every sample until one replaces — the steady state of a forest
// with no tree bad enough to replace), chunks degrade to single samples,
// which is precisely the sequential behavior.
func (f *Forest) updateChunked(X [][]float64, Y []int) {
	for i := 0; i < len(X); {
		c := len(X) - i
		if !f.cfg.DisableReplacement {
			if room := int64(f.cfg.ReplaceCooldown) - f.sinceReplace; room < int64(c) {
				c = int(room)
			}
			if c < 1 {
				c = 1
			}
		}
		f.applyChunk(X[i:i+c], Y[i:i+c])
		i += c
	}
}

// poolMinChunk is the shortest update chunk handed to the worker pool. A
// dispatch costs two goroutine wake-ups per worker (about 12 us on the
// 2-core bench host) whatever the chunk holds, and at the paper's
// lambda_n = 0.02 a sample is a 1.2 us out-of-bag walk over all trees.
// Measured there per sample, pool vs caller's goroutine: 1.56 vs 1.20 us
// at 32 samples, 1.12 vs 1.13 at 64, 0.89 vs 1.16 at 128, 0.75 vs 1.12
// at 256; at lambda_n = 1 (every sample trains every tree) 7.9 vs 10.6
// at 64. So 64 is where the pool stops losing at the default rate.
// BenchmarkUpdateBatch has a case on each side. No caller in this module
// forms such a chunk today — the longest is a failed disk's queue, one
// prediction horizon (7) of samples — so the pool's side is reached by
// direct UpdateBatch callers only (DESIGN section 5 has the count).
const poolMinChunk = 64

// applyChunk feeds one replacement-free run of samples to every tree and
// then performs the sequential path's post-sample replacement check.
// Both branches run updateTrees over every tree with the samples in
// order, so which goroutine does it never shows in the result.
func (f *Forest) applyChunk(X [][]float64, Y []int) {
	f.updates += int64(len(X))
	for _, y := range Y {
		if y == 1 {
			f.posSeen++
		} else {
			f.negSeen++
		}
	}
	var p *forestPool
	if len(X) >= poolMinChunk {
		p = f.workerPool()
	}
	if p != nil {
		p.updateBatch(X, Y)
	} else {
		updateTrees(f.trees, X, Y, f.cfg)
	}

	// Replacement pass: discard at most one decayed tree per cooldown
	// window, choosing the worst offender. Replacing serially instead of
	// en masse keeps the ensemble functional through drift episodes.
	if f.cfg.DisableReplacement {
		return
	}
	f.sinceReplace += int64(len(X))
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

// workerPool returns the forest's persistent worker pool, starting it on
// first use, or nil when the configuration is effectively sequential.
// The pool goroutines reference only the pool (never the Forest), so the
// finalizer can fire once the Forest itself becomes unreachable.
func (f *Forest) workerPool() *forestPool {
	workers := f.cfg.Workers
	if workers > len(f.trees) {
		workers = len(f.trees)
	}
	if workers <= 1 {
		return nil
	}
	f.poolOnce.Do(func() {
		f.pool = newForestPool(f.trees, f.cfg, workers)
		runtime.SetFinalizer(f, func(f *Forest) { f.pool.close() })
	})
	return f.pool
}

// Close releases the forest's worker goroutines (a no-op if none were
// ever started). The forest must not be updated or queried afterwards.
// Forests dropped without Close are cleaned up by a finalizer; calling
// Close is still preferable in anything with a deterministic lifecycle.
func (f *Forest) Close() {
	// Run the Once so a Close racing nothing but an unstarted pool
	// doesn't leave a later workerPool call able to start goroutines on
	// a closed forest.
	f.poolOnce.Do(func() {})
	if f.pool != nil {
		runtime.SetFinalizer(f, nil)
		f.pool.close()
	}
}

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

// PredictProbaBatch scores many vectors in parallel on the persistent
// worker pool (partitioned by sample — trees are read-only during
// prediction), preserving order. It must not run concurrently with
// Update; concurrent PredictProbaBatch calls are safe.
func (f *Forest) PredictProbaBatch(X [][]float64) []float64 {
	return f.PredictProbaBatchInto(nil, X)
}

// PredictProbaBatchInto is PredictProbaBatch with a caller-provided
// destination: dst is grown (or truncated) to len(X), filled, and
// returned, so a recycled dst makes repeated batch scoring
// allocation-free. The same concurrency rules as PredictProbaBatch
// apply.
func (f *Forest) PredictProbaBatchInto(dst []float64, X [][]float64) []float64 {
	if cap(dst) < len(X) {
		dst = make([]float64, len(X))
	} else {
		dst = dst[:len(X)]
	}
	p := f.workerPool()
	if p == nil || len(X) == 1 {
		for i, x := range X {
			dst[i] = f.PredictProba(x)
		}
		return dst
	}
	p.run(func(w int) {
		lo, hi := chunkRange(w, p.workers, len(X))
		for i := lo; i < hi; i++ {
			dst[i] = f.PredictProba(X[i])
		}
	})
	return dst
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
