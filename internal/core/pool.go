package core

import (
	"sync"

	"orfdisk/internal/rng"
)

// forestPool is the forest's persistent worker pool. The previous
// implementation spawned a goroutine batch plus a WaitGroup for every
// Update and PredictProbaBatch call — a fixed scheduling and allocation
// cost paid once per observation on the serving hot path. The pool
// instead keeps one long-lived goroutine per worker, parked on its own
// job channel, and wakes all of them with channel sends (no allocation:
// the job is a small struct copied into the channel, and the update
// path's WaitGroup is a reused pool field).
//
// Tree ownership is static: worker w always operates on the same
// contiguous tree range, so per-tree state (including each tree's RNG
// stream) is only ever touched by one goroutine per dispatch and needs
// no locking. Prediction jobs instead partition the *sample* range —
// trees are read-only during prediction, so any partition is safe, and
// per-sample partitioning balances batches better than per-tree.
//
// Lifecycle: the pool is created lazily on the first parallel operation
// (forests configured with Workers <= 1, or with a single tree, never
// start goroutines). Close parks is idempotent and waits for every
// worker to exit; a finalizer set at creation closes leaked pools so a
// dropped Forest cannot strand goroutines.
type forestPool struct {
	trees   []*onlineTree
	cfg     Config
	workers int
	chunk   int // trees per worker (ceil division)

	jobs   []chan poolJob
	exited sync.WaitGroup
	once   sync.Once

	// Update-job state. Update/UpdateBatch are documented as serialized
	// (they must not run concurrently with anything), so these fields
	// are reused across dispatches instead of allocated per call.
	updX    [][]float64
	updY    []int
	updDone sync.WaitGroup
	updRun  func(w int)
}

// poolJob is one wake-up: run executes on the worker's goroutine, done
// is decremented when it returns. Jobs are sent by value; neither field
// allocates at dispatch time on the update path.
type poolJob struct {
	run  func(w int)
	done *sync.WaitGroup
}

func newForestPool(trees []*onlineTree, cfg Config, workers int) *forestPool {
	p := &forestPool{
		trees:   trees,
		cfg:     cfg,
		workers: workers,
		chunk:   (len(trees) + workers - 1) / workers,
		jobs:    make([]chan poolJob, workers),
	}
	p.updRun = p.runUpdate
	p.exited.Add(workers)
	for w := 0; w < workers; w++ {
		p.jobs[w] = make(chan poolJob)
		go p.worker(w)
	}
	return p
}

func (p *forestPool) worker(w int) {
	defer p.exited.Done()
	for job := range p.jobs[w] {
		job.run(w)
		job.done.Done()
	}
}

// treeRange returns worker w's static tree ownership range.
func (p *forestPool) treeRange(w int) (lo, hi int) {
	lo = w * p.chunk
	hi = lo + p.chunk
	if lo > len(p.trees) {
		lo = len(p.trees)
	}
	if hi > len(p.trees) {
		hi = len(p.trees)
	}
	return lo, hi
}

// runUpdate applies the staged update batch to worker w's trees. Within
// one tree the samples are applied in order, so each tree's RNG stream
// advances exactly as it would under sequential Update calls; trees are
// mutually independent during updates, so tree-major order is
// bit-identical to the sequential sample-major order.
func (p *forestPool) runUpdate(w int) {
	lo, hi := p.treeRange(w)
	updateTrees(p.trees[lo:hi], p.updX, p.updY, p.cfg)
}

// updateTrees is the shared per-tree update kernel (Algorithm 1's inner
// loop) used by both the pool workers and the caller's goroutine. The
// two Poisson thresholds are worked out once per call: at the paper's
// lambda_n = 0.02 the exponential inside a fresh draw costs more than
// the out-of-bag leaf walk that follows it.
func updateTrees(trees []*onlineTree, X [][]float64, Y []int, cfg Config) {
	pos, neg := rng.NewPoissonDist(cfg.LambdaPos), rng.NewPoissonDist(cfg.LambdaNeg)
	for _, t := range trees {
		for i, x := range X {
			d := neg
			if Y[i] == 1 {
				d = pos
			}
			k := d.Draw(t.r)
			if k > 0 {
				for j := 0; j < k; j++ {
					t.update(x, Y[i])
				}
				t.age++
				t.dirty = true // leaf stats (at least) moved; refreeze must re-flatten
				continue
			}
			t.updateOOBE(x, Y[i])
		}
	}
}

// updateBatch stages (X, Y) and wakes every worker, returning when all
// trees have absorbed the whole batch. Zero allocations per call.
func (p *forestPool) updateBatch(X [][]float64, Y []int) {
	p.updX, p.updY = X, Y
	p.updDone.Add(p.workers)
	job := poolJob{run: p.updRun, done: &p.updDone}
	for _, c := range p.jobs {
		c <- job
	}
	p.updDone.Wait()
	p.updX, p.updY = nil, nil
}

// run dispatches an arbitrary job to every worker and waits. Unlike the
// update path it allocates (a closure and a WaitGroup per call), which
// is fine for per-batch operations like PredictProbaBatch — and keeps
// concurrent read-only dispatches safe, since nothing is staged in
// shared pool fields.
func (p *forestPool) run(fn func(w int)) {
	var wg sync.WaitGroup
	wg.Add(p.workers)
	job := poolJob{run: fn, done: &wg}
	for _, c := range p.jobs {
		c <- job
	}
	wg.Wait()
}

// close parks the pool permanently: all workers drain and exit. Safe to
// call more than once; dispatching after close panics (use-after-Close).
func (p *forestPool) close() {
	p.once.Do(func() {
		for _, c := range p.jobs {
			close(c)
		}
		p.exited.Wait()
	})
}

// chunkRange splits n items over workers and returns worker w's slice
// bounds (used for sample-partitioned prediction jobs).
func chunkRange(w, workers, n int) (lo, hi int) {
	chunk := (n + workers - 1) / workers
	lo = w * chunk
	hi = lo + chunk
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}
