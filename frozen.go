package orfdisk

import (
	"fmt"
	"sync"
	"time"

	"orfdisk/internal/core"
	"orfdisk/internal/smart"
)

// FrozenModel is an immutable point-in-time scoring snapshot of a
// Predictor: the frozen forest plus frozen copies of everything the
// score path touches — the feature selection, the online scaler's
// fitted ranges, the alarm threshold and the positive-sample alarm
// gate. Scores are bit-identical to what Predictor.Score returned at
// the freeze moment, but a FrozenModel never changes after Freeze
// returns, so any number of goroutines may Score it concurrently with
// no locks while the live predictor keeps learning.
//
// This is the unit the serving engine publishes for its lock-free read
// path (Engine.Score, POST /v1/predict); embedders running their own
// Predictor get the same capability from Predictor.Freeze / Frozen.
type FrozenModel struct {
	features  []int
	scaler    *smart.Scaler
	forest    *core.FrozenForest
	threshold float64
	posSeen   int64
	frozenAt  time.Time

	// scratch recycles the per-call projection buffer, and batch the
	// per-call block-projection matrix, across all of one predictor's
	// snapshots, so steady-state scoring allocates nothing.
	scratch *sync.Pool
	batch   *sync.Pool
}

// projScratch is the pooled block-projection matrix ScoreBatchInto
// stages scaled features in: core.BatchBlock rows over one flat backing
// array, matching the forest kernel's block width.
type projScratch struct {
	flat []float64
	rows [][]float64
}

func newProjScratch(dim int) *projScratch {
	s := &projScratch{
		flat: make([]float64, core.BatchBlock*dim),
		rows: make([][]float64, core.BatchBlock),
	}
	for i := range s.rows {
		s.rows[i] = s.flat[i*dim : (i+1)*dim]
	}
	return s
}

// dim returns the per-row projection width the scratch was built for.
func (s *projScratch) dim() int { return len(s.flat) / core.BatchBlock }

// Freeze captures the predictor's current scoring state as an immutable
// snapshot and publishes it (see Frozen). Like Stats, Freeze must not
// run concurrently with Ingest — call it from whatever context owns the
// predictor (the engine calls it on the model's shard worker).
func (p *Predictor) Freeze() *FrozenModel {
	// The pools are shared across snapshots, so their buffer dimension
	// is revalidated on every freeze: a predictor whose feature
	// selection disagrees with the pooled buffers (e.g. state restored
	// over a live instance) gets fresh pools instead of snapshots that
	// silently score a truncated projection.
	if dim := len(p.features); p.scorePool == nil || p.scorePoolDim != dim {
		p.scorePoolDim = dim
		p.scorePool = &sync.Pool{New: func() any {
			buf := make([]float64, dim)
			return &buf
		}}
		p.batchPool = &sync.Pool{New: func() any { return newProjScratch(dim) }}
	}
	fm := &FrozenModel{
		features:  p.features,
		scaler:    p.scaler.Clone(),
		forest:    p.forest.Freeze(),
		threshold: p.threshold,
		posSeen:   p.forest.PosSeen(),
		frozenAt:  time.Now(),
		scratch:   p.scorePool,
		batch:     p.batchPool,
	}
	p.frozen.Store(fm)
	return fm
}

// Frozen returns the most recently frozen snapshot, or nil if Freeze
// has never been called. The load is a single atomic pointer read, safe
// from any goroutine — the intended pattern is one owner calling Freeze
// on a cadence while readers score against Frozen().
func (p *Predictor) Frozen() *FrozenModel { return p.frozen.Load() }

// Score returns the failure probability for a raw catalog vector,
// bit-identical to the score Predictor.Score produced at the freeze
// moment. It allocates nothing in steady state and takes no locks.
func (fm *FrozenModel) Score(values []float64) (float64, error) {
	if err := checkCatalog(values); err != nil {
		return 0, err
	}
	bp := fm.scratch.Get().(*[]float64)
	defer fm.scratch.Put(bp)
	x := *bp
	if len(x) != len(fm.features) {
		// A pooled buffer from a different feature selection: resize
		// rather than score a truncated (or over-long) projection.
		x = make([]float64, len(fm.features))
		*bp = x
	}
	for i, j := range fm.features {
		x[i] = fm.scaler.TransformOne(i, values[j])
	}
	return fm.forest.Score(x)
}

// ScoreBatchInto scores every catalog vector of X into dst (grown or
// truncated to len(X)) and returns dst; a recycled dst makes repeated
// batch scoring allocation-free. The whole batch is validated upfront —
// on error nothing is scored.
//
// Scores are bit-identical to calling Score per vector, but the work is
// batch-shaped end to end: vectors are projected and scaled a block at
// a time, feature-major, into a pooled block matrix (the scaler's
// per-feature range loads hoist out of the sample loop), and each block
// runs through the frozen forest's batch kernel, which streams every
// tree's node records through cache once per block instead of once per
// sample.
func (fm *FrozenModel) ScoreBatchInto(dst []float64, X [][]float64) ([]float64, error) {
	for i := range X {
		if err := checkCatalog(X[i]); err != nil {
			return dst, fmt.Errorf("batch vector %d: %w", i, err)
		}
	}
	if cap(dst) < len(X) {
		dst = make([]float64, len(X))
	} else {
		dst = dst[:len(X)]
	}
	if len(X) == 0 {
		return dst, nil
	}
	sb := fm.batch.Get().(*projScratch)
	defer fm.batch.Put(sb)
	dim := len(fm.features)
	if sb.dim() != dim {
		// Pooled matrix from a different feature selection (see Score).
		*sb = *newProjScratch(dim)
	}
	for base := 0; base < len(X); base += core.BatchBlock {
		n := min(core.BatchBlock, len(X)-base)
		blk := X[base : base+n]
		rows := sb.rows[:n]
		// Feature-major projection: the scaler's min/max for feature i
		// load once per block, not once per sample, and TransformOne
		// keeps the arithmetic bit-identical to the slice-at-a-time
		// live path.
		for i, j := range fm.features {
			for s, values := range blk {
				rows[s][i] = fm.scaler.TransformOne(i, values[j])
			}
		}
		// Full-capacity subslice: the kernel fills it in place.
		if _, err := fm.forest.ScoreBatchInto(dst[base:base+n:base+n], rows); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// Risky reports whether score trips the snapshot's alarm: at or above
// the frozen threshold, with alarms suppressed until the forest had
// absorbed at least one positive sample (exactly Ingest's gate).
func (fm *FrozenModel) Risky(score float64) bool {
	return score >= fm.threshold && fm.posSeen > 0
}

// Threshold returns the alarm threshold captured at freeze time.
func (fm *FrozenModel) Threshold() float64 { return fm.threshold }

// FrozenAt returns the wall-clock freeze moment.
func (fm *FrozenModel) FrozenAt() time.Time { return fm.frozenAt }

// Updates returns the number of forest updates absorbed at freeze time.
func (fm *FrozenModel) Updates() int64 { return fm.forest.Updates() }

// Nodes returns the total tree-node count of the frozen forest.
func (fm *FrozenModel) Nodes() int { return fm.forest.Nodes() }
