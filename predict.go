package orfdisk

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// The lock-free read path. Shard workers publish FrozenModel snapshots
// (RCU-style: build a new immutable snapshot, swap one atomic pointer)
// after every EngineConfig.FreezeEvery applied observations or
// FreezeInterval of wall time, whichever comes first. Readers resolve
// the model in a sync.Map, load the published pointer, and score —
// never taking a lock, never enqueueing into a shard mailbox, never
// contending with ingest. Staleness is explicit: every result carries
// how many applied observations the snapshot is behind and how old it
// is, and the frozen_* gauge families surface the same per model.

// ErrUnknownModel reports a read-path request for a drive model that has
// no published snapshot (the engine has never seen the model).
var ErrUnknownModel = errors.New("orfdisk: unknown model")

// frozenSlot is one model's publication point. The shard worker is the
// only writer (publishes pub, bumps applied); readers only load.
type frozenSlot struct {
	pub     atomic.Pointer[frozenPub]
	applied atomic.Int64
}

// frozenPub pairs a snapshot with the shard's applied-observation count
// at publish time, so UpdatesBehind = applied - appliedAt is exact even
// though the two are read without a lock.
type frozenPub struct {
	fm        *FrozenModel
	appliedAt int64
}

// ScoreResult is one vector's outcome on the read path.
type ScoreResult struct {
	// Score is the frozen forest's failure probability; Risky applies
	// the snapshot's alarm threshold and positive-sample gate.
	Score float64
	Risky bool
	// UpdatesBehind counts observations the model's shard has applied
	// since this snapshot was published — the read path's staleness
	// contract (bounded by FreezeEvery/FreezeInterval under load).
	UpdatesBehind int64
	// SnapshotAge is the wall-clock age of the snapshot.
	SnapshotAge time.Duration
	// Err is set per item by ScoreBatch (an invalid vector fails alone);
	// Score reports errors through its own return value instead.
	Err error
}

// Frozen returns the published snapshot for a drive model together with
// the number of observations the shard has applied since it was
// published. The read is lock-free; ok is false if the engine has never
// seen the model.
func (e *Engine) Frozen(model string) (fm *FrozenModel, updatesBehind int64, ok bool) {
	v, ok := e.frozen.Load(model)
	if !ok {
		return nil, 0, false
	}
	slot := v.(*frozenSlot)
	pub := slot.pub.Load()
	if pub == nil {
		return nil, 0, false
	}
	return pub.fm, slot.applied.Load() - pub.appliedAt, true
}

// Score scores one raw catalog vector against model's published frozen
// snapshot: a pure read — no WAL append, no labeling-queue rotation, no
// mailbox hop, no locks — bit-identical to the score Predictor.Score
// would have returned at the publication point.
func (e *Engine) Score(model string, values []float64) (ScoreResult, error) {
	start := time.Now()
	fm, behind, ok := e.Frozen(model)
	if !ok {
		return ScoreResult{}, ErrUnknownModel
	}
	score, err := fm.Score(values)
	if err != nil {
		return ScoreResult{}, err
	}
	e.met.predictRequests.Inc()
	e.met.predictSeconds.Observe(time.Since(start).Seconds())
	return ScoreResult{
		Score:         score,
		Risky:         fm.Risky(score),
		UpdatesBehind: behind,
		SnapshotAge:   start.Sub(fm.FrozenAt()),
	}, nil
}

// scoreBatchScratch recycles ScoreBatch's gather/scatter state: the
// valid-vector view handed to the batch kernel, the kernel's output
// buffer, and the valid->caller index map.
type scoreBatchScratch struct {
	X   [][]float64
	out []float64
	idx []int
}

// ScoreBatch scores many vectors against one published snapshot (all
// results are mutually consistent), filling dst (grown or truncated to
// len(X)) so steady-state callers allocate nothing. Each vector
// succeeds or fails alone via its result's Err; the call errors only
// when the model has no snapshot.
//
// Valid vectors run through the snapshot's block-scoring kernel
// (FrozenModel.ScoreBatchInto) rather than one scalar walk per item:
// invalid vectors are failed in place, the rest are gathered into a
// pooled scratch, batch-scored, and scattered back — bit-identical to
// scoring each vector alone, at batch throughput.
func (e *Engine) ScoreBatch(model string, X [][]float64, dst []ScoreResult) ([]ScoreResult, error) {
	start := time.Now()
	fm, behind, ok := e.Frozen(model)
	if !ok {
		return dst, ErrUnknownModel
	}
	if cap(dst) < len(X) {
		dst = make([]ScoreResult, len(X))
	} else {
		dst = dst[:len(X)]
	}
	age := start.Sub(fm.FrozenAt())
	sc, _ := e.scoreScratch.Get().(*scoreBatchScratch)
	if sc == nil {
		sc = &scoreBatchScratch{}
	}
	sc.X, sc.idx = sc.X[:0], sc.idx[:0]
	for i, values := range X {
		if err := checkCatalog(values); err != nil {
			dst[i] = ScoreResult{UpdatesBehind: behind, SnapshotAge: age, Err: err}
			continue
		}
		sc.X = append(sc.X, values)
		sc.idx = append(sc.idx, i)
	}
	var err error
	sc.out, err = fm.ScoreBatchInto(sc.out, sc.X)
	if err != nil {
		// Pre-validated vectors can only fail on a corrupt snapshot
		// (forest/feature dimension divergence); fail them all alike.
		for _, i := range sc.idx {
			dst[i] = ScoreResult{UpdatesBehind: behind, SnapshotAge: age, Err: err}
		}
	} else {
		for k, i := range sc.idx {
			score := sc.out[k]
			dst[i] = ScoreResult{
				Score:         score,
				Risky:         fm.Risky(score),
				UpdatesBehind: behind,
				SnapshotAge:   age,
			}
		}
	}
	for i := range sc.X {
		sc.X[i] = nil // don't pin caller vectors in the pool
	}
	e.scoreScratch.Put(sc)
	e.met.predictRequests.Inc()
	e.met.predictSeconds.Observe(time.Since(start).Seconds())
	return dst, nil
}

// ModelOf returns the drive model the routing memory maps a serial to.
// Unlike the model-addressed read path this takes the routing read lock;
// it exists so /v1/predict can serve dashboards that only know serials.
func (e *Engine) ModelOf(serial string) (string, bool) {
	e.mu.RLock()
	model, ok := e.modelOf[serial]
	e.mu.RUnlock()
	return model, ok
}

// slotFor returns (creating on first use) the publication slot for a
// model. Slots are never removed: a model that once published keeps its
// last snapshot readable even while its shard is idle.
func (e *Engine) slotFor(model string) *frozenSlot {
	if v, ok := e.frozen.Load(model); ok {
		return v.(*frozenSlot)
	}
	v, _ := e.frozen.LoadOrStore(model, &frozenSlot{})
	return v.(*frozenSlot)
}

// publish freezes the shard's predictor and swaps the new snapshot in.
// Runs on the shard's worker (or during single-threaded construction /
// recovery), so it never races another publish for the same slot.
func (e *Engine) publish(s *shardState) {
	fm := s.p.Freeze()
	s.slot.pub.Store(&frozenPub{fm: fm, appliedAt: s.slot.applied.Load()})
	s.sinceFreeze = 0
	s.lastFreeze = fm.FrozenAt()
	e.met.freezes.Inc()
}

// noteApplied records n observations applied on the shard worker and
// republishes the frozen snapshot when the count or time cadence says
// so. FreezeEvery < 0 disables republication (the construction-time
// snapshot stays up forever).
func (e *Engine) noteApplied(s *shardState, n int) {
	s.slot.applied.Add(int64(n))
	if e.freezeEvery < 0 {
		return
	}
	s.sinceFreeze += n
	if s.sinceFreeze < e.freezeEvery &&
		(e.freezeInterval <= 0 || time.Since(s.lastFreeze) < e.freezeInterval) {
		return
	}
	e.publish(s)
}

// registerFrozenGauges surfaces per-model snapshot staleness as
// scrape-time gauge families.
func (e *Engine) registerFrozenGauges() {
	e.reg.GaugeFuncVec("frozen_snapshot_age_seconds",
		"Age of the published frozen scoring snapshot, per drive model.",
		[]string{"model"},
		func(emit func(v float64, labelValues ...string)) {
			now := time.Now()
			e.frozen.Range(func(k, v any) bool {
				if pub := v.(*frozenSlot).pub.Load(); pub != nil {
					emit(now.Sub(pub.fm.FrozenAt()).Seconds(), k.(string))
				}
				return true
			})
		})
	e.reg.GaugeFuncVec("frozen_updates_behind",
		"Observations applied since the frozen snapshot was published, per drive model.",
		[]string{"model"},
		func(emit func(v float64, labelValues ...string)) {
			e.frozen.Range(func(k, v any) bool {
				slot := v.(*frozenSlot)
				if pub := slot.pub.Load(); pub != nil {
					emit(float64(slot.applied.Load()-pub.appliedAt), k.(string))
				}
				return true
			})
		})
}

// refreezeAll republishes every live shard's snapshot on its worker
// (used after recovery so readers never see a pre-replay snapshot, and
// by tests that need a deterministic publication point).
func (e *Engine) refreezeAll() error {
	for _, model := range e.pool.Keys() {
		if err := e.pool.Do(model, func(s *shardState) { e.publish(s) }); err != nil {
			return fmt.Errorf("orfdisk: refreezing %q: %w", model, err)
		}
	}
	return nil
}
