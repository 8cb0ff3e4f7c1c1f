package orfdisk

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"orfdisk/internal/smart"
)

// Engine-side half of the bulk backfill path (the loader pipeline lives
// in internal/backfill). Two properties distinguish it from IngestBatch:
//
//   - Rows are applied through Predictor.Absorb — identical model state,
//     no per-row scoring. Historical replay needs the state the stream
//     leaves behind, not day-by-day alarms, and the frozen-forest tree
//     walk is the dominant per-row cost of the live path.
//
//   - Durability is arranged for exact-once resume. All records of one
//     IngestBackfill call — the rows, then optionally a cursor record
//     describing the loader's (file, row, offset) frontier AFTER those
//     rows — are framed into a single wal.AppendBatch, so they occupy
//     one contiguous, atomically-ordered seq range appended by the one
//     loader goroutine. The rows are framed in batch order, one run
//     record per stretch of consecutive rows of one model (not one per
//     model: grouping would put a later row of one model ahead of an
//     earlier row of another). The WAL loses only suffixes, so the
//     durable state is always "some prefix of the submitted rows", even
//     when a power failure tears a batch between two of its records:
//     recovery starts from the resume point the newest pass record holds,
//     re-reads the newest cursor after it and counts the rows of the
//     backfill records after that. The pair (cursor, rowsAfter) is an
//     exact resume point — the loader seeks its readers to the cursor and
//     discards exactly rowsAfter merged rows before submitting again.
//
// Backfill runs use their own record kind so live Ingest traffic can
// never perturb the rowsAfter count.

// BackfillFilePos is one source file's position inside a BackfillCursor.
type BackfillFilePos struct {
	// Name is the file's base name (cursors must survive the archive
	// being remounted at a different path).
	Name string
	// Rows is the number of data rows fully consumed from the file.
	Rows int64
	// Off is the byte offset just past the last consumed row.
	Off int64
}

// BackfillCursor is the loader's merge frontier: how far each source
// file has been consumed, and the day/row watermark of the merged
// stream. The zero value means "start of all files".
type BackfillCursor struct {
	// Day is the day index of the last merged row handed to the engine.
	Day int
	// Rows is the total number of merged rows handed to the engine.
	Rows int64
	// Files holds one position per source file that has been opened.
	Files []BackfillFilePos
}

func (c BackfillCursor) clone() BackfillCursor {
	c.Files = append([]BackfillFilePos(nil), c.Files...)
	return c
}

// bfState is the engine's cursor bookkeeping.
type bfState struct {
	// gate is held by IngestBackfill from its WAL append until every row
	// of the batch is applied, and by a snapshot pass for the whole pass.
	// The live ingest path appends on the shard worker itself, so a state
	// record, written on the same worker, always follows the rows it
	// holds; the loader appends from its own goroutine, and without the
	// gate a state record could land after a batch whose rows its shard
	// has yet to apply, and replay would overwrite them.
	gate sync.Mutex

	mu sync.Mutex // guards bfResume
	bfResume

	// enc is IngestBackfill's framing scratch (single in-flight call by
	// contract — the loader is one goroutine), feats the feature list of
	// each of the batch's models, and x the row being framed, projected
	// onto its model's features, and the row before it, which addRow codes
	// the next row against: rows alternate between the two.
	enc   recordBatch
	feats map[string][]int
	x     [2][]float64
}

// bfResume is the durable resume point: the newest cursor and the count
// of backfill rows after it, valid once any backfill has touched the
// engine. A pass record holds it.
type bfResume struct {
	valid     bool
	cur       BackfillCursor
	rowsAfter uint64
}

// BackfillState returns the durable backfill resume point: the last
// cursor the engine has seen plus the number of backfill rows applied
// after it. ok is false when no backfill has ever touched this engine
// (resume from the beginning, skip nothing).
func (e *Engine) BackfillState() (cur BackfillCursor, rowsAfter uint64, ok bool) {
	e.bf.mu.Lock()
	defer e.bf.mu.Unlock()
	return e.bf.cur.clone(), e.bf.rowsAfter, e.bf.valid
}

// IngestBackfill applies one chronological slice of the backfill stream.
// Rows must be pre-validated by the loader (serial, model and full-width
// values present); any invalid row — or one whose disk changes model, as
// Ingest and IngestBatch refuse it — fails the whole batch before
// anything is appended, keeping the WAL row count in lockstep with the
// loader's. cur, when non-nil, is the loader's frontier after these
// rows; it is framed into the same WAL batch, becoming the new durable
// resume point the moment the batch is.
//
// Unlike IngestBatch, a full shard mailbox blocks (backpressure)
// instead of shedding with ErrBusy: the loader is the only caller and
// wants throughput, not tail latency. Calls must not be concurrent;
// rows for one model apply in slice order. The call returns after every
// row is applied, so the caller may reuse the batch's backing memory.
func (e *Engine) IngestBackfill(batch []FleetObservation, cur *BackfillCursor) error {
	if e.follower.Load() {
		return ErrNotLeader
	}
	if len(batch) == 0 && cur == nil {
		return nil
	}
	// A disk that changes model fails the batch, as in IngestBatch.
	sc := e.getScratch()
	defer e.scratch.Put(sc)
	for i := range batch {
		if err := e.validate(batch[i]); err != nil {
			return fmt.Errorf("orfdisk: backfill row %d: %w", i, err)
		}
		if batch[i].Model == "" {
			return fmt.Errorf("orfdisk: backfill row %d (serial %q) has no model", i, batch[i].Serial)
		}
		if err := e.resolveModel(&batch[i], sc.pending); err != nil {
			return fmt.Errorf("orfdisk: backfill row %d: %w", i, err)
		}
		sc.pending[batch[i].Serial] = batchRoute{batch[i].Model, batch[i].Failed}
		sc.add(batch[i].Model, i)
	}

	bf := &e.bf
	if e.wal != nil {
		// Each run is framed under the features its model's predictor
		// reads, which a state record may have set to other than the
		// configured list: the log and the shard never disagree.
		if bf.feats == nil {
			bf.feats = make(map[string][]int)
		}
		clear(bf.feats)
		for _, model := range sc.order {
			if err := e.pool.Do(model, func(s *shardState) { bf.feats[model] = s.p.features }); err != nil {
				return err
			}
		}
		bf.enc.reset()
		for lo, hi := 0, 0; lo < len(batch); lo = hi {
			for hi = lo + 1; hi < len(batch) && hi-lo < applyRunCap && batch[hi].Model == batch[lo].Model; hi++ {
			}
			feats := bf.feats[batch[lo].Model]
			bf.enc.beginRun(recObserveBFRun, &batch[lo], feats, hi-lo)
			for i := lo; i < hi; i++ {
				x := &bf.x[i&1]
				*x = smart.AppendProject((*x)[:0], batch[i].Values, feats)
				bf.enc.addRow(&batch[i], *x)
			}
		}
		if cur != nil {
			bf.enc.addCursor(*cur)
		}
		bf.gate.Lock()
		defer bf.gate.Unlock()
		if _, err := e.wal.AppendBatch(bf.enc.payloads()); err != nil {
			e.met.ingestErrors.Add(uint64(len(batch)))
			return err
		}
	}
	e.noteBackfill(uint64(len(batch)), cur)

	// Fan the durable rows out to their shards; grouped in batch order,
	// per-model slices stay chronological. Distinct models absorb in
	// parallel.
	var (
		wg     sync.WaitGroup
		subErr error
	)
	for k, model := range sc.order {
		idxs := sc.idxs[k]
		wg.Add(1)
		err := e.submitBlocking(model, func(s *shardState) {
			defer wg.Done()
			e.absorbSlice(s, batch, idxs)
		})
		if err != nil {
			wg.Done()
			if subErr == nil {
				subErr = err
			}
		}
	}
	wg.Wait()
	return subErr
}

// submitBlocking enqueues fn on model's shard, waiting out ErrBusy: the
// bounded mailbox is the pipeline's backpressure, not a shed signal.
// The retry sleeps (1 ms doubling to a 50 ms cap) instead of spinning —
// a full mailbox means the worker is busy for many milliseconds, and a
// hot Submit loop would burn the core the worker needs to drain it.
func (e *Engine) submitBlocking(model string, fn func(*shardState)) error {
	backoff := time.Millisecond
	for {
		err := e.pool.Submit(model, fn)
		if !errors.Is(err, ErrBusy) {
			return err
		}
		time.Sleep(backoff)
		backoff = min(2*backoff, 50*time.Millisecond)
	}
}

// absorbSlice applies one shard's slice of a backfill batch on the
// shard's worker: ingestSlice minus scoring, per-row results and the WAL
// append (IngestBackfill logged the whole batch).
func (e *Engine) absorbSlice(s *shardState, batch []FleetObservation, idxs []int) {
	e.met.ingests.Add(uint64(len(idxs)))
	for _, i := range idxs {
		e.applyRow(s, &batch[i], s.p.project(batch[i].Values, s.p.features), false)
	}
	e.noteApplied(s, len(idxs))
}

// noteBackfill advances the cursor accounting by what a durable batch
// or a replayed record adds: a cursor resets rowsAfter to zero, rows
// without one add to it. IngestBackfill calls it per batch, applyRecords
// per replayed or replicated record.
func (e *Engine) noteBackfill(rows uint64, cur *BackfillCursor) {
	e.bf.mu.Lock()
	defer e.bf.mu.Unlock()
	e.bf.valid = true
	if cur != nil {
		e.bf.cur = cur.clone()
		e.bf.rowsAfter = 0
	} else {
		e.bf.rowsAfter += rows
	}
}

// DumpModel streams the named model's complete predictor state
// (identical bytes to what a state record holds after the model's name)
// to w. Equivalence tests compare engines through it: where in the log
// a state record lands legitimately differs between runs whose record
// framing differs, while the predictor state must not.
func (e *Engine) DumpModel(model string, w io.Writer) error {
	var serr error
	if err := e.pool.Query(model, func(s *shardState) {
		serr = s.p.SaveState(w)
	}); err != nil {
		return err
	}
	return serr
}
