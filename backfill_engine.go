package orfdisk

import (
	"bufio"
	"bytes"
	"encoding/binary"
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
//     recovery re-reads the newest cursor (from the WAL suffix or from
//     the cursor file a snapshot persisted) and counts the rows of the
//     backfill records after it. The pair (cursor, rowsAfter) is an exact
//     resume point — the loader seeks its readers to the cursor and
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

// bfState is the engine's cursor bookkeeping, all guarded by mu.
type bfState struct {
	mu sync.Mutex
	bfResume

	// pendingLow pins the snapshot truncation cutoff while a backfill
	// batch is between its WAL append and its shard applies. The live
	// ingest path appends on the shard worker itself, so Snapshot's
	// worker-serialized reads can never observe durable-but-unapplied
	// records there; the backfill loader appends from its own goroutine,
	// so without this floor a concurrent snapshot could truncate records
	// no snapshot covers and no shard has applied yet. Zero means no
	// batch is in flight. Set (to a pre-append NextSeq lower bound)
	// before the records exist, so any cutoff computed after they exist
	// observes it.
	pendingLow uint64

	// enc is IngestBackfill's framing scratch (single in-flight call by
	// contract — the loader is one goroutine), recOf[i] the position in
	// the framed batch of the record that holds row i, and x the row being
	// framed, projected onto its model's features.
	enc   recordBatch
	recOf []uint32
	x     []float64
}

// bfResume is the durable resume point: the newest cursor and the count
// of backfill rows after it, valid once any backfill has touched the
// engine. seq is the highest WAL sequence number the pair accounts for;
// recovery uses it to know which replayed records are news. It is what
// the cursor file holds.
type bfResume struct {
	valid     bool
	cur       BackfillCursor
	rowsAfter uint64
	seq       uint64
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

	var first, last uint64
	if e.wal != nil {
		bf := &e.bf
		bf.mu.Lock()
		bf.pendingLow = e.wal.NextSeq() // lower bound: concurrent appends only raise NextSeq
		bf.mu.Unlock()
		bf.enc.reset()
		bf.recOf = bf.recOf[:0]
		for lo, hi := 0, 0; lo < len(batch); lo = hi {
			for hi = lo + 1; hi < len(batch) && hi-lo < applyRunCap && batch[hi].Model == batch[lo].Model; hi++ {
			}
			rec := uint32(len(bf.enc.offs))
			_, feats := e.startOf(batch[lo].Model)
			bf.enc.beginRun(recObserveBFRun, &batch[lo], feats, hi-lo)
			for i := lo; i < hi; i++ {
				bf.x = smart.AppendProject(bf.x[:0], batch[i].Values, feats)
				bf.enc.addRow(&batch[i], bf.x)
				bf.recOf = append(bf.recOf, rec)
			}
		}
		if cur != nil {
			bf.enc.addCursor(*cur)
		}
		payloads := bf.enc.payloads()
		var err error
		if first, err = e.wal.AppendBatch(payloads); err != nil {
			e.met.ingestErrors.Add(uint64(len(batch)))
			return err
		}
		last = first + uint64(len(payloads)) - 1
	}
	e.noteBackfill(last, uint64(len(batch)), cur)

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
			e.absorbSlice(s, batch, idxs, first)
		})
		if err != nil {
			wg.Done()
			if subErr == nil {
				subErr = err
			}
		}
	}
	wg.Wait()
	if subErr == nil && e.wal != nil {
		// Every row is applied; snapshots may truncate past the batch
		// again. On error the floor stays set — conservative: it pins
		// the WAL, but the records it pins are exactly the ones only
		// the WAL still knows about.
		e.bf.mu.Lock()
		e.bf.pendingLow = 0
		e.bf.mu.Unlock()
	}
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
// append (IngestBackfill logged the whole batch from first on, so row i
// sits in record first+recOf[i]; a memory-only engine has no records).
// The slice is the unit a snapshot sees, as in ingestSlice, however many
// runs its rows were framed as.
func (e *Engine) absorbSlice(s *shardState, batch []FleetObservation, idxs []int, first uint64) {
	e.met.ingests.Add(uint64(len(idxs)))
	for _, i := range idxs {
		seq := first
		if e.wal != nil {
			seq += uint64(e.bf.recOf[i])
		}
		e.applyRow(s, seq, &batch[i], s.p.project(batch[i].Values, s.p.features), false)
	}
	e.noteApplied(s, len(idxs))
}

// noteBackfill advances the cursor accounting by what the WAL records up
// to seq add: a cursor resets rowsAfter to zero, rows without one add to
// it. IngestBackfill calls it per durable batch (seq is the batch's last
// record, 0 on a memory-only engine), applyRecords per replayed or
// replicated record — where anything at or below bf.seq is not news: the
// cursor file or an earlier delivery already accounted for it.
func (e *Engine) noteBackfill(seq, rows uint64, cur *BackfillCursor) {
	e.bf.mu.Lock()
	defer e.bf.mu.Unlock()
	if seq != 0 && seq <= e.bf.seq {
		return
	}
	e.bf.seq = seq
	e.bf.valid = true
	if cur != nil {
		e.bf.cur = cur.clone()
		e.bf.rowsAfter = 0
	} else {
		e.bf.rowsAfter += rows
	}
}

// DumpModel streams the named model's complete predictor state
// (identical bytes to the payload a snapshot would store) to w. Backfill
// equivalence tests compare engines through it: snapshot files also
// carry WAL sequence numbers, which legitimately differ between runs
// whose record framing differs, while the predictor state must not.
func (e *Engine) DumpModel(model string, w io.Writer) error {
	var serr error
	if err := e.pool.Query(model, func(s *shardState) {
		serr = s.p.SaveState(w)
	}); err != nil {
		return err
	}
	return serr
}

// --- cursor file (snapshot-side persistence) ---

// The WAL suffix holding the newest cursor record may be truncated by a
// snapshot pass, so Snapshot also persists the cursor state to a small
// atomically-replaced file. Recovery seeds from the file, then replays
// the WAL suffix on top; bf.seq keeps the two sources consistent.

const cursorMagic = "OBC1"

// writeBackfillCursorFile persists the resume point, if there is one. It
// is durable when this returns, before the truncation that relies on it.
func (e *Engine) writeBackfillCursorFile() error {
	e.bf.mu.Lock()
	var b []byte
	if e.bf.valid {
		b = appendCursorFile(nil, e.bf.bfResume)
	}
	e.bf.mu.Unlock()
	if b == nil {
		return nil
	}
	_, err := writeFileAtomic(e.cfg.DataDir, cursorFileName, func(w *bufio.Writer) error {
		_, err := w.Write(b)
		return err
	})
	return err
}

// appendCursorFile encodes r as the cursor file holds it: the OBC1 magic,
// seq as a u64 little endian, rowsAfter as a uvarint, then the cursor as
// its WAL cursor record.
func appendCursorFile(buf []byte, r bfResume) []byte {
	buf = append(buf, cursorMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, r.seq)
	buf = binary.AppendUvarint(buf, r.rowsAfter)
	return appendCursorRecord(buf, r.cur)
}

// decodeCursorFile parses what appendCursorFile wrote.
func decodeCursorFile(b []byte) (bfResume, error) {
	corrupt := func(what any) (bfResume, error) {
		return bfResume{}, fmt.Errorf("orfdisk: corrupt backfill cursor file (%v)", what)
	}
	rest, ok := bytes.CutPrefix(b, []byte(cursorMagic))
	if !ok {
		return corrupt("no " + cursorMagic + " magic")
	}
	if len(rest) < 8 {
		return corrupt("truncated sequence number")
	}
	r := bfResume{valid: true, seq: binary.LittleEndian.Uint64(rest)}
	var n int
	if r.rowsAfter, n = binary.Uvarint(rest[8:]); n <= 0 {
		return corrupt("truncated row count")
	}
	rest = rest[8+n:]
	if len(rest) == 0 || rest[0] != recCursor {
		return corrupt("no cursor record")
	}
	cur, err := decodeCursorRecord(rest[1:])
	if err != nil {
		return corrupt(err)
	}
	r.cur = *cur
	return r, nil
}
