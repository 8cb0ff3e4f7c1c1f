package orfdisk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"

	"orfdisk/internal/huffman"
	"orfdisk/internal/packed"
)

// The record codec: the payloads the engine appends to its WAL, ships to
// followers and replays on recovery. Framing (length, CRC, sequence
// number) belongs to internal/wal and internal/replica.

const (
	recRetire = 2
	recCursor = 5 // backfill progress cursor (see backfill_engine.go)

	// A run: the rows of one model that one append made durable together —
	// a shard's slice of an IngestBatch (Ingest is a run of one), or a
	// stretch of an IngestBackfill batch — under one kind byte, one model,
	// one base day and one list of the catalog indexes its rows hold: the
	// model's feature list, so a row carries what the model reads and not
	// the whole catalog. Each row after the first is coded against the one
	// before it in the run: the serial bytes they share and the values
	// they repeat are not written again. Backfill runs have their own kind
	// so the resume cursor counts only its own rows; they are applied via
	// Absorb.
	recObserveRun   = 10
	recObserveBFRun = 11
	// A coded run (14 live, 15 backfill) is the same run with its row
	// bytes — everything after the row count — entropy-coded: their
	// length as a uvarint, then one literal-only DEFLATE stream of them
	// (internal/huffman). The rows themselves are coded as in kinds
	// 10/11, and a writer codes a run only when that makes it shorter.
	recObserveCodedRun   = 14
	recObserveBFCodedRun = 15
	codedRunDelta        = recObserveCodedRun - recObserveRun
	// minCodedRows is the row bytes under which endRun does not try:
	// a dynamic block spends 15-30 B on its code lengths for a SMART
	// row's byte mix, so a run that short (one row of the paper's 19
	// features is ~56 B) does not come out shorter, and building the
	// code would cost ~2 µs, ten times a single-row Ingest's framing.
	minCodedRows = 64

	// A snapshot pass (Engine.Snapshot) writes one state record per model
	// — the model and its whole predictor state, covering every record of
	// the model below it — then one pass record: the pass's first
	// sequence number and the absolute backfill resume point.
	recState = 12
	recPass  = 13
	// Kinds 1, 3, 4, 6 and 7 held one row each, and kinds 8 and 9 were
	// runs of whole catalog rows; decodeRecord refuses them all.
)

// Per-row flags of a run record. Bits 2-7 hold how many leading bytes the
// row's serial shares with the previous row's (0 on row 0, at most
// runMaxShared).
const (
	runRowFailed = 1 << iota // the disk's failure row
	runRowDay                // a varint follows: this row's day minus the run's base day

	runSharedShift = 2
	runMaxShared   = 0xFF >> runSharedShift
)

// walRecord is one decoded record: a run, a retire, a cursor, a state or
// a pass.
type walRecord struct {
	kind   byte
	model  string // a run's, a retire's or a state's
	serial string // a retire's
	// run holds a run's rows (nil for the other kinds); their Values
	// share one slab. index holds the catalog indexes of a row's values.
	run   []FleetObservation
	index []int
	cur   *BackfillCursor // a cursor's
	state []byte          // a state's: what Predictor.appendState wrote; aliases the payload
	pass  *passRecord     // a pass's
}

// passRecord is a pass record's body: first, the pass's first sequence
// number (the log from it on holds every model's state), and the backfill
// resume point as the pass found it.
type passRecord struct {
	first uint64
	bf    bfResume
}

// recordBatch frames several records into one reused buffer and slices
// it into the per-record payloads wal.AppendBatch takes, so a steady-
// state append allocates nothing. Offsets become slices only at the
// end: the buffer may move as it grows.
type recordBatch struct {
	buf     []byte
	offs    []int
	payload [][]byte
	// The open run's base day, which addRow encodes each row's day
	// against, and its previous row, which addRow codes the next against:
	// row counts the rows added so far, and prev is the last one's values
	// (the caller's slice, not a copy).
	baseDay    int
	row        int
	prevSerial string
	prev       []float64
	// rowsAt is where the open run's row bytes start in buf (0 when no
	// run is open), and huff the entropy coder endRun codes them with.
	rowsAt int
	huff   huffman.Encoder
}

func (b *recordBatch) reset() { b.buf, b.offs, b.rowsAt = b.buf[:0], b.offs[:0], 0 }

// beginRun opens a run record (kind 10 or 11) of rows observations (1 to
// applyRunCap; the cap keeps a decoded run one crossing to its shard and
// the record far below the log's size limit), all of first's model, each
// holding the catalog values at index; the caller follows with exactly
// that many addRow calls, first's included. The body is the model as a
// length-prefixed string, the base day (first's) as a varint, the index
// count and each index as uvarints, then the row count as a uvarint. The
// same bytes are the WAL payload on a leader, the record a replication
// frame carries and what a follower appends to its own log.
func (b *recordBatch) beginRun(kind byte, first *FleetObservation, index []int, rows int) {
	b.endRun()
	b.offs = append(b.offs, len(b.buf))
	b.baseDay, b.row = first.Day, 0
	b.buf = append(b.buf, kind)
	b.buf = binary.AppendUvarint(b.buf, uint64(len(first.Model)))
	b.buf = append(b.buf, first.Model...)
	b.buf = binary.AppendVarint(b.buf, int64(b.baseDay))
	b.buf = binary.AppendUvarint(b.buf, uint64(len(index)))
	for _, j := range index {
		b.buf = binary.AppendUvarint(b.buf, uint64(j))
	}
	b.buf = binary.AppendUvarint(b.buf, uint64(rows))
	b.rowsAt = len(b.buf)
}

// addRow appends obs to the open run with vals as its values, exactly
// the catalog values at the run's index list: a flags byte (with the
// count of leading serial bytes shared with the previous row), the day
// only where it differs from the run's, the rest of the serial as a
// length-prefixed string, then the values as packed.Append lays them out
// against the previous row's (row 0 against none). Each part is at most
// as long as the same part coded on its own, as the previous release
// wrote every row. vals must stay unchanged until the next addRow call
// returns, which reads it as the previous row.
func (b *recordBatch) addRow(obs *FleetObservation, vals []float64) {
	var flags byte
	if obs.Failed {
		flags |= runRowFailed
	}
	if obs.Day != b.baseDay {
		flags |= runRowDay
	}
	var prev []float64
	shared := 0
	if b.row > 0 {
		prev = b.prev
		for n := min(len(b.prevSerial), len(obs.Serial), runMaxShared); shared < n && b.prevSerial[shared] == obs.Serial[shared]; shared++ {
		}
	}
	b.buf = append(b.buf, flags|byte(shared)<<runSharedShift)
	if flags&runRowDay != 0 {
		b.buf = binary.AppendVarint(b.buf, int64(obs.Day)-int64(b.baseDay))
	}
	b.buf = binary.AppendUvarint(b.buf, uint64(len(obs.Serial)-shared))
	b.buf = append(b.buf, obs.Serial[shared:]...)
	b.buf = packed.Append(b.buf, vals, prev)
	b.row++
	b.prevSerial, b.prev = obs.Serial, vals
}

// endRun closes the open run, if any: its row bytes become a coded
// run's length and stream, and its kind the coded kind, when that is
// shorter than the rows; otherwise, and for rows under minCodedRows
// bytes, the run stays as framed. The stream
// is written past the rows and then moved over them, so buf grows to
// hold both once and never after.
func (b *recordBatch) endRun() {
	at, end := b.rowsAt, len(b.buf)
	b.rowsAt = 0
	if at == 0 || end-at < minCodedRows {
		return
	}
	var n [binary.MaxVarintLen64]byte
	prefix := n[:binary.PutUvarint(n[:], uint64(end-at))]
	out, ok := b.huff.Append(b.buf, b.buf[at:end], end-at-len(prefix))
	if !ok {
		return
	}
	k := copy(out[at:], prefix)
	k += copy(out[at+k:], out[end:])
	b.buf = out[:at+k]
	b.buf[b.offs[len(b.offs)-1]] += codedRunDelta
}

func (b *recordBatch) addCursor(c BackfillCursor) {
	b.endRun()
	b.offs = append(b.offs, len(b.buf))
	b.buf = appendCursorRecord(b.buf, c)
}

// payloads closes the open run and returns one slice of the shared
// buffer per added record, valid until the next reset.
func (b *recordBatch) payloads() [][]byte {
	b.endRun()
	b.payload = b.payload[:0]
	for j, off := range b.offs {
		end := len(b.buf)
		if j+1 < len(b.offs) {
			end = b.offs[j+1]
		}
		b.payload = append(b.payload, b.buf[off:end])
	}
	return b.payload
}

// appendStateRecord frames model's state record: the kind, the model as
// a length-prefixed string, then the predictor state to the end.
func appendStateRecord(buf []byte, model string, p *Predictor) ([]byte, error) {
	buf = append(buf, recState)
	buf = binary.AppendUvarint(buf, uint64(len(model)))
	return p.appendState(append(buf, model...))
}

// appendPassRecord frames a pass record: the kind, first as a uvarint,
// then a byte saying whether a backfill resume point follows and, if
// one does, its row count as a uvarint and its cursor as a cursor
// record's body.
func appendPassRecord(buf []byte, r passRecord) []byte {
	buf = append(buf, recPass)
	buf = binary.AppendUvarint(buf, r.first)
	if !r.bf.valid {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	buf = binary.AppendUvarint(buf, r.bf.rowsAfter)
	return appendCursorBody(buf, r.bf.cur)
}

func decodePassRecord(b []byte) (*passRecord, error) {
	bad := errors.New("orfdisk: truncated pass WAL record")
	var r passRecord
	var n int
	if r.first, n = binary.Uvarint(b); n <= 0 || len(b) == n {
		return nil, bad
	}
	b = b[n:]
	switch b[0] {
	case 0:
		if len(b) != 1 {
			return nil, fmt.Errorf("orfdisk: %d trailing bytes in pass WAL record", len(b)-1)
		}
		return &r, nil
	case 1:
	default:
		return nil, fmt.Errorf("orfdisk: pass WAL record with resume flag %d", b[0])
	}
	if r.bf.rowsAfter, n = binary.Uvarint(b[1:]); n <= 0 {
		return nil, bad
	}
	cur, err := decodeCursorRecord(b[1+n:])
	if err != nil {
		return nil, err
	}
	r.bf.valid, r.bf.cur = true, *cur
	return &r, nil
}

func encodeRetireRecord(model, serial string) []byte {
	buf := make([]byte, 0, 1+4+len(model)+4+len(serial))
	buf = append(buf, recRetire)
	buf = appendString(buf, model)
	buf = appendString(buf, serial)
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

func decodeRecord(b []byte) (walRecord, error) {
	if len(b) < 1 {
		return walRecord{}, fmt.Errorf("orfdisk: empty WAL record")
	}
	rec := walRecord{kind: b[0]}
	b = b[1:]
	var err error
	switch rec.kind {
	case recObserveRun, recObserveBFRun:
		rec.model, rec.index, rec.run, err = decodeRun(b, false)
	case recObserveCodedRun, recObserveBFCodedRun:
		rec.model, rec.index, rec.run, err = decodeRun(b, true)
	case recCursor:
		rec.cur, err = decodeCursorRecord(b)
	case recRetire:
		if rec.model, b, err = takeString(b); err == nil {
			rec.serial, _, err = takeString(b)
		}
	case recState:
		rec.model, rec.state, err = takeVarString(b)
	case recPass:
		rec.pass, err = decodePassRecord(b)
	case 1, 3, 4, 6, 7, 8, 9:
		// A clean stop snapshots every model and seals the log, so a
		// release that reads these and writes runs leaves a directory this
		// one reads.
		layout := "one-row"
		if rec.kind >= 8 {
			layout = "whole-catalog run"
		}
		err = fmt.Errorf("orfdisk: WAL record kind %d is a retired %s observe layout this release does not read; "+
			"start a release that still reads it on this data directory and stop it cleanly (that seals its log), then start this one", rec.kind, layout)
	default:
		err = fmt.Errorf("orfdisk: unknown WAL record kind %d", rec.kind)
	}
	return rec, err
}

var errTruncatedRun = errors.New("orfdisk: truncated run WAL record")

// runBufs recycles the buffers coded runs inflate into: a decoded run
// keeps none of their bytes.
var runBufs = sync.Pool{New: func() any { return new([]byte) }}

// decodeRun parses a run body (b excludes the kind byte; beginRun,
// addRow and endRun give the layout), its row bytes entropy-coded if
// coded. A run an older release wrote, every row coded on its own, is
// the case with no shared serial bytes and no code 15, and decodes as it
// always did. Every count comes from the input and is bounded by what
// b could hold before anything is allocated for it. The rows' Values are
// carved from one slab, so a decoded run costs one allocation for its
// values, not one per row, and one per serial.
func decodeRun(b []byte, coded bool) (model string, index []int, rows []FleetObservation, err error) {
	model, base, index, nrows, b, err := cutRunHeader(b)
	if err != nil {
		return "", nil, nil, err
	}
	if coded {
		buf := runBufs.Get().(*[]byte)
		defer runBufs.Put(buf)
		if b, err = inflateRows(buf, b); err != nil {
			return "", nil, nil, err
		}
	}
	if rows, err = decodeRows(b, model, base, len(index), nrows); err != nil {
		return "", nil, nil, err
	}
	return model, index, rows, nil
}

// cutRunHeader parses a run's header: the model, the base day, the index
// list and the row count, and returns the row bytes after it.
func cutRunHeader(b []byte) (model string, base int64, index []int, nrows uint64, rest []byte, err error) {
	if model, b, err = takeVarString(b); err != nil {
		return "", 0, nil, 0, nil, err
	}
	base, n := binary.Varint(b)
	if n <= 0 {
		return "", 0, nil, 0, nil, errTruncatedRun
	}
	b = b[n:]
	width, n := binary.Uvarint(b)
	if n <= 0 {
		return "", 0, nil, 0, nil, errTruncatedRun
	}
	b = b[n:]
	if width > uint64(len(b)) { // an index is at least one byte
		return "", 0, nil, 0, nil, fmt.Errorf("orfdisk: run WAL record lists %d indexes in %d bytes", width, len(b))
	}
	index = make([]int, width)
	for i := range index {
		j, n := binary.Uvarint(b)
		if n <= 0 {
			return "", 0, nil, 0, nil, errTruncatedRun
		}
		index[i], b = int(j), b[n:]
	}
	if nrows, n = binary.Uvarint(b); n <= 0 {
		return "", 0, nil, 0, nil, errTruncatedRun
	}
	return model, base, index, nrows, b[n:], nil
}

// inflateRows inflates a coded run's row bytes (their length, then the
// stream) into *buf and returns them. huffman.Decode checks the length
// against the stream before *buf grows: what a hostile length buys is
// bounded by the record's own size.
func inflateRows(buf *[]byte, b []byte) ([]byte, error) {
	rawLen, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, errTruncatedRun
	}
	if rawLen > math.MaxInt32 {
		return nil, fmt.Errorf("orfdisk: coded run WAL record claims %d row bytes", rawLen)
	}
	raw, err := huffman.Decode((*buf)[:0], b[n:], int(rawLen))
	if err != nil {
		return nil, fmt.Errorf("orfdisk: coded run WAL record: %w", err)
	}
	*buf = raw
	return raw, nil
}

// decodeRows parses nrows rows of width values each, the run's row bytes
// b, against base day base.
func decodeRows(b []byte, model string, base int64, width int, nrows uint64) ([]FleetObservation, error) {
	// A row is at least its flags byte and its serial's length, a value at
	// least its half-byte code (code 15 included); width is at most the
	// record's length, so the product cannot overflow.
	switch {
	case nrows == 0:
		return nil, errors.New("orfdisk: run WAL record with no rows")
	case nrows > applyRunCap:
		return nil, fmt.Errorf("orfdisk: run WAL record of %d rows, more than the %d a writer frames", nrows, applyRunCap)
	case nrows > uint64(len(b))/2:
		return nil, fmt.Errorf("orfdisk: run WAL record claims %d rows in %d bytes", nrows, len(b))
	case uint64(width)*nrows > 2*uint64(len(b)):
		return nil, fmt.Errorf("orfdisk: run WAL record claims %d rows of %d values in %d bytes", nrows, width, len(b))
	}
	rows := make([]FleetObservation, nrows)
	slab := make([]float64, uint64(width)*nrows)
	for i := range rows {
		obs := &rows[i]
		obs.Model = model
		if len(b) < 1 {
			return nil, errTruncatedRun
		}
		flags := b[0]
		b = b[1:]
		shared := int(flags >> runSharedShift)
		var prevSerial string
		var prev []float64
		if i > 0 {
			prevSerial, prev = rows[i-1].Serial, rows[i-1].Values
		}
		if shared > len(prevSerial) {
			return nil, fmt.Errorf("orfdisk: run WAL record: row %d shares %d serial bytes with a %d-byte previous serial",
				i, shared, len(prevSerial))
		}
		obs.Failed = flags&runRowFailed != 0
		day := base
		if flags&runRowDay != 0 {
			delta, n := binary.Varint(b)
			if n <= 0 {
				return nil, errTruncatedRun
			}
			day, b = base+delta, b[n:]
		}
		obs.Day = int(day)
		suffix, rest, err := takeVarBytes(b)
		if err != nil {
			return nil, err
		}
		b = rest
		var serial strings.Builder
		serial.Grow(shared + len(suffix))
		serial.WriteString(prevSerial[:shared])
		serial.Write(suffix)
		obs.Serial = serial.String()
		obs.Values = slab[:width:width]
		slab = slab[width:]
		if b, err = packed.DecodeInto(obs.Values, b, prev); err != nil {
			return nil, fmt.Errorf("orfdisk: run WAL record: row %d: %w", i, err)
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("orfdisk: %d trailing bytes in run WAL record", len(b))
	}
	return rows, nil
}

func takeVarString(b []byte) (string, []byte, error) {
	s, b, err := takeVarBytes(b)
	return string(s), b, err
}

// takeVarBytes splits a uvarint-length-prefixed byte string off b.
func takeVarBytes(b []byte) ([]byte, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(len(b)-sz) {
		return nil, nil, fmt.Errorf("orfdisk: truncated observe WAL record")
	}
	return b[sz : sz+int(n)], b[sz+int(n):], nil
}

func takeString(b []byte) (string, []byte, error) {
	if len(b) < 4 {
		return "", nil, fmt.Errorf("orfdisk: truncated WAL record")
	}
	n := binary.LittleEndian.Uint32(b)
	if uint64(len(b)) < 4+uint64(n) {
		return "", nil, fmt.Errorf("orfdisk: truncated WAL record")
	}
	return string(b[4 : 4+n]), b[4+n:], nil
}

func appendCursorRecord(buf []byte, c BackfillCursor) []byte {
	return appendCursorBody(append(buf, recCursor), c)
}

func appendCursorBody(buf []byte, c BackfillCursor) []byte {
	buf = binary.AppendVarint(buf, int64(c.Day))
	buf = binary.AppendVarint(buf, c.Rows)
	buf = binary.AppendUvarint(buf, uint64(len(c.Files)))
	for _, f := range c.Files {
		buf = binary.AppendUvarint(buf, uint64(len(f.Name)))
		buf = append(buf, f.Name...)
		buf = binary.AppendVarint(buf, f.Rows)
		buf = binary.AppendVarint(buf, f.Off)
	}
	return buf
}

// decodeCursorRecord parses the body written by appendCursorBody.
func decodeCursorRecord(b []byte) (*BackfillCursor, error) {
	bad := errors.New("orfdisk: truncated cursor WAL record")
	var c BackfillCursor
	day, n := binary.Varint(b)
	if n <= 0 {
		return nil, bad
	}
	c.Day = int(day)
	b = b[n:]
	rows, n := binary.Varint(b)
	if n <= 0 {
		return nil, bad
	}
	c.Rows = rows
	b = b[n:]
	nf, n := binary.Uvarint(b)
	if n <= 0 || nf > uint64(len(b)) {
		return nil, bad
	}
	b = b[n:]
	c.Files = make([]BackfillFilePos, 0, nf)
	for i := uint64(0); i < nf; i++ {
		var f BackfillFilePos
		ln, n := binary.Uvarint(b)
		if n <= 0 || ln > uint64(len(b)-n) {
			return nil, bad
		}
		f.Name = string(b[n : n+int(ln)])
		b = b[n+int(ln):]
		if f.Rows, n = binary.Varint(b); n <= 0 {
			return nil, bad
		}
		b = b[n:]
		if f.Off, n = binary.Varint(b); n <= 0 {
			return nil, bad
		}
		b = b[n:]
		c.Files = append(c.Files, f)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("orfdisk: %d trailing bytes in cursor WAL record", len(b))
	}
	return &c, nil
}
