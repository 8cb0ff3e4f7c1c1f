package orfdisk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// The record codec: the payloads the engine appends to its WAL, ships to
// followers and replays on recovery. Framing (length, CRC, sequence
// number) belongs to internal/wal and internal/replica.

const (
	recObserveV1 = 1 // fixed-width observe record of the first WAL format: reserved, rejected
	recRetire    = 2
	recObserveV2 = 3 // varint-packed observe record (the live writer)
	recObserveBF = 4 // backfill observe: v2 body, applied via Absorb and counted by the resume cursor
	recCursor    = 5 // backfill progress cursor (see backfill_engine.go)
)

type walRecord struct {
	kind byte
	obs  FleetObservation
	cur  *BackfillCursor // recCursor records only
}

// recordBatch frames several records into one reused buffer and slices
// it into the per-record payloads wal.AppendBatch takes, so a steady-
// state append allocates nothing. Offsets become slices only at the
// end: the buffer may move as it grows.
type recordBatch struct {
	buf     []byte
	offs    []int
	payload [][]byte
}

func (b *recordBatch) reset() { b.buf, b.offs = b.buf[:0], b.offs[:0] }

func (b *recordBatch) addObserve(obs FleetObservation, kind byte) {
	b.offs = append(b.offs, len(b.buf))
	b.buf = appendObserveRecordKind(b.buf, obs, kind)
}

func (b *recordBatch) addCursor(c BackfillCursor) {
	b.offs = append(b.offs, len(b.buf))
	b.buf = appendCursorRecord(b.buf, c)
}

// payloads returns one slice of the shared buffer per added record,
// valid until the next reset.
func (b *recordBatch) payloads() [][]byte {
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

// appendObserveRecordKind frames an observe record onto buf under an
// explicit kind byte: recObserveV2 for the live path, recObserveBF for
// backfill rows (same wire format, distinct kind so the resume cursor
// counts only its own rows). The body is varint header fields, then
// each value as a length byte (0-8) plus that many significant bytes of
// the value's byte-reversed float bits. The reversal moves the
// near-universal small-integer SMART values' zero mantissa bytes to the
// top, so most values pack into 1-4 bytes instead of 8: typical records
// shrink >2x against a fixed-width layout, which halves WAL volume,
// write() time and replay I/O. Unlike a varint the payload is written
// with one 8-byte store per value (the oversized store lands in
// reserved scratch and is overwritten by the next field), keeping the
// encoder off the record's critical path.
func appendObserveRecordKind(buf []byte, obs FleetObservation, kind byte) []byte {
	// Worst case per value: 1 length byte + 8 payload; +8 slack so the
	// last value's full-width store stays in bounds.
	worst := 2 + 3*binary.MaxVarintLen64 + len(obs.Model) + len(obs.Serial) +
		9*len(obs.Values) + 8
	n := len(buf)
	if cap(buf)-n < worst {
		buf = append(buf[:n], make([]byte, worst)...)
	}
	b := buf[n : n+worst]
	b[0] = kind
	i := 1
	i += binary.PutUvarint(b[i:], uint64(len(obs.Model)))
	i += copy(b[i:], obs.Model)
	i += binary.PutUvarint(b[i:], uint64(len(obs.Serial)))
	i += copy(b[i:], obs.Serial)
	i += binary.PutVarint(b[i:], int64(obs.Day))
	if obs.Failed {
		b[i] = 1
	} else {
		b[i] = 0
	}
	i++
	i += binary.PutUvarint(b[i:], uint64(len(obs.Values)))
	for _, v := range obs.Values {
		u := bits.ReverseBytes64(math.Float64bits(v))
		w := (bits.Len64(u) + 7) / 8
		b[i] = byte(w)
		binary.LittleEndian.PutUint64(b[i+1:], u)
		i += 1 + w
	}
	return buf[:n+i]
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
	case recObserveV2, recObserveBF:
		rec.obs, err = decodeObserveV2(b)
	case recCursor:
		rec.cur, err = decodeCursorRecord(b)
	case recRetire:
		if rec.obs.Model, b, err = takeString(b); err == nil {
			rec.obs.Serial, _, err = takeString(b)
		}
	case recObserveV1:
		err = fmt.Errorf("orfdisk: unsupported v1 observe record (WAL written before the varint format; no release since has written one)")
	default:
		err = fmt.Errorf("orfdisk: unknown WAL record kind %d", rec.kind)
	}
	return rec, err
}

// decodeObserveV2 parses the varint-packed observe body written by
// appendObserveRecordKind (b excludes the kind byte).
func decodeObserveV2(b []byte) (FleetObservation, error) {
	var obs FleetObservation
	bad := func() (FleetObservation, error) {
		return obs, fmt.Errorf("orfdisk: truncated v2 WAL record")
	}
	var err error
	if obs.Model, b, err = takeVarString(b); err != nil {
		return obs, err
	}
	if obs.Serial, b, err = takeVarString(b); err != nil {
		return obs, err
	}
	day, n := binary.Varint(b)
	if n <= 0 {
		return bad()
	}
	obs.Day = int(day)
	b = b[n:]
	if len(b) < 1 {
		return bad()
	}
	obs.Failed = b[0] == 1
	b = b[1:]
	nv, n := binary.Uvarint(b)
	if n <= 0 {
		return bad()
	}
	b = b[n:]
	// Every packed value is at least one byte, so nv is bounded by the
	// remaining body; checking before the make keeps a corrupt count
	// from forcing a huge allocation.
	if nv > uint64(len(b)) {
		return bad()
	}
	obs.Values = make([]float64, nv)
	for i := range obs.Values {
		if len(b) < 1 {
			return bad()
		}
		w := int(b[0])
		if w > 8 || len(b) < 1+w {
			return bad()
		}
		var u uint64
		if len(b) >= 9 {
			u = binary.LittleEndian.Uint64(b[1:]) & valueMask[w]
		} else {
			for k := 0; k < w; k++ {
				u |= uint64(b[1+k]) << (8 * k)
			}
		}
		obs.Values[i] = math.Float64frombits(bits.ReverseBytes64(u))
		b = b[1+w:]
	}
	if len(b) != 0 {
		return obs, fmt.Errorf("orfdisk: %d trailing bytes in v2 WAL record", len(b))
	}
	return obs, nil
}

// valueMask[w] keeps the low w bytes of a full-width little-endian
// load, so the decoder can mirror the encoder's single-store trick
// whenever at least 8 payload bytes remain.
var valueMask = [9]uint64{
	0, 0xFF, 0xFFFF, 0xFFFFFF, 0xFFFFFFFF,
	0xFF_FFFFFFFF, 0xFFFF_FFFFFFFF, 0xFFFFFF_FFFFFFFF, ^uint64(0),
}

func takeVarString(b []byte) (string, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(len(b)-sz) {
		return "", nil, fmt.Errorf("orfdisk: truncated v2 WAL record")
	}
	return string(b[sz : sz+int(n)]), b[sz+int(n):], nil
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
	buf = append(buf, recCursor)
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

// decodeCursorRecord parses the body written by appendCursorRecord (b
// excludes the kind byte).
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
