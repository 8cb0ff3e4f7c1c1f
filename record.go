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
	recCursor    = 5 // backfill progress cursor (see backfill_engine.go)
	recObserve   = 6 // observe record (the live writer)
	recObserveBF = 7 // backfill observe: same body, applied via Absorb and counted by the resume cursor

	// The v2 observe layout (a length byte before every value): what
	// recObserve and recObserveBF were written as before the packed value
	// codec. Nothing writes them; decodeRecord reads them, as the kind
	// above, so a log left by a crashed older binary still replays.
	recObserveV2   = 3
	recObserveBFV2 = 4
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
// explicit kind byte: recObserve for the live path, recObserveBF for
// backfill rows (same wire format, distinct kind so the resume cursor
// counts only its own rows). The body is the header fields as varints
// and length-prefixed strings, the value count, then the values as
// packValues lays them out. The same bytes are the WAL payload on a
// leader, the record a replication frame carries and what a follower
// appends to its own log.
func appendObserveRecordKind(buf []byte, obs FleetObservation, kind byte) []byte {
	worst := 2 + 4*binary.MaxVarintLen64 + len(obs.Model) + len(obs.Serial)
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
	return packValues(buf[:n+i], obs.Values)
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
	case recObserve, recObserveBF:
		rec.obs, err = decodeObserve(b, true)
	case recObserveV2, recObserveBFV2:
		rec.kind += recObserve - recObserveV2 // 3 is 6 and 4 is 7 to every caller
		rec.obs, err = decodeObserve(b, false)
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

// decodeObserve parses an observe body (b excludes the kind byte):
// the one appendObserveRecordKind writes when packed, else the v2 layout
// with its length byte per value.
func decodeObserve(b []byte, packed bool) (FleetObservation, error) {
	var obs FleetObservation
	bad := func() (FleetObservation, error) {
		return obs, fmt.Errorf("orfdisk: truncated observe WAL record")
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
	if packed {
		if obs.Values, b, err = unpackValues(b, nv); err != nil {
			return obs, fmt.Errorf("orfdisk: observe WAL record: %w", err)
		}
	} else {
		// Every v2 value is at least its length byte, so nv is bounded by
		// the remaining body; checking before the make keeps a corrupt
		// count from forcing a huge allocation.
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
			obs.Values[i] = math.Float64frombits(bits.ReverseBytes64(loadBytes(b[1:], w)))
			b = b[1+w:]
		}
	}
	if len(b) != 0 {
		return obs, fmt.Errorf("orfdisk: %d trailing bytes in observe WAL record", len(b))
	}
	return obs, nil
}

func takeVarString(b []byte) (string, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(len(b)-sz) {
		return "", nil, fmt.Errorf("orfdisk: truncated observe WAL record")
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
