package orfdisk

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The kinds of the retired one-row observe layouts, which decodeRecord
// refuses: the fixed-width first format (1), the v2 layout with a length
// byte before every value (3 live, 4 backfill) and the packed one-row
// record runs replaced (6 live, 7 backfill).
const (
	recObserveV1   = 1
	recObserveV2   = 3
	recObserveBFV2 = 4
	recObserve     = 6
	recObserveBF   = 7
)

// appendObserveRecordKind is the writer one-row observe records had
// (recObserve live, recObserveBF backfill): the header fields as varints
// and length-prefixed strings, the value count, then the values as
// packValues lays them out. Nothing reads them any more; the writer is
// kept to build well-formed records decodeRecord must refuse, and as the
// size runs are measured against in TestRecordBytesPerRow.
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

// appendObserveRecordV2 is the writer the v2 observe layout had (kinds
// recObserveV2 and recObserveBFV2) — appendObserveRecordKind's header,
// then per value a length byte and that many leading bytes of the
// float's bits — kept for the same two reasons.
func appendObserveRecordV2(buf []byte, obs FleetObservation, kind byte) []byte {
	buf = append(buf, kind)
	buf = binary.AppendUvarint(buf, uint64(len(obs.Model)))
	buf = append(buf, obs.Model...)
	buf = binary.AppendUvarint(buf, uint64(len(obs.Serial)))
	buf = append(buf, obs.Serial...)
	buf = binary.AppendVarint(buf, int64(obs.Day))
	if obs.Failed {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(len(obs.Values)))
	for _, v := range obs.Values {
		w := v2Width(v)
		buf = append(buf, byte(w))
		buf = append(buf, binary.BigEndian.AppendUint64(nil, math.Float64bits(v))[:w]...)
	}
	return buf
}

// appendRunRecord frames rows (one model, at most applyRunCap of them) as
// one run record through the product writer.
func appendRunRecord(buf []byte, kind byte, rows []FleetObservation) []byte {
	enc := recordBatch{buf: buf}
	enc.beginRun(kind, &rows[0], len(rows))
	for i := range rows {
		enc.addRow(&rows[i])
	}
	return enc.buf
}

// sameObservation compares two rows field for field, values by their bits
// (NaN payloads and -0 included).
func sameObservation(a, b FleetObservation) bool {
	if a.Model != b.Model || a.Serial != b.Serial || a.Day != b.Day || a.Failed != b.Failed || len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			return false
		}
	}
	return true
}

// randomRun draws n rows of one model: mostly one day and one width, with
// the exceptions a run record has flags for.
func randomRun(rng *rand.Rand, n int) []FleetObservation {
	special := []float64{0, math.Copysign(0, -1), 1, 100, 255, 256, 19512, 0.5, 36.6, math.NaN(),
		math.Inf(1), math.Inf(-1), 1<<48 - 1, 1 << 48, -7, 5e-324}
	base, width := rng.Intn(4000)-100, 1+rng.Intn(60)
	rows := make([]FleetObservation, n)
	for i := range rows {
		o := &rows[i]
		o.Model = "ST4000DM000"
		o.Serial = "Z30" + strings.Repeat("x", rng.Intn(4)) + string(rune('A'+rng.Intn(26)))
		o.Day = base
		if rng.Intn(8) == 0 {
			o.Day += rng.Intn(9) - 4
		}
		o.Failed = rng.Intn(16) == 0
		w := width
		if rng.Intn(16) == 0 {
			w = rng.Intn(2 * width) // a row whose width differs, zero included
		}
		o.Values = make([]float64, w)
		for k := range o.Values {
			switch rng.Intn(3) {
			case 0:
				o.Values[k] = special[rng.Intn(len(special))]
			case 1:
				o.Values[k] = float64(rng.Intn(1 << 20))
			}
		}
	}
	return rows
}

// TestRunRecordRoundTrip: random runs decode to the rows that went in,
// under both kinds.
func TestRunRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, n := range []int{1, 1, 2, 3, 17, 64, 256, applyRunCap} {
		rows := randomRun(rng, n)
		if n == 3 {
			// The cases the flags exist for, pinned rather than left to the draw.
			rows[1].Failed, rows[1].Day = true, rows[0].Day+1
			rows[2].Values = append(rows[2].Values, 42)
		}
		for _, kind := range []byte{recObserveRun, recObserveBFRun} {
			rec, err := decodeRecord(appendRunRecord(nil, kind, rows))
			if err != nil {
				t.Fatalf("%d rows: %v", n, err)
			}
			if rec.kind != kind || rec.model != rows[0].Model || len(rec.run) != n {
				t.Fatalf("%d rows under kind %d decode as kind %d, model %q, %d rows", n, kind, rec.kind, rec.model, len(rec.run))
			}
			for i := range rows {
				if !sameObservation(rec.run[i], rows[i]) {
					t.Fatalf("row %d of %d: got %+v, want %+v", i, n, rec.run[i], rows[i])
				}
			}
		}
	}
}

// TestRunRecordRowsAreIndependent: the rows of a decoded run share one
// values slab, so growing one row's Values must not reach into the next.
func TestRunRecordRowsAreIndependent(t *testing.T) {
	rows := randomRun(rand.New(rand.NewSource(1)), 4)
	for i := range rows {
		rows[i].Values = []float64{1, 2, 3}
	}
	rec, err := decodeRecord(appendRunRecord(nil, recObserveRun, rows))
	if err != nil {
		t.Fatal(err)
	}
	_ = append(rec.run[0].Values, 99)
	if got := rec.run[1].Values[0]; got != 1 {
		t.Fatalf("append to row 0 overwrote row 1's first value: %v", got)
	}
}

// TestRunRecordRejections: every malformed run is a defined error, and a
// hostile count allocates nothing sized from it.
func TestRunRecordRejections(t *testing.T) {
	rows := randomRun(rand.New(rand.NewSource(2)), 5)
	for i := range rows {
		rows[i].Day, rows[i].Failed = rows[0].Day, false // flags byte 0 for every row
		rows[i].Values = []float64{1, 2, 3, 0.5}
	}
	good := appendRunRecord(nil, recObserveRun, rows)
	if _, err := decodeRecord(good); err != nil {
		t.Fatal(err)
	}
	// header builds kind, model, base day, width, row count.
	header := func(width, nrows uint64) []byte {
		b := []byte{recObserveRun, 1, 'M', 0}
		b = binary.AppendUvarint(b, width)
		return binary.AppendUvarint(b, nrows)
	}
	// good's first flags byte follows its kind, model, base day, width and row count.
	flagsAt := 2 + len(rows[0].Model) + len(binary.AppendVarint(nil, int64(rows[0].Day))) + 2
	if good[flagsAt] != 0 {
		t.Fatalf("test bug: byte %d of the run is %#x, not the first row's flags", flagsAt, good[flagsAt])
	}
	unknownFlag := append([]byte(nil), good...)
	unknownFlag[flagsAt] = 0x08
	for name, tc := range map[string]struct {
		b    []byte
		want string
	}{
		"zero rows":                {header(4, 0), "no rows"},
		"rows beyond the cap":      {append(header(0, applyRunCap+1), make([]byte, 4*applyRunCap)...), "more than"},
		"rows beyond the bytes":    {append(header(4, 1000), good[flagsAt:]...), "claims 1000 rows"},
		"rows 2^62":                {header(4, 1<<62), "more than"},
		"unknown flag bits":        {unknownFlag, "unknown flag bits"},
		"trailing bytes":           {append(append([]byte(nil), good...), 0), "trailing"},
		"width beyond the bytes":   {append(header(1<<40, 1), 0, 1, 'S', 0x11), "packed values in"},
		"row width beyond bytes":   {append(header(1, 1), runRowWidth, 0xFF, 0xFF, 0xFF, 0x7F, 1, 'S', 0x11), "packed values in"},
		"reserved value code":      {append(header(1, 1), 0, 1, 'S', 0x0F), "code 15"},
		"serial beyond the bytes":  {append(header(1, 1), 0, 200, 'S'), "truncated"},
		"day delta cut":            {append(header(1, 1), runRowDay, 0x80), "truncated"},
		"header cut after model":   {[]byte{recObserveRun, 1, 'M'}, "truncated"},
		"header cut in the counts": {[]byte{recObserveRun, 1, 'M', 0, 4}, "truncated"},
	} {
		_, err := decodeRecord(tc.b)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q", name, err, tc.want)
		}
	}
	// Truncated anywhere, mid-row included: an error, never a short run.
	for cut := 1; cut < len(good); cut++ {
		if _, err := decodeRecord(good[:cut]); err == nil {
			t.Fatalf("decode of the %d-byte prefix of a %d-byte run succeeded", cut, len(good))
		}
	}
	// The counts are checked against the body before anything is sized from
	// them: a few bytes claiming 2^40 values a row decode in a few hundred
	// bytes of allocation (the rows slice and the error), not terabytes.
	hostile := append(header(1<<40, 2), 0, 1, 'S', 0x11, 0)
	allocs := testing.AllocsPerRun(20, func() { decodeRecord(hostile) })
	if _, err := decodeRecord(hostile); err == nil || allocs > 8 {
		t.Errorf("hostile width: err %v, %v allocations", err, allocs)
	}
}
