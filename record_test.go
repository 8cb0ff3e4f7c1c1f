package orfdisk

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"orfdisk/internal/packed"
	"orfdisk/internal/smart"
)

// The kinds of the retired observe layouts, which decodeRecord refuses:
// the fixed-width first format (1), the v2 layout with a length byte
// before every value (3 live, 4 backfill), the packed one-row records
// runs replaced (6 live, 7 backfill) and the runs whose rows held the
// whole catalog (8 live, 9 backfill).
const (
	recObserveV1    = 1
	recObserveV2    = 3
	recObserveBFV2  = 4
	recObserve      = 6
	recObserveBF    = 7
	recCatalogRun   = 8
	recCatalogBFRun = 9
)

// appendRunRecord frames rows (one model, at most applyRunCap of them) as
// one run record of kind (10 or 11) under index through the product
// writer; each row's Values are already the catalog values at index.
func appendRunRecord(buf []byte, kind byte, index []int, rows []FleetObservation) []byte {
	enc := recordBatch{buf: buf}
	enc.beginRun(kind, &rows[0], index, len(rows))
	for i := range rows {
		enc.addRow(&rows[i], rows[i].Values)
	}
	return enc.buf
}

// appendPlainRunRecord frames rows as appendRunRecord does, but as the
// previous release wrote every row: its whole serial (no shared bytes in
// its flags) and its values packed on their own (no code 15).
func appendPlainRunRecord(buf []byte, kind byte, index []int, rows []FleetObservation) []byte {
	enc := recordBatch{buf: buf}
	enc.beginRun(kind, &rows[0], index, len(rows))
	for i := range rows {
		o := &rows[i]
		var flags byte
		if o.Failed {
			flags |= runRowFailed
		}
		if o.Day != rows[0].Day {
			flags |= runRowDay
		}
		enc.buf = append(enc.buf, flags)
		if flags&runRowDay != 0 {
			enc.buf = binary.AppendVarint(enc.buf, int64(o.Day)-int64(rows[0].Day))
		}
		enc.buf = binary.AppendUvarint(enc.buf, uint64(len(o.Serial)))
		enc.buf = append(enc.buf, o.Serial...)
		enc.buf = packed.Append(enc.buf, o.Values, nil)
	}
	return enc.buf
}

// runWriters are the two row codings a run record may hold: this
// release's and the previous release's, which it still reads.
var runWriters = []struct {
	name  string
	write func(buf []byte, kind byte, index []int, rows []FleetObservation) []byte
}{
	{"this release's", appendRunRecord},
	{"the previous release's", appendPlainRunRecord},
}

// projectRows returns rows with each row's Values replaced by the catalog
// values at index: what a writer of this release frames.
func projectRows(rows []FleetObservation, index []int) []FleetObservation {
	out := slices.Clone(rows)
	for i := range out {
		out[i].Values = smart.Project(out[i].Values, index)
	}
	return out
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

// randomRun draws n rows of one model, each of the same number of values:
// mostly one day, with the exceptions a run record has flags for. Serials
// come unsorted, some longer than a row can share, some repeating the
// previous row's; values often repeat the previous row's (NaN, -0 and +0
// among them).
func randomRun(rng *rand.Rand, n int) []FleetObservation {
	special := []float64{0, math.Copysign(0, -1), 1, 100, 255, 256, 19512, 0.5, 36.6, math.NaN(),
		math.Inf(1), math.Inf(-1), 1<<48 - 1, 1 << 48, -7, 5e-324}
	base, width := rng.Intn(4000)-100, rng.Intn(61)
	rows := make([]FleetObservation, n)
	for i := range rows {
		o := &rows[i]
		o.Model = "ST4000DM000"
		o.Serial = "Z30" + strings.Repeat("x", rng.Intn(4)) + string(rune('A'+rng.Intn(26)))
		switch rng.Intn(8) {
		case 0:
			o.Serial = strings.Repeat("W", runMaxShared-2+rng.Intn(6)) + o.Serial
		case 1:
			if i > 0 {
				o.Serial = rows[i-1].Serial
			}
		}
		o.Day = base
		if rng.Intn(8) == 0 {
			o.Day += rng.Intn(9) - 4
		}
		o.Failed = rng.Intn(16) == 0
		o.Values = make([]float64, width)
		for k := range o.Values {
			switch rng.Intn(4) {
			case 0:
				o.Values[k] = special[rng.Intn(len(special))]
			case 1:
				o.Values[k] = float64(rng.Intn(1 << 20))
			case 2:
				if i > 0 {
					o.Values[k] = rows[i-1].Values[k]
				}
			}
		}
	}
	return rows
}

// TestRunRecordRoundTrip: random runs decode to the rows and index list
// that went in, under both run kinds and both row codings.
func TestRunRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, n := range []int{1, 1, 2, 3, 17, 64, 256, applyRunCap} {
		rows := randomRun(rng, n)
		if n == 3 {
			// The cases the flags exist for, pinned rather than left to the draw.
			rows[1].Failed, rows[1].Day = true, rows[0].Day+1
			rows[1].Serial = strings.Repeat("S", 2*runMaxShared)
			rows[2].Serial = rows[1].Serial + "T"
		}
		index := rng.Perm(1 << 10)[:len(rows[0].Values)]
		for _, kind := range []byte{recObserveRun, recObserveBFRun} {
			for _, w := range runWriters {
				rec, err := decodeRecord(w.write(nil, kind, index, rows))
				if err != nil {
					t.Fatalf("%d rows of kind %d in %s coding: %v", n, kind, w.name, err)
				}
				if rec.kind != kind || rec.model != rows[0].Model || len(rec.run) != n || !slices.Equal(rec.index, index) {
					t.Fatalf("%d rows of kind %d in %s coding decode as kind %d, model %q, %d rows, index %v",
						n, kind, w.name, rec.kind, rec.model, len(rec.run), rec.index)
				}
				for i := range rows {
					if !sameObservation(rec.run[i], rows[i]) {
						t.Fatalf("kind %d in %s coding, row %d of %d: got %+v, want %+v", kind, w.name, i, n, rec.run[i], rows[i])
					}
				}
			}
		}
	}
}

// TestRunRecordNeverLongerThanPlain: over random runs, every row takes at
// most the bytes the previous release's coding gave it — its serial
// suffix and its values coded against the previous row are never longer
// than the whole serial and the values on their own.
func TestRunRecordNeverLongerThanPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	coded, plain := 0, 0
	for range 200 {
		rows := randomRun(rng, 1+rng.Intn(40))
		index := make([]int, len(rows[0].Values))
		var lastCoded, lastPlain int
		for k := 1; k <= len(rows); k++ {
			c := len(appendRunRecord(nil, recObserveRun, index, rows[:k]))
			p := len(appendPlainRunRecord(nil, recObserveRun, index, rows[:k]))
			if c-lastCoded > p-lastPlain {
				t.Fatalf("row %d takes %d B, %d in the previous release's coding: %+v after %+v",
					k-1, c-lastCoded, p-lastPlain, rows[k-1], rows[max(k-2, 0)])
			}
			lastCoded, lastPlain = c, p
		}
		coded, plain = coded+lastCoded, plain+lastPlain
	}
	t.Logf("runs take %d B, %d B in the previous release's coding", coded, plain)
}

// TestRunRecordRowsAreIndependent: the rows of a decoded run share one
// values slab, so growing one row's Values must not reach into the next.
func TestRunRecordRowsAreIndependent(t *testing.T) {
	rows := randomRun(rand.New(rand.NewSource(1)), 4)
	for i := range rows {
		rows[i].Values = []float64{1, 2, 3}
	}
	rec, err := decodeRecord(appendRunRecord(nil, recObserveRun, []int{4, 5, 6}, rows))
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
	index := []int{4, 5, 6, 7}
	good := appendRunRecord(nil, recObserveRun, index, rows)
	plain := appendPlainRunRecord(nil, recObserveRun, index, rows)
	for _, b := range [][]byte{good, plain} {
		if _, err := decodeRecord(b); err != nil {
			t.Fatal(err)
		}
	}
	// header builds kind, model, base day, index list, row count.
	header := func(kind byte, index []int, nrows uint64) []byte {
		b := binary.AppendUvarint([]byte{kind, 1, 'M', 0}, uint64(len(index)))
		for _, j := range index {
			b = binary.AppendUvarint(b, uint64(j))
		}
		return binary.AppendUvarint(b, nrows)
	}
	// The first flags byte follows the kind, model, base day, index list and row count.
	flagsAt := 2 + len(rows[0].Model) + len(binary.AppendVarint(nil, int64(rows[0].Day))) + 1 + len(index) + 1
	if good[flagsAt] != 0 || plain[flagsAt] != 0 {
		t.Fatalf("test bug: byte %d of the runs is %#x and %#x, not the first row's flags", flagsAt, good[flagsAt], plain[flagsAt])
	}
	flagged := func(run []byte, flags byte) []byte {
		b := append([]byte(nil), run...)
		b[flagsAt] = flags
		return b
	}
	one := []int{0}
	const shares1 = 1 << runSharedShift
	for name, tc := range map[string]struct {
		b    []byte
		want string
	}{
		"zero rows":                {header(recObserveRun, index, 0), "no rows"},
		"rows beyond the cap":      {append(header(recObserveRun, nil, applyRunCap+1), make([]byte, 4*applyRunCap)...), "more than"},
		"rows beyond the bytes":    {append(header(recObserveRun, index, 1000), good[flagsAt:]...), "claims 1000 rows"},
		"rows 2^62":                {header(recObserveRun, index, 1<<62), "more than"},
		"values beyond the bytes":  {append(header(recObserveRun, make([]int, 40), 3), make([]byte, 50)...), "claims 3 rows of 40 values in 50 bytes"},
		"shared serial on row 0":   {flagged(plain, shares1), "row 0 shares 1 serial bytes with a 0-byte previous serial"},
		"flag bits 0x08 on row 0":  {flagged(good, 0x08), "row 0 shares 2 serial bytes with a 0-byte previous serial"},
		"shared past the serial":   {append(header(recObserveRun, one, 2), 0, 1, 'S', 0x00, 2*shares1, 0, 0x00), "row 1 shares 2 serial bytes with a 1-byte previous serial"},
		"trailing bytes":           {append(append([]byte(nil), good...), 0), "trailing"},
		"indexes beyond the bytes": {binary.AppendUvarint([]byte{recObserveRun, 1, 'M', 0}, 1<<40), "lists 1099511627776 indexes"},
		"index list cut":           {[]byte{recObserveRun, 1, 'M', 0, 3, 1, 0x80, 0x80}, "truncated"},
		"values cut":               {append(header(recObserveRun, index, 1), 0, 1, 'S', 0x11), "packed value"},
		"code 15 on row 0":         {append(header(recObserveRun, one, 1), 0, 1, 'S', 0x0F), "code 15"},
		"serial beyond the bytes":  {append(header(recObserveRun, one, 1), 0, 200, 'S'), "truncated"},
		"day delta cut":            {append(header(recObserveRun, one, 1), runRowDay, 0x80), "truncated"},
		"header cut after model":   {[]byte{recObserveRun, 1, 'M'}, "truncated"},
		"header cut in the counts": {[]byte{recObserveRun, 1, 'M', 0, 1, 4}, "truncated"},
	} {
		_, err := decodeRecord(tc.b)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q", name, err, tc.want)
		}
	}
	// The same bytes with the row shapes above fixed decode: each case
	// fails on the one thing named.
	for name, b := range map[string][]byte{
		"shared within the serial": append(header(recObserveRun, one, 2), 0, 1, 'S', 0x00, shares1, 0, 0x00),
		"code 15 on row 1":         append(header(recObserveRun, one, 2), 0, 1, 'S', 0x01, 0x3F, 0, 1, 'T', 0x0F),
	} {
		if _, err := decodeRecord(b); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// Truncated anywhere, mid-row included: an error, never a short run.
	for _, run := range [][]byte{good, plain} {
		for cut := 1; cut < len(run); cut++ {
			if _, err := decodeRecord(run[:cut]); err == nil {
				t.Fatalf("decode of the %d-byte prefix of a %d-byte run succeeded", cut, len(run))
			}
		}
	}
	// The counts are checked against the body before anything is sized from
	// them: a few bytes claiming 2^40 indexes, or more values than they
	// could hold, decode in a few hundred bytes of allocation (the index
	// list, the rows slice and the error), not terabytes.
	for _, hostile := range [][]byte{
		append(header(recObserveRun, make([]int, 40), 3), make([]byte, 50)...),
		append(binary.AppendUvarint([]byte{recObserveRun, 1, 'M', 0}, 1<<40), 1, 2, 3, 0, 1, 'S', 0x11),
	} {
		allocs := testing.AllocsPerRun(20, func() { decodeRecord(hostile) })
		if _, err := decodeRecord(hostile); err == nil || allocs > 8 {
			t.Errorf("hostile count % x: err %v, %v allocations", hostile, err, allocs)
		}
	}
}
