package orfdisk

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

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
// mostly one day, with the exceptions a run record has flags for.
func randomRun(rng *rand.Rand, n int) []FleetObservation {
	special := []float64{0, math.Copysign(0, -1), 1, 100, 255, 256, 19512, 0.5, 36.6, math.NaN(),
		math.Inf(1), math.Inf(-1), 1<<48 - 1, 1 << 48, -7, 5e-324}
	base, width := rng.Intn(4000)-100, rng.Intn(61)
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
		o.Values = make([]float64, width)
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

// TestRunRecordRoundTrip: random runs decode to the rows and index list
// that went in, under both kinds.
func TestRunRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, n := range []int{1, 1, 2, 3, 17, 64, 256, applyRunCap} {
		rows := randomRun(rng, n)
		if n == 3 {
			// The cases the flags exist for, pinned rather than left to the draw.
			rows[1].Failed, rows[1].Day = true, rows[0].Day+1
		}
		index := rng.Perm(1 << 10)[:len(rows[0].Values)]
		for _, kind := range []byte{recObserveRun, recObserveBFRun} {
			rec, err := decodeRecord(appendRunRecord(nil, kind, index, rows))
			if err != nil {
				t.Fatalf("%d rows: %v", n, err)
			}
			if rec.kind != kind || rec.model != rows[0].Model || len(rec.run) != n || !slices.Equal(rec.index, index) {
				t.Fatalf("%d rows under kind %d decode as kind %d, model %q, %d rows, index %v",
					n, kind, rec.kind, rec.model, len(rec.run), rec.index)
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
	if _, err := decodeRecord(good); err != nil {
		t.Fatal(err)
	}
	// header builds kind, model, base day, index list, row count.
	header := func(index []int, nrows uint64) []byte {
		b := binary.AppendUvarint([]byte{recObserveRun, 1, 'M', 0}, uint64(len(index)))
		for _, j := range index {
			b = binary.AppendUvarint(b, uint64(j))
		}
		return binary.AppendUvarint(b, nrows)
	}
	// good's first flags byte follows its kind, model, base day, index list and row count.
	flagsAt := 2 + len(rows[0].Model) + len(binary.AppendVarint(nil, int64(rows[0].Day))) + 1 + len(index) + 1
	if good[flagsAt] != 0 {
		t.Fatalf("test bug: byte %d of the run is %#x, not the first row's flags", flagsAt, good[flagsAt])
	}
	flagged := func(flags byte) []byte {
		b := append([]byte(nil), good...)
		b[flagsAt] = flags
		return b
	}
	one := []int{0}
	for name, tc := range map[string]struct {
		b    []byte
		want string
	}{
		"zero rows":                {header(index, 0), "no rows"},
		"rows beyond the cap":      {append(header(nil, applyRunCap+1), make([]byte, 4*applyRunCap)...), "more than"},
		"rows beyond the bytes":    {append(header(index, 1000), good[flagsAt:]...), "claims 1000 rows"},
		"rows 2^62":                {header(index, 1<<62), "more than"},
		"values beyond the bytes":  {append(header(make([]int, 40), 3), make([]byte, 50)...), "claims 3 rows of 40 values in 50 bytes"},
		"unknown flag bits":        {flagged(0x08), "unknown flag bits"},
		"retired row width flag":   {flagged(0x04), "unknown flag bits"},
		"trailing bytes":           {append(append([]byte(nil), good...), 0), "trailing"},
		"indexes beyond the bytes": {binary.AppendUvarint([]byte{recObserveRun, 1, 'M', 0}, 1<<40), "lists 1099511627776 indexes"},
		"index list cut":           {[]byte{recObserveRun, 1, 'M', 0, 3, 1, 0x80, 0x80}, "truncated"},
		"values cut":               {append(header(index, 1), 0, 1, 'S', 0x11), "packed value"},
		"reserved value code":      {append(header(one, 1), 0, 1, 'S', 0x0F), "code 15"},
		"serial beyond the bytes":  {append(header(one, 1), 0, 200, 'S'), "truncated"},
		"day delta cut":            {append(header(one, 1), runRowDay, 0x80), "truncated"},
		"header cut after model":   {[]byte{recObserveRun, 1, 'M'}, "truncated"},
		"header cut in the counts": {[]byte{recObserveRun, 1, 'M', 0, 1, 4}, "truncated"},
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
	// them: a few bytes claiming 2^40 indexes, or more values than they
	// could hold, decode in a few hundred bytes of allocation (the index
	// list, the rows slice and the error), not terabytes.
	for _, hostile := range [][]byte{
		append(header(make([]int, 40), 3), make([]byte, 50)...),
		append(binary.AppendUvarint([]byte{recObserveRun, 1, 'M', 0}, 1<<40), 1, 2, 3, 0, 1, 'S', 0x11),
	} {
		allocs := testing.AllocsPerRun(20, func() { decodeRecord(hostile) })
		if _, err := decodeRecord(hostile); err == nil || allocs > 8 {
			t.Errorf("hostile count % x: err %v, %v allocations", hostile, err, allocs)
		}
	}
}
