package orfdisk

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"orfdisk/internal/huffman"
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
// writer, which codes it as kind 14 or 15 where that is shorter; each
// row's Values are already the catalog values at index.
func appendRunRecord(buf []byte, kind byte, index []int, rows []FleetObservation) []byte {
	enc := recordBatch{buf: buf}
	enc.beginRun(kind, &rows[0], index, len(rows))
	for i := range rows {
		enc.addRow(&rows[i], rows[i].Values)
	}
	enc.endRun()
	return enc.buf
}

// appendRowsRecord frames rows as appendRunRecord does, but leaves the
// run as kind 10 or 11 however long: the form a run takes when coding
// does not shorten it, and the only one the previous release wrote.
func appendRowsRecord(buf []byte, kind byte, index []int, rows []FleetObservation) []byte {
	enc := recordBatch{buf: buf}
	enc.beginRun(kind, &rows[0], index, len(rows))
	for i := range rows {
		enc.addRow(&rows[i], rows[i].Values)
	}
	return enc.buf
}

// appendCodedRunRecord frames rows as appendRowsRecord does, then codes
// the row bytes as kind 14 or 15 however long that makes the run.
func appendCodedRunRecord(buf []byte, kind byte, index []int, rows []FleetObservation) []byte {
	return codeRun(appendRowsRecord(buf, kind, index, rows), len(buf))
}

// codeRun turns the kind 10 or 11 run at rec[at:] into its kind 14 or 15
// form, shorter or not.
func codeRun(rec []byte, at int) []byte {
	_, _, _, _, rows, err := cutRunHeader(rec[at+1:])
	if err != nil {
		panic(err)
	}
	out := slices.Clone(rec[:len(rec)-len(rows)])
	out[at] += codedRunDelta
	out = binary.AppendUvarint(out, uint64(len(rows)))
	var h huffman.Encoder
	out, _ = h.Append(out, rows, math.MaxInt)
	return out
}

// appendPlainRunRecord frames rows as appendRowsRecord does, but as an
// older release wrote every row: its whole serial (no shared bytes in
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

// runWriters are the forms a run record may take: this release's
// (coded where that is shorter), coded and uncoded whatever their
// length, and the rows as an older release coded them, which this one
// still reads.
var runWriters = []struct {
	name  string
	write func(buf []byte, kind byte, index []int, rows []FleetObservation) []byte
}{
	{"this release's", appendRunRecord},
	{"the entropy", appendCodedRunRecord},
	{"the uncoded", appendRowsRecord},
	{"the row-by-row", appendPlainRunRecord},
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
// that went in, under both run kinds in every form a run takes.
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
				b := w.write(nil, kind, index, rows)
				rec, err := decodeRecord(b)
				if err != nil {
					t.Fatalf("%d rows of kind %d in %s coding: %v", n, kind, w.name, err)
				}
				if b[0] != kind && b[0] != kind+codedRunDelta {
					t.Fatalf("%d rows of kind %d in %s coding written as kind %d", n, kind, w.name, b[0])
				}
				if rec.kind != b[0] || rec.model != rows[0].Model || len(rec.run) != n || !slices.Equal(rec.index, index) {
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
// most the bytes the row-by-row coding gave it — its serial suffix and
// its values coded against the previous row are never longer than the
// whole serial and the values on their own — and a written run is never
// longer than its uncoded kind 10/11 form.
func TestRunRecordNeverLongerThanPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	written, uncoded, plain, codedRuns := 0, 0, 0, 0
	for range 200 {
		rows := randomRun(rng, 1+rng.Intn(40))
		index := make([]int, len(rows[0].Values))
		var lastUncoded, lastPlain int
		for k := 1; k <= len(rows); k++ {
			u := len(appendRowsRecord(nil, recObserveRun, index, rows[:k]))
			p := len(appendPlainRunRecord(nil, recObserveRun, index, rows[:k]))
			if u-lastUncoded > p-lastPlain {
				t.Fatalf("row %d takes %d B, %d in the row-by-row coding: %+v after %+v",
					k-1, u-lastUncoded, p-lastPlain, rows[k-1], rows[max(k-2, 0)])
			}
			lastUncoded, lastPlain = u, p
		}
		for _, kind := range []byte{recObserveRun, recObserveBFRun} {
			w := appendRunRecord(nil, kind, index, rows)
			if len(w) > lastUncoded {
				t.Fatalf("%d-row run written in %d B, %d uncoded", len(rows), len(w), lastUncoded)
			}
			if w[0] != kind {
				codedRuns++
			}
			if kind == recObserveRun {
				written += len(w)
			}
		}
		uncoded, plain = uncoded+lastUncoded, plain+lastPlain
	}
	t.Logf("runs take %d B written, %d B uncoded, %d B in the row-by-row coding; %d of 400 coded",
		written, uncoded, plain, codedRuns)
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
	good := appendRowsRecord(nil, recObserveRun, index, rows)
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

// codedRunDamage returns coded, a kind 14 or 15 run, damaged each way a
// coded run's row bytes can be: a row-byte count one past and one short
// of what its stream inflates to, its stream cut short of its end, and
// its block type set to the reserved one.
func codedRunDamage(coded []byte) []codedDamage {
	_, _, _, _, body, err := cutRunHeader(coded[1:])
	if err != nil {
		panic(err)
	}
	header := coded[:len(coded)-len(body)]
	rawLen, n := binary.Uvarint(body)
	stream := body[n:]
	frame := func(rawLen uint64, stream []byte) []byte {
		return append(binary.AppendUvarint(slices.Clone(header), rawLen), stream...)
	}
	reserved := slices.Clone(stream)
	reserved[0] |= 3 << 1
	return []codedDamage{
		{"a stream that inflates short of its count", frame(rawLen+1, stream), "ends after"},
		{"a stream that inflates past its count", frame(rawLen-1, stream), "inflates past"},
		{"a cut stream", frame(rawLen, stream[:len(stream)-1]), "cut short"},
		{"a stream of the reserved block type", frame(rawLen, reserved), "orfdisk: coded run WAL record: huffman: corrupt stream: not a final dynamic block"},
	}
}

type codedDamage struct {
	name string
	b    []byte
	want string
}

// TestCodedRunRejections: a damaged coded run is a defined error, never a
// panic or a short run, and a hostile row-byte count buys no allocation
// (the count is checked against the stream's length first): none
// allocates more than the intact run's decode, which holds its rows,
// and its error.
func TestCodedRunRejections(t *testing.T) {
	rows := randomRun(rand.New(rand.NewSource(3)), 40)
	index := make([]int, len(rows[0].Values))
	coded := appendCodedRunRecord(nil, recObserveRun, index, rows)
	var err error
	// The least of a few tries: a GC may empty the pools meanwhile.
	leastAllocated := func(b []byte) uint64 {
		least := uint64(math.MaxUint64)
		for range 3 {
			least = min(least, allocatedBy(func() { _, err = decodeRecord(b) }))
		}
		return least
	}
	intact := leastAllocated(coded)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, _, body, _ := cutRunHeader(coded[1:])
	header := coded[:len(coded)-len(body)]
	rawLen, n := binary.Uvarint(body)
	stream := body[n:]
	claim := func(rawLen uint64) []byte {
		return append(binary.AppendUvarint(slices.Clone(header), rawLen), stream...)
	}
	shared := append([]byte{recObserveRun, 1, 'M', 0, 1, 0, 2}, 0, 1, 'S', 0x00, 2<<runSharedShift, 0, 0x00)
	cases := append(codedRunDamage(coded),
		codedDamage{"a count past 1032 bytes a stream byte", claim(1033 * uint64(len(stream))), "literal stream"},
		codedDamage{"a count past 8 bytes a stream byte", claim(8*uint64(len(stream)) + 1), "literal stream"},
		codedDamage{"a count of 2^62", claim(1 << 62), "claims 4611686018427387904 row bytes"},
		codedDamage{"no count", slices.Clone(header), "truncated"},
		codedDamage{"a count and no stream", binary.AppendUvarint(slices.Clone(header), rawLen), "literal stream"},
		codedDamage{"rows with code 15 on row 0", codeRun(code15Run(), 0), "code 15"},
		codedDamage{"rows sharing past the serial", codeRun(shared, 0), "row 1 shares 2 serial bytes with a 1-byte previous serial"},
		codedDamage{"rows with trailing bytes", codeRun(append(appendRowsRecord(nil, recObserveRun, index, rows), 0), 0), "trailing"},
	)
	for _, tc := range cases {
		if tc.b[0] != recObserveCodedRun {
			t.Fatalf("test bug: %s is kind %d", tc.name, tc.b[0])
		}
		least := leastAllocated(tc.b)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.want)
		}
		if least > intact+1<<10 {
			t.Errorf("%s: a %d-byte record allocated %d bytes, the intact run's decode %d", tc.name, len(tc.b), least, intact)
		}
	}
	// Cut anywhere, in the header or the stream: an error, never a short run.
	for cut := 1; cut < len(coded); cut++ {
		if _, err := decodeRecord(coded[:cut]); err == nil {
			t.Fatalf("decode of the %d-byte prefix of a %d-byte coded run succeeded", cut, len(coded))
		}
	}
}
