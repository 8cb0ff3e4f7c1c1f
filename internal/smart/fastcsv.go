package smart

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// FastReader is the CSV reader of orfload, orfmon and the experiment
// corpora, and the fast counterpart of Reader: a line scanner
// specialized to the Backblaze drive-stats layout that decodes rows
// without allocating in steady state. The column map is resolved once
// from the header (any column order, any superset of smart_* columns);
// after that each row is split on commas in place, dates hit a
// last-date cache, serial/model strings are interned, and integer-ish
// SMART cells parse through a fast exact path. Rows that use CSV
// quoting fall back to encoding/csv for that line only, so anything the
// tolerant Reader accepts the FastReader accepts too.
//
// Malformed rows (bad date, wrong column count, unparseable value) are
// reported as *RowError and consumed: the next Read continues with the
// following line, which lets a bulk loader count-and-skip bad rows the
// same way on every pass over the file — the determinism the backfill
// resume cursor relies on.
type FastReader struct {
	br  *bufio.Reader
	src io.Reader
	cm  colMap

	line      int64 // physical line of the row Read last consumed (before the first, the header's last); 0 after SeekTo
	off       int64 // bytes consumed, header included
	headerEnd int64
	rows      int64 // rows successfully returned

	intern   map[string]string
	lastDate []byte
	lastDay  int

	fields   [][]byte // per-row field scratch
	longLine []byte   // scratch for lines exceeding the buffer
}

// RowError reports one malformed data row. The row is consumed: calling
// Read again continues with the next line.
type RowError struct {
	Line int64 // physical line number (0 when unknown after SeekTo)
	Err  error
}

func (e *RowError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("smart: line %d: %v", e.Line, e.Err)
	}
	return fmt.Sprintf("smart: row: %v", e.Err)
}

func (e *RowError) Unwrap() error { return e.Err }

// NewFastReader parses the header of r and returns a FastReader with the
// default 256 KiB scan buffer.
func NewFastReader(r io.Reader) (*FastReader, error) {
	return NewFastReaderSize(r, 256<<10)
}

// NewFastReaderSize is NewFastReader with an explicit buffer size.
// Lines longer than the buffer are still handled (through a scratch
// spill), just less efficiently.
func NewFastReaderSize(r io.Reader, size int) (*FastReader, error) {
	if size < 4096 {
		size = 4096
	}
	fr := &FastReader{
		br:       bufio.NewReaderSize(r, size),
		src:      r,
		intern:   make(map[string]string),
		lastDate: make([]byte, 0, 10),
		lastDay:  -1 << 30,
	}
	// The header is cold-path: encoding/csv reads it, straight off br (a
	// bufio.Reader this large is used as is, and read only through the
	// record's last line), so it parses exactly as Reader parses it —
	// blank lines before it, quoted line breaks and stray carriage returns
	// included.
	cr := csv.NewReader(fr.br)
	cols, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("smart: reading CSV header: %w", err)
	}
	fr.off = cr.InputOffset()
	last, _ := cr.FieldPos(len(cols) - 1)
	fr.line = int64(last + strings.Count(cols[len(cols)-1], "\n"))
	if fr.cm, err = buildColMap(cols); err != nil {
		return nil, err
	}
	fr.headerEnd = fr.off
	return fr, nil
}

// Offset returns the number of input bytes fully consumed so far
// (header included). After a successful Read it points just past that
// row's line terminator, so it is a durable resume position.
func (r *FastReader) Offset() int64 { return r.off }

// Rows returns the number of rows successfully returned so far.
func (r *FastReader) Rows() int64 { return r.rows }

// SeekTo repositions the reader at byte offset off (which must be at or
// past the end of the header, on a row boundary) and declares that rows
// rows precede it. The underlying reader must implement io.Seeker.
func (r *FastReader) SeekTo(off, rows int64) error {
	sk, ok := r.src.(io.Seeker)
	if !ok {
		return fmt.Errorf("smart: FastReader source is not seekable")
	}
	if off < r.headerEnd {
		return fmt.Errorf("smart: seek offset %d is inside the header (ends at %d)", off, r.headerEnd)
	}
	if _, err := sk.Seek(off, io.SeekStart); err != nil {
		return err
	}
	r.br.Reset(r.src)
	r.off = off
	r.rows = rows
	r.line = 0 // physical line number unknown from here on
	r.lastDate = r.lastDate[:0]
	return nil
}

// SkipTo advances the reader to byte offset off (at or past the end of
// the header, on a row boundary) by reading and discarding, and
// declares that rows rows precede it. It is SeekTo for non-seekable
// sources — gzip or ZIP-member streams, whose resume offsets count
// decompressed bytes — at a cost proportional to off.
func (r *FastReader) SkipTo(off, rows int64) error {
	if off < r.headerEnd {
		return fmt.Errorf("smart: skip offset %d is inside the header (ends at %d)", off, r.headerEnd)
	}
	if off < r.off {
		return fmt.Errorf("smart: skip offset %d is behind the current offset %d", off, r.off)
	}
	if _, err := io.CopyN(io.Discard, r.br, off-r.off); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("smart: skipping to offset %d: %w", off, err)
	}
	r.off = off
	r.rows = rows
	r.line = 0 // physical line number unknown from here on
	r.lastDate = r.lastDate[:0]
	return nil
}

// readLine returns the next line without its terminator ('\n' or
// "\r\n"), advancing the byte offset past the terminator. io.EOF is
// returned only when no bytes remain; a final unterminated line is
// returned as a regular line.
func (r *FastReader) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		// Rare spill path: accumulate the oversized line.
		r.longLine = append(r.longLine[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = r.br.ReadSlice('\n')
			r.longLine = append(r.longLine, line...)
		}
		line = r.longLine
	}
	if err != nil && (err != io.EOF || len(line) == 0) {
		return nil, err
	}
	r.off += int64(len(line))
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// Read fills s with the next sample, reusing s.Values when it already
// has catalog width. It returns io.EOF at end of input and *RowError
// for a malformed (but consumed) data row.
func (r *FastReader) Read(s *Sample) error {
	for {
		line, err := r.readLine()
		if err != nil {
			return err
		}
		if r.line > 0 {
			r.line++
		}
		if len(line) == 0 {
			continue // blank line (encoding/csv skips these too)
		}
		if err := r.parseRow(line, s); err != nil {
			return err
		}
		r.rows++
		return nil
	}
}

func (r *FastReader) rowErr(format string, args ...any) error {
	return &RowError{Line: r.line, Err: fmt.Errorf(format, args...)}
}

func (r *FastReader) parseRow(line []byte, s *Sample) error {
	if bytes.IndexByte(line, '"') >= 0 {
		return r.parseQuotedRow(line, s)
	}
	fields := r.fields[:0]
	for {
		i := bytes.IndexByte(line, ',')
		if i < 0 {
			fields = append(fields, line)
			break
		}
		fields = append(fields, line[:i])
		line = line[i+1:]
	}
	r.fields = fields
	if len(fields) != len(r.cm.colFor) {
		return r.rowErr("record has %d fields, header has %d", len(fields), len(r.cm.colFor))
	}
	day, ok := r.fastDay(fields[r.cm.dateCol])
	if !ok {
		return r.rowErr("bad date %q", fields[r.cm.dateCol])
	}
	s.Day = day
	s.Serial = r.internBytes(fields[r.cm.serialCol])
	s.Model = r.internBytes(fields[r.cm.modelCol])
	s.Failure = len(fields[r.cm.failCol]) == 1 && fields[r.cm.failCol][0] == '1'
	if len(s.Values) != NumFeatures() {
		s.Values = make([]float64, NumFeatures())
	} else {
		for i := range s.Values {
			s.Values[i] = 0
		}
	}
	for i, cat := range r.cm.colFor {
		if cat < 0 || len(fields[i]) == 0 {
			continue // unknown column, or an empty cell (Backblaze leaves unsupported attributes blank)
		}
		v, ok := parseCell(fields[i])
		if !ok {
			return r.rowErr("bad value %q in column %d", fields[i], i)
		}
		s.Values[cat] = v
	}
	return nil
}

// parseQuotedRow handles the rare row that uses CSV quoting by handing
// the single line to encoding/csv.
func (r *FastReader) parseQuotedRow(line []byte, s *Sample) error {
	cr := csv.NewReader(bytes.NewReader(line))
	cr.FieldsPerRecord = len(r.cm.colFor)
	rec, err := cr.Read()
	if err != nil {
		return &RowError{Line: r.line, Err: err}
	}
	day, ok := r.fastDay([]byte(rec[r.cm.dateCol]))
	if !ok {
		return r.rowErr("bad date %q", rec[r.cm.dateCol])
	}
	s.Day = day
	s.Serial = r.internString(rec[r.cm.serialCol])
	s.Model = r.internString(rec[r.cm.modelCol])
	s.Failure = rec[r.cm.failCol] == "1"
	if len(s.Values) != NumFeatures() {
		s.Values = make([]float64, NumFeatures())
	} else {
		for i := range s.Values {
			s.Values[i] = 0
		}
	}
	for i, cat := range r.cm.colFor {
		if cat < 0 || len(rec[i]) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(rec[i], 64)
		if err != nil {
			return r.rowErr("bad value %q in column %d", rec[i], i)
		}
		s.Values[cat] = v
	}
	return nil
}

func (r *FastReader) internBytes(b []byte) string {
	if s, ok := r.intern[string(b)]; ok { // alloc-free lookup
		return s
	}
	s := string(b)
	r.intern[s] = s
	return s
}

func (r *FastReader) internString(s string) string {
	if v, ok := r.intern[s]; ok {
		return v
	}
	r.intern[s] = s
	return s
}

// fastDay parses a "YYYY-MM-DD" date into a day index, agreeing with
// DateToDay on every string time.Parse accepts (and rejecting everything
// it rejects). Consecutive rows of a daily snapshot share one date, so
// the one-entry cache makes the common case a 10-byte compare.
func (r *FastReader) fastDay(b []byte) (int, bool) {
	if bytes.Equal(b, r.lastDate) && len(r.lastDate) > 0 {
		return r.lastDay, true
	}
	if len(b) != 10 || b[4] != '-' || b[7] != '-' {
		return 0, false
	}
	y, ok1 := digits4(b[0:4])
	m, ok2 := digits2(b[5:7])
	d, ok3 := digits2(b[8:10])
	if !ok1 || !ok2 || !ok3 || m < 1 || m > 12 || d < 1 || d > daysInMonth(y, m) {
		return 0, false
	}
	day := daysFromCivil(y, m, d) - epochCivilDays
	r.lastDate = append(r.lastDate[:0], b...)
	r.lastDay = day
	return day, true
}

func digits4(b []byte) (int, bool) {
	var v int
	for _, c := range b {
		c -= '0'
		if c > 9 {
			return 0, false
		}
		v = v*10 + int(c)
	}
	return v, true
}

func digits2(b []byte) (int, bool) {
	c0, c1 := b[0]-'0', b[1]-'0'
	if c0 > 9 || c1 > 9 {
		return 0, false
	}
	return int(c0)*10 + int(c1), true
}

func daysInMonth(y, m int) int {
	switch m {
	case 1, 3, 5, 7, 8, 10, 12:
		return 31
	case 4, 6, 9, 11:
		return 30
	}
	if y%4 == 0 && (y%100 != 0 || y%400 == 0) {
		return 29
	}
	return 28
}

// daysFromCivil converts a proleptic Gregorian date to a day count with
// an arbitrary fixed origin (Hinnant's days_from_civil algorithm); only
// differences are used, anchored at epochCivilDays.
func daysFromCivil(y, m, d int) int {
	if m <= 2 {
		y--
	}
	era := y / 400
	if y < 0 && y%400 != 0 {
		era--
	}
	yoe := y - era*400 // [0, 399]
	var doy int
	if m > 2 {
		doy = (153*(m-3)+2)/5 + d - 1
	} else {
		doy = (153*(m+9)+2)/5 + d - 1
	}
	doe := yoe*365 + yoe/4 - yoe/100 + doy
	return era*146097 + doe
}

// epochCivilDays anchors day 0 at the package epoch (2013-04-10).
var epochCivilDays = daysFromCivil(2013, 4, 10)

// pow10 holds the exactly-representable powers of ten the fast decimal
// path may divide by.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// parseCell parses one SMART value cell. The fast path covers plain
// integers and short decimals — with at most 15 significant digits both
// the mantissa and the power-of-ten divisor are exact, so one floating
// division yields the correctly-rounded value strconv.ParseFloat would
// produce. Everything else (scientific notation, long mantissas, inf,
// NaN) falls back to strconv, which may allocate; Backblaze exports are
// integer counters, so the steady-state path stays allocation-free.
func parseCell(b []byte) (float64, bool) {
	i, neg := 0, false
	if b[0] == '-' || b[0] == '+' {
		neg = b[0] == '-'
		i = 1
	}
	var (
		u      uint64
		digits int
		frac   int
		dot    bool
	)
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c <= 9 {
			u = u*10 + uint64(c)
			digits++
			if dot {
				frac++
			}
			continue
		}
		if b[i] == '.' && !dot {
			dot = true
			continue
		}
		return slowCell(b)
	}
	if digits == 0 || digits > 15 || frac >= len(pow10) {
		return slowCell(b)
	}
	f := float64(u)
	if frac > 0 {
		f /= pow10[frac]
	}
	if neg {
		f = -f
	}
	return f, true
}

func slowCell(b []byte) (float64, bool) {
	v, err := strconv.ParseFloat(string(b), 64)
	return v, err == nil
}
