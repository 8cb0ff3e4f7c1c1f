package smart

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"
)

// The Backblaze drive-stats CSV layout:
//
//	date,serial_number,model,capacity_bytes,failure,
//	smart_1_normalized,smart_1_raw,smart_3_normalized,...
//
// Writer emits exactly the candidate catalog's columns; Reader accepts any
// column order and any superset of attributes, mapping known smart_*
// columns into the catalog and leaving unknown ones out, so real Backblaze
// exports parse directly.

// epoch anchors Day 0 when rendering dates. The specific date is
// arbitrary; Backblaze's ST4000DM000 coverage begins in 2013.
var epoch = time.Date(2013, time.April, 10, 0, 0, 0, 0, time.UTC)

// DayToDate renders a day index as a Backblaze-style date string.
func DayToDate(day int) string {
	return epoch.AddDate(0, 0, day).Format("2006-01-02")
}

// DateToDay parses a Backblaze date string into a day index. The
// difference is computed in Unix seconds, not time.Duration, which
// saturates at ±292 years and would silently clamp far-out dates.
func DateToDay(s string) (int, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return 0, fmt.Errorf("smart: bad date %q: %w", s, err)
	}
	return int((t.Unix() - epoch.Unix()) / 86400), nil
}

// Writer streams samples to w in Backblaze CSV format: the bytes
// encoding/csv would write for the same fields (its quoting rules, "\n"
// line ends), built in one reused row buffer.
type Writer struct {
	bw      *bufio.Writer
	wrote   bool
	capByte map[string]int64 // capacity per model, for the capacity column
	row     []byte           // the row being built
	day     int              // the day date holds, valid once wrote
	date    []byte
}

// NewWriter returns a Writer targeting w. capacities maps drive model to
// capacity in bytes (0 is written for unknown models).
func NewWriter(w io.Writer, capacities map[string]int64) *Writer {
	return &Writer{bw: bufio.NewWriter(w), capByte: capacities}
}

func header() []string {
	h := []string{"date", "serial_number", "model", "capacity_bytes", "failure"}
	for _, f := range Catalog() {
		h = append(h, f.Name())
	}
	return h
}

// Write emits one sample row (and the header before the first row).
func (w *Writer) Write(s Sample) error {
	if !w.wrote || s.Day != w.day {
		w.day = s.Day
		w.date = epoch.AddDate(0, 0, s.Day).AppendFormat(w.date[:0], "2006-01-02")
	}
	row := w.row[:0]
	if !w.wrote {
		w.wrote = true
		for i, name := range header() {
			if i > 0 {
				row = append(row, ',')
			}
			row = appendField(row, name)
		}
		row = append(row, '\n')
	}
	row = append(row, w.date...)
	row = append(row, ',')
	row = appendField(row, s.Serial)
	row = append(row, ',')
	row = appendField(row, s.Model)
	row = append(row, ',')
	row = strconv.AppendInt(row, w.capByte[s.Model], 10)
	if s.Failure {
		row = append(row, ",1"...)
	} else {
		row = append(row, ",0"...)
	}
	for _, v := range s.Values {
		row = append(row, ',')
		row = appendValue(row, v)
	}
	row = append(row, '\n')
	w.row = row
	_, err := w.bw.Write(row)
	return err
}

// appendValue appends v as strconv.FormatFloat(v, 'g', -1, 64) prints it.
// Nearly every SMART value is a small non-negative integer, and below
// 1e6 (where 'g' switches to an exponent) 'g' prints those as AppendUint
// does, at a fraction of the cost. Everything else — fractions,
// negatives, NaN, anything large, and -0, which compares equal to 0 but
// prints as "-0" — goes to AppendFloat.
func appendValue(b []byte, v float64) []byte {
	if v >= 0 && v < 1e6 {
		if u := uint64(v); float64(u) == v && (u != 0 || !math.Signbit(v)) {
			return strconv.AppendUint(b, u, 10)
		}
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendField appends one CSV field. A field of printable ASCII without
// a space, comma or quote is what encoding/csv writes bare (and so is
// the empty field beside others); any other field is handed to
// encoding/csv itself, so its quoting rules are used, not restated.
func appendField(b []byte, field string) []byte {
	plain := field != `\.`
	for i := 0; plain && i < len(field); i++ {
		c := field[i]
		plain = c > ' ' && c < 0x7f && c != ',' && c != '"'
	}
	if plain {
		return append(b, field...)
	}
	var quoted bytes.Buffer
	cw := csv.NewWriter(&quoted)
	cw.Write([]string{field, ""}) //nolint:errcheck // a bytes.Buffer does not fail
	cw.Flush()
	return append(b, quoted.Bytes()[:quoted.Len()-len(",\n")]...)
}

// Flush flushes buffered rows and returns any write error.
func (w *Writer) Flush() error {
	return w.bw.Flush()
}

// colMap is the header resolution shared by Reader and FastReader:
// which CSV column feeds which catalog index, plus the positions of the
// four required metadata columns.
type colMap struct {
	// colFor[i] is the catalog index the i-th CSV column maps to, or -1.
	colFor             []int
	dateCol, serialCol int
	modelCol, failCol  int
}

// buildColMap resolves a Backblaze header row: any column order, any
// superset of smart_* columns (unknown ones are ignored). The
// capacity_bytes column needs no slot — both readers skip it entirely,
// so a blank or absent capacity parses fine.
func buildColMap(head []string) (colMap, error) {
	cm := colMap{dateCol: -1, serialCol: -1, modelCol: -1, failCol: -1}
	cm.colFor = make([]int, len(head))
	names := make(map[string]int, 2*NumFeatures())
	for i, f := range Catalog() {
		names[f.Name()] = i
	}
	for i, col := range head {
		cm.colFor[i] = -1
		switch col {
		case "date":
			cm.dateCol = i
		case "serial_number":
			cm.serialCol = i
		case "model":
			cm.modelCol = i
		case "failure":
			cm.failCol = i
		default:
			if idx, ok := names[col]; ok {
				cm.colFor[i] = idx
			}
		}
	}
	if cm.dateCol < 0 || cm.serialCol < 0 || cm.modelCol < 0 || cm.failCol < 0 {
		return colMap{}, fmt.Errorf("smart: CSV header missing required columns (date, serial_number, model, failure)")
	}
	return cm, nil
}

// Reader streams samples from a Backblaze-format CSV through
// encoding/csv. Product code reads with FastReader; Reader stays as the
// reference FuzzFastCSVReader and the tests check it against.
type Reader struct {
	cr *csv.Reader
	cm colMap
}

// NewReader parses the header of r and returns a sample Reader.
func NewReader(r io.Reader) (*Reader, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	head, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("smart: reading CSV header: %w", err)
	}
	cm, err := buildColMap(head)
	if err != nil {
		return nil, err
	}
	return &Reader{cr: cr, cm: cm}, nil
}

// Read returns the next sample, or io.EOF at end of input. Missing or
// malformed smart_* cells become NaN-free zeros; the Backblaze exports
// leave unsupported attributes empty.
func (r *Reader) Read() (Sample, error) {
	rec, err := r.cr.Read()
	if err != nil {
		return Sample{}, err
	}
	var s Sample
	s.Day, err = DateToDay(rec[r.cm.dateCol])
	if err != nil {
		return Sample{}, err
	}
	s.Serial = rec[r.cm.serialCol]
	s.Model = rec[r.cm.modelCol]
	s.Failure = rec[r.cm.failCol] == "1"
	s.Values = make([]float64, NumFeatures())
	for i, cat := range r.cm.colFor {
		if cat < 0 || i >= len(rec) {
			continue
		}
		cell := rec[i]
		if cell == "" {
			continue
		}
		v, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return Sample{}, fmt.Errorf("smart: bad value %q in column %d: %w", cell, i, err)
		}
		s.Values[cat] = v
	}
	return s, nil
}

// ReadAll drains the reader into a slice.
func (r *Reader) ReadAll() ([]Sample, error) {
	var out []Sample
	for {
		s, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
}
