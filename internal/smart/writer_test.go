package smart

import (
	"bytes"
	"encoding/csv"
	"io"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// referenceWriter is the Writer as it was: a []string of FormatFloat
// strings per row through encoding/csv. It stays as the definition of
// the bytes Writer must produce, and as the benchmark's other side.
type referenceWriter struct {
	cw      *csv.Writer
	wrote   bool
	capByte map[string]int64
}

func (w *referenceWriter) Write(s Sample) error {
	if !w.wrote {
		if err := w.cw.Write(header()); err != nil {
			return err
		}
		w.wrote = true
	}
	failure := "0"
	if s.Failure {
		failure = "1"
	}
	row := make([]string, 0, 5+len(s.Values))
	row = append(row, DayToDate(s.Day), s.Serial, s.Model,
		strconv.FormatInt(w.capByte[s.Model], 10), failure)
	for _, v := range s.Values {
		row = append(row, strconv.FormatFloat(v, 'g', -1, 64))
	}
	return w.cw.Write(row)
}

// writerProbeValues are the values where the integer fast path begins,
// ends or must not be taken.
var writerProbeValues = []float64{
	0, math.Copysign(0, -1), 1, 9, 10, 100, 255, 256, 65535, 99999, 100000, 999999, 999999.5,
	1e6, 1e6 + 1, 1234567, 1<<48 - 1, 1 << 48, 1 << 53, 1e21, math.MaxFloat64,
	-1, -255, -999999, -1e6, 0.5, 36.6, 415.3, 1e-7, -1e-7, 5e-324, 0.1 + 0.2,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// TestAppendValueMatchesFormatFloat: the fast path prints what
// FormatFloat(v, 'g', -1, 64) prints, on the values around its edges and
// on random integers, fractions and bit patterns.
func TestAppendValueMatchesFormatFloat(t *testing.T) {
	check := func(v float64) {
		t.Helper()
		if got, want := string(appendValue(nil, v)), strconv.FormatFloat(v, 'g', -1, 64); got != want {
			t.Fatalf("%v (%016x): appendValue %q, FormatFloat %q", v, math.Float64bits(v), got, want)
		}
	}
	for _, v := range writerProbeValues {
		check(v)
	}
	for v := -300.0; v <= 300; v++ {
		check(v)
	}
	for v := 999_000.0; v <= 1_001_000; v++ {
		check(v)
		check(v + 0.25)
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 200_000; i++ {
		check(float64(rng.Int63n(1 << 22)))
		check(rng.NormFloat64() * 1e3)
		check(math.Float64frombits(rng.Uint64()))
	}
}

// TestWriterMatchesReference: whole rows, byte for byte, on the fields
// encoding/csv quotes (and the ones that only look as if it might) as
// well as the plain ones.
func TestWriterMatchesReference(t *testing.T) {
	fields := []string{
		"Z302T4N9", "ST4000DM000", "STA-000123", "", " lead", "trail ", "in side", "a,b", `q"uote`, `"`,
		"line\nbreak", "cr\rhere", `\.`, `\.x`, "tab\there", "héllo", " nbsp", " ls", "\x7f", "\xff\xfe", "#hash", "'apos'",
	}
	var samples []Sample
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 400; i++ {
		s := Sample{
			Serial:  fields[rng.Intn(len(fields))],
			Model:   fields[rng.Intn(len(fields))],
			Day:     rng.Intn(3000) - 500 + i/50, // runs of one day, and days before the epoch
			Failure: rng.Intn(4) == 0,
			Values:  make([]float64, NumFeatures()),
		}
		for k := range s.Values {
			switch rng.Intn(3) {
			case 0:
				s.Values[k] = writerProbeValues[rng.Intn(len(writerProbeValues))]
			case 1:
				s.Values[k] = float64(rng.Intn(1 << 21))
			}
		}
		samples = append(samples, s)
	}
	samples = append(samples, Sample{Serial: "no-values", Model: "M"}) // a row of the five fixed columns alone
	caps := map[string]int64{"ST4000DM000": 4_000_787_030_016, "": -1}

	var got, want bytes.Buffer
	w, ref := NewWriter(&got, caps), &referenceWriter{cw: csv.NewWriter(&want), capByte: caps}
	for _, s := range samples {
		if err := w.Write(s); err != nil {
			t.Fatal(err)
		}
		if err := ref.Write(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	ref.cw.Flush()
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, r := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want.Bytes(), []byte("\n"))
		for i := range g {
			if i >= len(r) || !bytes.Equal(g[i], r[i]) {
				t.Fatalf("line %d differs:\nwriter    %q\nreference %q", i, g[i], r[min(i, len(r)-1)])
			}
		}
		t.Fatalf("writer wrote %d bytes, reference %d", got.Len(), want.Len())
	}
}

type failingWriter struct{ err error }

func (f failingWriter) Write([]byte) (int, error) { return 0, f.err }

// TestWriterReportsWriteErrors: a failing destination surfaces from Flush
// (and from Write once the buffer has had to drain).
func TestWriterReportsWriteErrors(t *testing.T) {
	w := NewWriter(failingWriter{io.ErrClosedPipe}, nil)
	s := Sample{Serial: "S", Model: "M", Values: make([]float64, NumFeatures())}
	var werr error
	for i := 0; i < 200 && werr == nil; i++ {
		werr = w.Write(s)
	}
	if werr != io.ErrClosedPipe {
		t.Errorf("Write over a failing destination: %v", werr)
	}
	if err := w.Flush(); err != io.ErrClosedPipe {
		t.Errorf("Flush over a failing destination: %v", err)
	}
}

// BenchmarkWriterWrite measures one row through Writer and through the
// reference it replaced, over rows shaped like orfgen's: mostly small
// integers, a few fractional attributes, plain serials.
func BenchmarkWriterWrite(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]Sample, 512)
	for i := range samples {
		s := Sample{Serial: "STA-" + strconv.Itoa(100000+i), Model: "ST4000DM000", Day: i / 64, Values: make([]float64, NumFeatures())}
		for k := range s.Values {
			switch k % 8 {
			case 0:
				s.Values[k] = float64(rng.Intn(1 << 40)) // a raw counter
			case 1:
				s.Values[k] = 20 + 30*rng.Float64() // a temperature
			default:
				s.Values[k] = float64(rng.Intn(200))
			}
		}
		samples[i] = s
	}
	caps := map[string]int64{"ST4000DM000": 4_000_787_030_016}
	run := func(b *testing.B, write func(Sample) error) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := write(samples[i%len(samples)]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	}
	b.Run("writer", func(b *testing.B) { run(b, NewWriter(io.Discard, caps).Write) })
	b.Run("reference", func(b *testing.B) {
		run(b, (&referenceWriter{cw: csv.NewWriter(io.Discard), capByte: caps}).Write)
	})
}
