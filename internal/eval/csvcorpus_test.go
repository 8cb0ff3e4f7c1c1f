package eval

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"orfdisk/internal/dataset"
	"orfdisk/internal/forest"
	"orfdisk/internal/smart"
)

// writeFleetCSV renders a small synthetic fleet as a Backblaze CSV.
func writeFleetCSV(t testing.TB, seed uint64) (*bytes.Buffer, *dataset.Generator) {
	t.Helper()
	p := dataset.STA(1)
	p.GoodDisks, p.FailedDisks, p.Months = 120, 40, 8
	g, err := dataset.New(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := smart.NewWriter(&buf, map[string]int64{p.Model: 4e12})
	err = g.Stream(func(s smart.Sample) error { return w.Write(s) })
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return &buf, g
}

func TestBuildCorpusFromCSV(t *testing.T) {
	buf, g := writeFleetCSV(t, 1)
	c, err := BuildCorpusFromCSV(buf, SampleOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != g.Profile().Model {
		t.Fatalf("corpus name %q, want majority model %q", c.Name, g.Profile().Model)
	}
	// Every generated disk must appear exactly once across the split.
	total := len(c.TrainDisks) + len(c.TestDisks)
	if total != len(g.Disks()) {
		t.Fatalf("corpus covers %d disks, want %d", total, len(g.Disks()))
	}
	// Failure ground truth must be recovered from the CSV.
	wantFailed := dataset.CountFailed(g.Disks())
	gotFailed := dataset.CountFailed(c.TrainDisks)
	for _, d := range c.TestDisks {
		if d.Meta.Failed {
			gotFailed++
		}
	}
	if gotFailed != wantFailed {
		t.Fatalf("recovered %d failed disks, want %d", gotFailed, wantFailed)
	}
	// Window length matches the generator's.
	if c.Days != g.Profile().Days() {
		t.Fatalf("Days = %d, want %d", c.Days, g.Profile().Days())
	}
	// Scaled arrivals in [0,1], chronological.
	for i := 1; i < len(c.TrainArrivals); i++ {
		if c.TrainArrivals[i].Day < c.TrainArrivals[i-1].Day {
			t.Fatal("CSV corpus arrivals not chronological")
		}
	}
	for _, a := range c.TrainArrivals[:500] {
		for _, v := range a.X {
			if v < 0 || v > 1 {
				t.Fatalf("unscaled value %v", v)
			}
		}
	}
}

// TestCSVCorpusMatchesReaderOracle: BuildCorpusFromCSV reads with
// smart.FastReader, and its corpus equals the one built from what the
// encoding/csv Reader reads, on a generated stream where one disk's
// serial holds a comma and a quote, so its rows are quoted. A malformed
// row is an error.
func TestCSVCorpusMatchesReaderOracle(t *testing.T) {
	p := dataset.STA(1)
	p.GoodDisks, p.FailedDisks, p.Months = 40, 10, 3
	g, err := dataset.New(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	quoted := g.Disks()[0].Serial
	var buf bytes.Buffer
	w := smart.NewWriter(&buf, nil)
	err = g.Stream(func(s smart.Sample) error {
		if s.Serial == quoted {
			s.Serial = `Z,"1"`
		}
		return w.Write(s)
	})
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		t.Fatal(err)
	}
	csv := buf.String()
	if !strings.Contains(csv, `"Z,""1"""`) {
		t.Fatal("the stream holds no quoted row")
	}
	cr, err := smart.NewReader(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	samples, err := cr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want, err := BuildCorpusFromSamples(samples, SampleOptions{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	got, err := BuildCorpusFromCSV(strings.NewReader(csv), SampleOptions{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("the FastReader corpus differs from the Reader's")
	}
	bad := csv[:strings.IndexByte(csv, '\n')+1] + "2014-01-01,Z2,M,0,0,not-a-number\n"
	if _, err := BuildCorpusFromCSV(strings.NewReader(bad), SampleOptions{}); err == nil {
		t.Error("a malformed row was accepted")
	}
}

func TestCSVCorpusRunsProtocols(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol run")
	}
	buf, _ := writeFleetCSV(t, 3)
	c, err := BuildCorpusFromCSV(buf, SampleOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	rows := Table3(c, []float64{3}, 1, forest.Config{Trees: 10}, 5)
	if len(rows) != 1 || rows[0].FDR.N == 0 {
		t.Fatalf("Table3 on CSV corpus: %+v", rows)
	}
	if rows[0].FDR.Mean < 30 {
		t.Fatalf("implausibly low FDR %v on CSV corpus", rows[0].FDR.Mean)
	}
}

func TestBuildCorpusFromSamplesValidation(t *testing.T) {
	if _, err := BuildCorpusFromSamples(nil, SampleOptions{}); err == nil {
		t.Fatal("empty sample set accepted")
	}
	// MinSamplesPerDisk filtering.
	mk := func(serial string, n int) []smart.Sample {
		out := make([]smart.Sample, n)
		for i := range out {
			out[i] = smart.Sample{
				Serial: serial, Model: "M", Day: i,
				Values: make([]float64, smart.NumFeatures()),
			}
		}
		return out
	}
	samples := append(mk("long", 30), mk("short", 2)...)
	c, err := BuildCorpusFromSamples(samples, SampleOptions{MinSamplesPerDisk: 10})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(c.TrainDisks) + len(c.TestDisks); n != 1 {
		t.Fatalf("kept %d disks, want 1 after min-samples filter", n)
	}
	if _, err := BuildCorpusFromSamples(mk("x", 2), SampleOptions{MinSamplesPerDisk: 10}); err == nil {
		t.Fatal("all-filtered corpus accepted")
	}
}

func TestBuildCorpusFromSamplesDayShift(t *testing.T) {
	// Days must be rebased so the earliest snapshot is day 0.
	var samples []smart.Sample
	for d := 100; d < 130; d++ {
		samples = append(samples, smart.Sample{
			Serial: "a", Model: "M", Day: d,
			Values: make([]float64, smart.NumFeatures()),
		})
		samples = append(samples, smart.Sample{
			Serial: "b", Model: "M", Day: d, Failure: d == 129,
			Values: make([]float64, smart.NumFeatures()),
		})
	}
	c, err := BuildCorpusFromSamples(samples, SampleOptions{TrainFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if c.Days != 30 {
		t.Fatalf("Days = %d, want 30 after rebasing", c.Days)
	}
	for _, m := range append(append([]dataset.DiskMeta{}, c.TrainDisks...), testMetas(c)...) {
		if m.Failed && m.FailDay != 29 {
			t.Fatalf("failed disk FailDay %d, want 29", m.FailDay)
		}
	}
}

func testMetas(c *Corpus) []dataset.DiskMeta {
	out := make([]dataset.DiskMeta, len(c.TestDisks))
	for i, d := range c.TestDisks {
		out[i] = d.Meta
	}
	return out
}
