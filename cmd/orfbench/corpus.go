package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"orfdisk"
	"orfdisk/internal/smart"
)

// historyDays is the length of orfgen's first quarterly file. Everything
// in it is `history` (loaded by orfload); every later day is `live`
// (replayed over HTTP). The split sits on orfgen's own file boundary so
// the harness never rewrites a row.
const historyDays = 90

// Corpus is the one input set all four workloads share: a gzipped
// quarterly history for orfload and a chronological live stream held in
// memory for the HTTP replay and the oracle.
type Corpus struct {
	// HistoryFiles is the .csv.gz archive orfload reads; History is the
	// same rows in memory, for the oracle and the traced twin.
	HistoryFiles []string
	HistoryCSV   []string // the same archive as orfgen wrote it, uncompressed
	HistoryRows  int
	History      []orfdisk.FleetObservation
	// Live rows in orfgen's order (day-major, model order within a day).
	// Values of all rows share one backing array.
	Live []orfdisk.FleetObservation
	// Models sorted by live row count, largest first.
	Models []string
	// Days lists the live days in order; DayRows[model][i] is the
	// half-open index range of that model's rows on Days[i] inside
	// ByModel[model].
	Days    []int
	ByModel map[string][]orfdisk.FleetObservation
	DayRows map[string][][2]int
	// GenCommand is the exact orfgen command line, for the host stamp.
	GenCommand []string
}

// corpusSpec pins what orfgen is asked for. Months covers the history
// quarter plus the live days the longest workload consumes.
type corpusSpec struct {
	Scale  float64
	Months int
	Seed   uint64
}

// buildCorpus runs orfgen, compresses the history quarter and loads the
// live quarters. orfgen writes plain CSV here: its own -gzip uses the
// default level and takes 2.4x the generation time, more than a run can
// spare, so the harness compresses the one history file at level 1 (the
// `gzip -1` a corpus mirror would run) and orfload still reads .csv.gz.
func buildCorpus(ctx context.Context, orfgen, dir string, spec corpusSpec) (*Corpus, error) {
	raw := filepath.Join(dir, "gen")
	args := []string{
		"-profile", "ALL",
		"-scale", strconv.FormatFloat(spec.Scale, 'g', -1, 64),
		"-months", strconv.Itoa(spec.Months),
		"-seed", strconv.FormatUint(spec.Seed, 10),
		"-history", raw,
	}
	cmd := exec.CommandContext(ctx, orfgen, args...)
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("orfgen: %w: %s", err, out)
	}
	files, err := filepath.Glob(filepath.Join(raw, "fleet-q*.csv"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	if len(files) < 2 {
		return nil, fmt.Errorf("orfgen wrote %d quarterly files, want history plus at least one live quarter", len(files))
	}
	c := &Corpus{GenCommand: append([]string{filepath.Base(orfgen)}, args...), HistoryCSV: files[:1]}

	var wg sync.WaitGroup
	var gzErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		hist := filepath.Join(dir, "history")
		if gzErr = os.MkdirAll(hist, 0o755); gzErr != nil {
			return
		}
		dst := filepath.Join(hist, filepath.Base(files[0])+".gz")
		c.HistoryRows, gzErr = gzipCSV(files[0], dst)
		c.HistoryFiles = []string{dst}
	}()
	var bad int
	c.History, bad, err = readRows(files[:1])
	if err == nil && bad == 0 {
		c.Live, bad, err = readRows(files[1:])
	}
	wg.Wait()
	switch {
	case gzErr != nil:
		return nil, fmt.Errorf("compressing history: %w", gzErr)
	case err != nil:
		return nil, err
	case bad > 0:
		return nil, fmt.Errorf("orfgen wrote %d malformed rows", bad)
	case len(c.History) != c.HistoryRows:
		return nil, fmt.Errorf("history: parsed %d rows, compressed %d lines", len(c.History), c.HistoryRows)
	case len(c.Live) == 0 || c.Live[0].Day < historyDays:
		return nil, fmt.Errorf("corpus has no live rows after day %d", historyDays)
	}
	c.index()
	if len(c.Models) != 2 {
		// The load generator gives each drive model one of its two
		// connections.
		return nil, fmt.Errorf("orfgen -profile ALL gave %d drive models, want 2", len(c.Models))
	}
	return c, nil
}

// gzipCSV compresses src into dst and returns the number of data rows.
func gzipCSV(src, dst string) (rows int, err error) {
	in, err := os.Open(src)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return 0, err
	}
	zw, err := gzip.NewWriterLevel(out, gzip.BestSpeed)
	if err != nil {
		out.Close()
		return 0, err
	}
	lines := &lineCounter{}
	_, err = io.Copy(io.MultiWriter(zw, lines), bufio.NewReaderSize(in, 1<<20))
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return lines.n - 1, err // minus the header
}

type lineCounter struct{ n int }

func (l *lineCounter) Write(p []byte) (int, error) {
	for _, b := range p {
		if b == '\n' {
			l.n++
		}
	}
	return len(p), nil
}

// readRows parses Backblaze-format CSV files into observations whose
// vectors share backing arrays. Malformed rows are counted and skipped,
// as the bulk loader does.
func readRows(files []string) (rows []orfdisk.FleetObservation, malformed int, err error) {
	nf := smart.NumFeatures()
	var s smart.Sample
	var backing []float64
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			return nil, 0, err
		}
		fr, err := smart.NewFastReaderSize(f, 1<<20)
		if err != nil {
			f.Close()
			return nil, 0, fmt.Errorf("%s: %w", name, err)
		}
		for {
			err := fr.Read(&s)
			if err == io.EOF {
				break
			}
			var rowErr *smart.RowError
			if errors.As(err, &rowErr) {
				malformed++
				continue
			}
			if err != nil {
				f.Close()
				return nil, 0, fmt.Errorf("%s: %w", name, err)
			}
			if len(backing) < nf {
				backing = make([]float64, nf*8192)
			}
			v := backing[:nf:nf]
			backing = backing[nf:]
			copy(v, s.Values)
			rows = append(rows, orfdisk.FleetObservation{
				Model: s.Model,
				Observation: orfdisk.Observation{
					Serial: s.Serial, Day: s.Day, Failed: s.Failure, Values: v,
				},
			})
		}
		f.Close()
	}
	return rows, malformed, nil
}

// index groups the live rows by model and day.
func (c *Corpus) index() {
	c.ByModel = map[string][]orfdisk.FleetObservation{}
	c.DayRows = map[string][][2]int{}
	for _, o := range c.Live {
		if n := len(c.Days); n == 0 || c.Days[n-1] != o.Day {
			c.Days = append(c.Days, o.Day)
		}
		c.ByModel[o.Model] = append(c.ByModel[o.Model], o)
	}
	for m := range c.ByModel {
		c.Models = append(c.Models, m)
	}
	sort.Slice(c.Models, func(i, j int) bool {
		a, b := c.Models[i], c.Models[j]
		if len(c.ByModel[a]) != len(c.ByModel[b]) {
			return len(c.ByModel[a]) > len(c.ByModel[b])
		}
		return a < b
	})
	for m, rows := range c.ByModel {
		ranges := make([][2]int, len(c.Days))
		i := 0
		for d, day := range c.Days {
			start := i
			for i < len(rows) && rows[i].Day == day {
				i++
			}
			ranges[d] = [2]int{start, i}
		}
		c.DayRows[m] = ranges
	}
}

// attrKey is one member of a "norm" or "raw" JSON map: the catalog
// index of the value and its rendered key, `"<attr id>":`.
type attrKey struct {
	index int
	key   string
}

// catalogKeys splits the catalog by kind: the members of the two maps.
var catalogKeys = func() (k struct{ norm, raw []attrKey }) {
	for i, f := range smart.Catalog() {
		ak := attrKey{i, `"` + strconv.Itoa(f.Attr.ID) + `":`}
		if f.Kind == smart.Norm {
			k.norm = append(k.norm, ak)
		} else {
			k.raw = append(k.raw, ak)
		}
	}
	return k
}()

func appendAttrMap(b []byte, keys []attrKey, values []float64) []byte {
	b = append(b, '{')
	for n, k := range keys {
		if n > 0 {
			b = append(b, ',')
		}
		b = append(b, k.key...)
		b = strconv.AppendFloat(b, values[k.index], 'g', -1, 64)
	}
	return append(b, '}')
}

// appendVector writes the documented collector shape,
// "norm":{id:val,...},"raw":{id:val,...}, for one catalog vector.
func appendVector(b []byte, values []float64) []byte {
	b = append(b, `"norm":`...)
	b = appendAttrMap(b, catalogKeys.norm, values)
	b = append(b, `,"raw":`...)
	return appendAttrMap(b, catalogKeys.raw, values)
}

// observeBody renders one POST /v1/observe/batch payload. Serials and
// model names come from orfgen and contain nothing JSON must escape;
// strconv.AppendQuote would still be correct if they did.
func observeBody(rows []orfdisk.FleetObservation) []byte {
	b := make([]byte, 0, 640*len(rows)+32)
	b = append(b, `{"observations":[`...)
	for i, o := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"serial":`...)
		b = strconv.AppendQuote(b, o.Serial)
		b = append(b, `,"model":`...)
		b = strconv.AppendQuote(b, o.Model)
		b = append(b, `,"day":`...)
		b = strconv.AppendInt(b, int64(o.Day), 10)
		if o.Failed {
			b = append(b, `,"failed":true`...)
		}
		b = append(b, ',')
		b = appendVector(b, o.Values)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// predictBatchBody renders one POST /v1/predict/batch payload.
func predictBatchBody(model string, rows []orfdisk.FleetObservation) []byte {
	b := make([]byte, 0, 620*len(rows)+64)
	b = append(b, `{"model":`...)
	b = strconv.AppendQuote(b, model)
	b = append(b, `,"items":[`...)
	for i, o := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"serial":`...)
		b = strconv.AppendQuote(b, o.Serial)
		b = append(b, ',')
		b = appendVector(b, o.Values)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// predictOneBody renders one POST /v1/predict payload addressed by
// serial, the way a dashboard that only knows serials asks.
func predictOneBody(o orfdisk.FleetObservation) []byte {
	b := make([]byte, 0, 640)
	b = append(b, `{"serial":`...)
	b = strconv.AppendQuote(b, o.Serial)
	b = append(b, ',')
	b = appendVector(b, o.Values)
	return append(b, '}')
}

// Request is one prepared HTTP call: the body is rendered before the
// timed window opens, and Rows is what a 200 must acknowledge.
type Request struct {
	Path string
	Body []byte
	Rows int
	Day  int
	// Model and Obs are the rows the body was rendered from; the traced
	// twin feeds them to the layers below the HTTP handler.
	Model string
	Obs   []orfdisk.FleetObservation
}

// observeRequests cuts one model's rows of the given live-day indexes
// into day-aligned batches of at most batch rows, the way a collector
// posts a day's telemetry. Bodies are rendered on two goroutines.
func (c *Corpus) observeRequests(model string, firstDay, days, batch int) []Request {
	rows := c.ByModel[model]
	var reqs []Request
	var spans [][2]int
	for d := firstDay; d < firstDay+days && d < len(c.Days); d++ {
		r := c.DayRows[model][d]
		for i := r[0]; i < r[1]; i += batch {
			end := i + batch
			if end > r[1] {
				end = r[1]
			}
			spans = append(spans, [2]int{i, end})
			reqs = append(reqs, Request{Path: "/v1/observe/batch", Rows: end - i, Day: c.Days[d], Model: model, Obs: rows[i:end]})
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(spans); i += 2 {
				reqs[i].Body = observeBody(rows[spans[i][0]:spans[i][1]])
			}
		}(w)
	}
	wg.Wait()
	return reqs
}

// dayVectors returns the model's vectors of one live day, the fleet's
// latest reading once that day is in, without the disks that reported
// their failure that day.
func (c *Corpus) dayVectors(model string, day int) []orfdisk.FleetObservation {
	r := c.DayRows[model][day]
	out := make([]orfdisk.FleetObservation, 0, r[1]-r[0])
	for _, o := range c.ByModel[model][r[0]:r[1]] {
		if !o.Failed {
			out = append(out, o)
		}
	}
	return out
}

// sweepRequests renders a /v1/predict/batch sweep over vecs.
func sweepRequests(model string, vecs []orfdisk.FleetObservation, batch, day int) []Request {
	var reqs []Request
	for i := 0; i < len(vecs); i += batch {
		end := i + batch
		if end > len(vecs) {
			end = len(vecs)
		}
		reqs = append(reqs, Request{
			Path: "/v1/predict/batch",
			Body: predictBatchBody(model, vecs[i:end]),
			Rows: end - i,
			Day:  day, Model: model, Obs: vecs[i:end],
		})
	}
	return reqs
}

// hashRequests folds every request's path and body into one FNV-1a
// digest: the same seed must give the same bytes on the wire.
func hashRequests(groups ...[]Request) string {
	h := fnv.New64a()
	for _, g := range groups {
		for _, r := range g {
			io.WriteString(h, r.Path)
			h.Write(r.Body)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
