package backfill_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"orfdisk"
	"orfdisk/internal/backfill"
	"orfdisk/internal/dataset"
	"orfdisk/internal/metrics"
	"orfdisk/internal/smart"
)

func testConfig() orfdisk.Config {
	return orfdisk.Config{Horizon: 4, ORF: orfdisk.ORFConfig{Trees: 5, MinParentSize: 50, Seed: 9}}
}

func newEngine(t *testing.T, dir string) *orfdisk.Engine {
	t.Helper()
	eng, err := orfdisk.NewEngine(orfdisk.EngineConfig{Predictor: testConfig(), DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// writeArchive generates a small two-fleet history as striped quarterly
// CSVs — the multi-file, date-interleaved layout the pipeline exists
// for — and returns the file paths.
func writeArchive(t *testing.T, dir string, stripes int) []string {
	t.Helper()
	return writeFleetArchive(t, dir, stripes, 0.004, 6)
}

// writeFleetArchive is writeArchive at a given fleet scale and length.
func writeFleetArchive(t *testing.T, dir string, stripes int, scale float64, months int) []string {
	t.Helper()
	pa := dataset.STA(scale)
	pa.Months = months
	pb := dataset.STB(scale)
	pb.Months = months
	ga, err := dataset.New(pa, 11)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := dataset.New(pb, 12)
	if err != nil {
		t.Fatal(err)
	}

	type sink struct {
		f  *os.File
		bw *bufio.Writer
		cw *smart.Writer
	}
	sinks := map[string]*sink{}
	err = dataset.StreamMerged([]*dataset.Generator{ga, gb}, func(s smart.Sample) error {
		stripe := 0
		if stripes > 1 {
			h := fnv.New32a()
			h.Write([]byte(s.Serial))
			stripe = int(h.Sum32() % uint32(stripes))
		}
		name := fmt.Sprintf("fleet-q%03d-s%02d.csv", s.Day/90, stripe)
		sk := sinks[name]
		if sk == nil {
			f, err := os.Create(filepath.Join(dir, name))
			if err != nil {
				return err
			}
			bw := bufio.NewWriter(f)
			sk = &sink{f: f, bw: bw, cw: smart.NewWriter(bw, nil)}
			sinks[name] = sk
		}
		return sk.cw.Write(s)
	})
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for name, sk := range sinks {
		if err := sk.cw.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := sk.bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := sk.f.Close(); err != nil {
			t.Fatal(err)
		}
		files = append(files, filepath.Join(dir, name))
	}
	sort.Strings(files)
	return files
}

// writeMergedSingle merges the archive into one CSV in the canonical
// order (day, sorted file name, row order) — the "single pre-sorted
// stream" the pipeline must be equivalent to.
func writeMergedSingle(t *testing.T, files []string, path string) {
	t.Helper()
	type src struct {
		r  *smart.Reader
		s  smart.Sample
		ok bool
	}
	srcs := make([]*src, len(files))
	sorted := append([]string(nil), files...)
	sort.Slice(sorted, func(i, j int) bool { return filepath.Base(sorted[i]) < filepath.Base(sorted[j]) })
	for i, p := range sorted {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		r, err := smart.NewReader(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs[i] = &src{r: r}
		s, err := r.Read()
		if err != io.EOF {
			if err != nil {
				t.Fatal(err)
			}
			srcs[i].s, srcs[i].ok = s.Clone(), true
		}
	}
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(out)
	cw := smart.NewWriter(bw, nil)
	for {
		day, any := 0, false
		for _, s := range srcs {
			if s.ok && (!any || s.s.Day < day) {
				day, any = s.s.Day, true
			}
		}
		if !any {
			break
		}
		for _, s := range srcs {
			for s.ok && s.s.Day == day {
				if err := cw.Write(s.s); err != nil {
					t.Fatal(err)
				}
				ns, err := s.r.Read()
				if err == io.EOF {
					s.ok = false
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				s.s = ns.Clone()
			}
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
}

// dumpState captures every model's complete predictor state.
func dumpState(t *testing.T, eng *orfdisk.Engine) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	models := eng.Models()
	sort.Strings(models)
	for _, m := range models {
		var buf bytes.Buffer
		if err := eng.DumpModel(m, &buf); err != nil {
			t.Fatalf("DumpModel(%s): %v", m, err)
		}
		out[m] = buf.Bytes()
	}
	return out
}

func requireSameState(t *testing.T, label string, want, got map[string][]byte) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: model sets differ: %d vs %d", label, len(want), len(got))
	}
	for m, w := range want {
		g, ok := got[m]
		if !ok {
			t.Fatalf("%s: model %s missing", label, m)
		}
		if !bytes.Equal(w, g) {
			t.Fatalf("%s: model %s state diverged (%d vs %d bytes)", label, m, len(w), len(g))
		}
	}
}

// maxDayRows returns the most rows any one day has in a CSV file.
func maxDayRows(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := smart.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	perDay := map[int]int{}
	most := 0
	for {
		s, err := r.Read()
		if err == io.EOF {
			return most
		}
		if err != nil {
			t.Fatal(err)
		}
		perDay[s.Day]++
		most = max(most, perDay[s.Day])
	}
}

// TestPipelineEquivalence is the ordering property test: the parallel
// multi-file pipeline, the same pipeline with adversarial batch and
// cursor cadences, a pipeline over the pre-merged single file, and the
// naive row-by-row Ingest loop must all leave bit-identical predictor
// state — and so must the single file of a fleet whose days each span
// several reader chunks.
func TestPipelineEquivalence(t *testing.T) {
	dir := t.TempDir()
	files := writeArchive(t, dir, 3)
	if len(files) < 4 {
		t.Fatalf("archive has only %d files; want several for a real merge", len(files))
	}
	single := filepath.Join(dir, "merged.csv")
	writeMergedSingle(t, files, single)

	ctx := context.Background()

	engA, err := orfdisk.NewEngine(orfdisk.EngineConfig{Predictor: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer engA.Close()
	statsA, err := backfill.Run(ctx, engA, files, backfill.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if statsA.Rows == 0 {
		t.Fatal("pipeline submitted no rows")
	}
	want := dumpState(t, engA)

	// Adversarial cadences: odd batches, frequent cursors.
	engB, err := orfdisk.NewEngine(orfdisk.EngineConfig{Predictor: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer engB.Close()
	statsB, err := backfill.Run(ctx, engB, files, backfill.Options{
		BatchRows: 113, CheckpointEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if statsB.Rows != statsA.Rows {
		t.Fatalf("row counts diverge across tunings: %d vs %d", statsB.Rows, statsA.Rows)
	}
	requireSameState(t, "batch/cursor cadence", want, dumpState(t, engB))

	// Single pre-sorted stream.
	engC, err := orfdisk.NewEngine(orfdisk.EngineConfig{Predictor: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer engC.Close()
	statsC, err := backfill.Run(ctx, engC, []string{single}, backfill.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if statsC.Rows != statsA.Rows {
		t.Fatalf("single-stream row count diverges: %d vs %d", statsC.Rows, statsA.Rows)
	}
	requireSameState(t, "single pre-sorted stream", want, dumpState(t, engC))

	// Naive Ingest loop: proves Absorb == Ingest state-wise.
	engD, err := orfdisk.NewEngine(orfdisk.EngineConfig{Predictor: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer engD.Close()
	statsD, err := backfill.RunNaive(engD, files)
	if err != nil {
		t.Fatal(err)
	}
	if statsD.Rows != statsA.Rows {
		t.Fatalf("naive row count diverges: %d vs %d", statsD.Rows, statsA.Rows)
	}
	requireSameState(t, "naive Ingest loop", want, dumpState(t, engD))

	// Days longer than a chunk: a fleet of ~650 disks in one pre-merged
	// file, so days span several chunks, against the naive loop.
	bigDir := t.TempDir()
	bigFiles := writeFleetArchive(t, bigDir, 2, 0.016, 2)
	bigSingle := filepath.Join(bigDir, "merged.csv")
	writeMergedSingle(t, bigFiles, bigSingle)
	if n := maxDayRows(t, bigSingle); n <= backfill.MaxChunkRows {
		t.Fatalf("the largest day holds %d rows; want more than a chunk's %d", n, backfill.MaxChunkRows)
	}
	engE, err := orfdisk.NewEngine(orfdisk.EngineConfig{Predictor: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer engE.Close()
	statsE, err := backfill.Run(ctx, engE, []string{bigSingle}, backfill.Options{BatchRows: 113, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	engF, err := orfdisk.NewEngine(orfdisk.EngineConfig{Predictor: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer engF.Close()
	statsF, err := backfill.RunNaive(engF, bigFiles)
	if err != nil {
		t.Fatal(err)
	}
	if statsE.Rows != statsF.Rows {
		t.Fatalf("long-day row counts diverge: pipeline %d, naive %d", statsE.Rows, statsF.Rows)
	}
	requireSameState(t, "days longer than a chunk", dumpState(t, engF), dumpState(t, engE))
}

// faultSink fails the Nth IngestBackfill call (after optionally forcing
// an engine snapshot mid-stream, to drag the cursor file and WAL
// truncation into the picture).
type faultSink struct {
	eng        *orfdisk.Engine
	failAt     int // 1-based call number that fails
	snapshotAt int // 1-based call number after which to Snapshot (0 = never)
	calls      int
}

var errInjected = errors.New("injected backfill fault")

func (f *faultSink) IngestBackfill(batch []orfdisk.FleetObservation, cur *orfdisk.BackfillCursor) error {
	f.calls++
	if f.calls == f.failAt {
		return errInjected
	}
	if err := f.eng.IngestBackfill(batch, cur); err != nil {
		return err
	}
	if f.calls == f.snapshotAt {
		return f.eng.Snapshot()
	}
	return nil
}

func (f *faultSink) BackfillState() (orfdisk.BackfillCursor, uint64, bool) {
	return f.eng.BackfillState()
}

// reference runs the full archive into a fresh in-memory engine and
// returns its state.
func reference(t *testing.T, files []string) map[string][]byte {
	t.Helper()
	eng, err := orfdisk.NewEngine(orfdisk.EngineConfig{Predictor: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := backfill.Run(context.Background(), eng, files, backfill.Options{}); err != nil {
		t.Fatal(err)
	}
	return dumpState(t, eng)
}

// TestResumeAfterInterrupt interrupts a durable backfill between
// cursors (so rowsAfter > 0), resumes on the same engine, and requires
// the final state to match an uninterrupted run exactly — no duplicated
// rows, no skipped rows.
func TestResumeAfterInterrupt(t *testing.T) {
	dir := t.TempDir()
	files := writeArchive(t, dir, 3)
	want := reference(t, files)

	eng := newEngine(t, t.TempDir())
	defer eng.Close()
	opts := backfill.Options{BatchRows: 256, CheckpointEvery: 3}
	sink := &faultSink{eng: eng, failAt: 6}
	if _, err := backfill.Run(context.Background(), sink, files, opts); !errors.Is(err, errInjected) {
		t.Fatalf("Run did not surface the injected fault: %v", err)
	}
	_, rowsAfter, ok := eng.BackfillState()
	if !ok {
		t.Fatal("no backfill state after interrupted run")
	}
	if rowsAfter == 0 {
		t.Fatal("interrupt landed on a checkpoint; test needs rowsAfter > 0 to exercise the discard path")
	}

	stats, err := backfill.Run(context.Background(), eng, files, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ResumeSkipped != int64(rowsAfter) {
		t.Fatalf("resume discarded %d rows, want exactly rowsAfter=%d", stats.ResumeSkipped, rowsAfter)
	}
	requireSameState(t, "in-process resume", want, dumpState(t, eng))
}

// TestResumeAfterCrash is the kill -9 test: interrupt a durable
// backfill mid-stream — with a snapshot pass (WAL truncation + cursor
// file) wedged in before the crash point — abandon the engine without
// Close, recover a fresh engine from the directory, resume, and require
// bit-identical final state to an uninterrupted run.
func TestResumeAfterCrash(t *testing.T) {
	dir := t.TempDir()
	files := writeArchive(t, dir, 3)
	want := reference(t, files)

	dataDir := t.TempDir()
	eng1 := newEngine(t, dataDir)
	opts := backfill.Options{BatchRows: 256, CheckpointEvery: 3}
	sink := &faultSink{eng: eng1, failAt: 9, snapshotAt: 4}
	if _, err := backfill.Run(context.Background(), sink, files, opts); !errors.Is(err, errInjected) {
		t.Fatalf("Run did not surface the injected fault: %v", err)
	}
	// Crash: abandon eng1 without Close. The WAL writes straight to the
	// fd, so everything IngestBackfill acknowledged is on disk.

	eng2 := newEngine(t, dataDir)
	defer eng2.Close()
	cur, rowsAfter, ok := eng2.BackfillState()
	if !ok {
		t.Fatal("recovered engine has no backfill state")
	}
	if cur.Rows == 0 {
		t.Fatal("recovered cursor is empty; the snapshot/WAL handoff lost it")
	}
	stats, err := backfill.Run(context.Background(), eng2, files, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ResumeSkipped != int64(rowsAfter) {
		t.Fatalf("resume discarded %d rows, want exactly rowsAfter=%d", stats.ResumeSkipped, rowsAfter)
	}
	requireSameState(t, "crash resume", want, dumpState(t, eng2))

	// A third run over the already-complete archive is a no-op.
	stats, err = backfill.Run(context.Background(), eng2, files, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rows != 0 || stats.ResumeSkipped != 0 {
		t.Fatalf("re-run over complete archive was not a no-op: %+v", stats)
	}
}

// TestRestartResumeAfterCleanClose covers the orfload-rerun path: stop
// gracefully mid-archive (context cancel), Close, reopen, rerun.
func TestRestartResumeAfterCleanClose(t *testing.T) {
	dir := t.TempDir()
	files := writeArchive(t, dir, 2)
	want := reference(t, files)

	dataDir := t.TempDir()
	eng1 := newEngine(t, dataDir)
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	opts := backfill.Options{BatchRows: 256, CheckpointEvery: 2, OnBatch: func(backfill.Stats) {
		if n++; n == 4 {
			cancel()
		}
	}}
	if _, err := backfill.Run(ctx, eng1, files, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Run returned %v", err)
	}
	if err := eng1.Close(); err != nil {
		t.Fatal(err)
	}

	eng2 := newEngine(t, dataDir)
	defer eng2.Close()
	opts.OnBatch = nil
	if _, err := backfill.Run(context.Background(), eng2, files, opts); err != nil {
		t.Fatal(err)
	}
	requireSameState(t, "restart resume", want, dumpState(t, eng2))
}

// TestRejectsUnsortedFile: a file whose dates go backwards must abort
// the run rather than silently emit a non-chronological stream.
func TestRejectsUnsortedFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.csv")
	var buf bytes.Buffer
	cw := smart.NewWriter(&buf, nil)
	vals := make([]float64, smart.NumFeatures())
	for _, day := range []int{5, 6, 3} {
		if err := cw.Write(smart.Sample{Serial: "S1", Model: "M", Day: day, Values: vals}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	eng, err := orfdisk.NewEngine(orfdisk.EngineConfig{Predictor: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := backfill.Run(context.Background(), eng, []string{path}, backfill.Options{}); err == nil {
		t.Fatal("Run accepted a non-chronological file")
	}
}

// TestRejectsCursorForMissingFile: resuming with a file set that lost a
// file the cursor references must fail loudly, not skip data.
func TestRejectsCursorForMissingFile(t *testing.T) {
	dir := t.TempDir()
	files := writeArchive(t, dir, 2)

	eng := newEngine(t, t.TempDir())
	defer eng.Close()
	if _, err := backfill.Run(context.Background(), eng, files, backfill.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := backfill.Run(context.Background(), eng, files[:1], backfill.Options{}); err == nil {
		t.Fatal("Run accepted a file set missing a cursor file")
	}
}

// TestBytesMetered: backfill_bytes_total, which the merger adds to once
// per day-span of a chunk rather than per row, ends equal to the bytes
// the run reports, and both to the archive's size.
func TestBytesMetered(t *testing.T) {
	files := writeArchive(t, t.TempDir(), 3)
	var size int64
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		size += fi.Size()
	}
	eng := newEngine(t, t.TempDir())
	defer eng.Close()
	reg := metrics.NewRegistry()
	stats, err := backfill.Run(context.Background(), eng, files, backfill.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	got := reg.Counter("backfill_bytes_total", "").Value()
	if got != uint64(stats.Bytes) || stats.Bytes != size {
		t.Fatalf("backfill_bytes_total %d, Stats.Bytes %d, archive %d bytes", got, stats.Bytes, size)
	}
}
