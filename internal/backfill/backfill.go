// Package backfill streams years of daily Backblaze-format snapshots
// through an Engine at disk speed.
//
// The archive layout it consumes is the one real drive-stats corpora
// ship in: many CSV files (quarterly exports, possibly striped into
// shards) — plain, gzip'd (.csv.gz), or packed into .zip archives —
// each internally sorted by date, with any given date's rows spread
// across several files. Compressed inputs stream straight through the
// readers (decompression happens inside the parallel reader stage, no
// unpack-to-disk step). The engine's online protocols require a single
// chronological stream, so the loader is a parallel k-way merge:
//
//	file readers (one goroutine each, zero-alloc FastReader)
//	    │  fixed 512-row chunks over bounded channels (backpressure)
//	    ▼
//	merge stage (single goroutine, min-day k-way merge)
//	    ▼
//	batched Engine.IngestBackfill (rows + periodic durable cursor)
//
// The merged order is canonical and deterministic: day-major, then
// source files in sorted-name order, then row order within a file. It
// does not depend on chunk sizes, channel capacities or goroutine
// scheduling, which is what makes the durable cursor an exact resume
// point: re-merging the same archive reproduces the same row sequence,
// so "cursor + N rows applied after it" identifies one precise row.
// The cursor keys files by logical member name (base name, ".gz"
// stripped, ZIP members by their own names) and counts uncompressed
// byte offsets, so a resume survives the corpus being recompressed or
// unpacked between runs.
//
// Chronology is enforced, not assumed: a file whose dates go backwards
// aborts the run, and on resume the merged stream must not produce a
// day earlier than the cursor's (which would mean the archive changed
// underneath the cursor).
package backfill

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"sort"
	"sync"
	"time"

	"orfdisk"
	"orfdisk/internal/metrics"
	"orfdisk/internal/smart"
)

// Sink is the engine-side surface the pipeline drives. *orfdisk.Engine
// implements it; tests wrap it to inject faults mid-backfill.
type Sink interface {
	IngestBackfill(batch []orfdisk.FleetObservation, cur *orfdisk.BackfillCursor) error
	BackfillState() (cur orfdisk.BackfillCursor, rowsAfter uint64, ok bool)
}

// Ingester is the one-row-at-a-time surface RunNaive drives (the
// baseline the pipeline is benchmarked against).
type Ingester interface {
	Ingest(obs orfdisk.FleetObservation) (orfdisk.Prediction, error)
}

// Options tune the pipeline. Zero values select defaults.
type Options struct {
	// BatchRows is the number of merged rows per IngestBackfill call
	// (default 1024).
	BatchRows int
	// CheckpointEvery makes every Nth batch carry a durable cursor
	// (default 16). Smaller values bound replay-after-crash work;
	// larger ones shave WAL bytes.
	CheckpointEvery int
	// Metrics receives backfill_* instrumentation; nil disables it.
	Metrics *metrics.Registry
	// Logger receives progress and warning events; nil discards them.
	Logger *slog.Logger
	// ProgressEvery is the progress-log cadence (default 5s; negative
	// disables).
	ProgressEvery time.Duration
	// OnBatch, when set, runs after every successful IngestBackfill
	// with a snapshot of the running stats (test and progress hook).
	OnBatch func(Stats)
}

func (o Options) withDefaults() Options {
	if o.BatchRows <= 0 {
		o.BatchRows = 1024
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 16
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
	}
	if o.ProgressEvery == 0 {
		o.ProgressEvery = 5 * time.Second
	}
	return o
}

// Stats summarizes one Run.
type Stats struct {
	// Rows and Bytes are the merged rows and source bytes submitted to
	// the engine by this run (resumed-over rows excluded).
	Rows  int64
	Bytes int64
	// Skipped counts rows dropped deterministically at the readers:
	// malformed lines plus rows missing a serial or model.
	Skipped int64
	// ResumeSkipped counts merged rows discarded because a previous
	// run had already made them durable (the cursor's rowsAfter).
	ResumeSkipped int64
	// Batches and Checkpoints count IngestBackfill calls and how many
	// of them carried a durable cursor.
	Batches     int64
	Checkpoints int64
	// FirstDay and LastDay bound the days this run submitted (-1 when
	// no rows were submitted).
	FirstDay int
	LastDay  int
}

// bfRow is one merged-ready row: the parsed sample (its values sit in
// its chunk's slab) plus the reader position just past it (the per-file
// cursor contribution).
type bfRow struct {
	serial, model string
	day           int
	failed        bool
	endRows       int64 // FastReader.Rows() after this row
	endOff        int64 // FastReader.Offset() after this row
}

const (
	// chunkRows is the rows a reader→merge chunk holds: half the default
	// batch. A chunk's slabs are made at this capacity and never grow, so
	// a reader's memory is fixed (see readFile) whatever the archive's
	// rows per day. The merge order never depends on it.
	chunkRows = 512
	// readerBuf is each file reader's buffer in bytes. It sits over an
	// inflater or a file, which read ahead on their own; more buys nothing.
	readerBuf = 256 << 10
	// readerQueue is each reader's channel capacity in chunks: a reader
	// keeps parsing while the merger drains the other files.
	readerQueue = 4
)

// chunk is up to chunkRows consecutive rows of one file, in file order;
// their days may change inside it (the merger cuts at day boundaries).
// It owns the rows' values, catalog vector after catalog vector in one
// slab, and goes back to its reader's free list once the engine has
// applied them, so a reader in steady state allocates nothing.
type chunk struct {
	rows []bfRow
	vals []float64     // immutable once sent, until recycled
	home chan<- *chunk // the reader's free list
}

// values returns row i's catalog vector.
func (c *chunk) values(i int) []float64 {
	w := smart.NumFeatures()
	return c.vals[i*w : (i+1)*w : (i+1)*w]
}

// recycle hands c back to its reader, unless the reader's free list is
// full: a reader never waits for a chunk, nor the merger for a reader.
func (c *chunk) recycle() {
	select {
	case c.home <- c:
	default:
	}
}

// instruments is the backfill_* metric set; nil when Options.Metrics is.
type instruments struct {
	rows, bytes   *metrics.Counter
	skipped       *metrics.Counter
	resumeSkipped *metrics.Counter
	checkpoints   *metrics.Counter
	cursorDay     *metrics.Gauge
	rowMeter      *metrics.Meter
	byteMeter     *metrics.Meter
}

func newInstruments(reg *metrics.Registry) *instruments {
	if reg == nil {
		return nil
	}
	in := &instruments{
		rows:          reg.Counter("backfill_rows_total", "Merged rows submitted to the engine by the backfill loader."),
		bytes:         reg.Counter("backfill_bytes_total", "Source CSV bytes consumed by the backfill loader."),
		skipped:       reg.Counter("backfill_rows_skipped_total", "Rows dropped at the readers (malformed lines, missing serial or model)."),
		resumeSkipped: reg.Counter("backfill_resume_skipped_rows_total", "Merged rows discarded on resume because a previous run already made them durable."),
		checkpoints:   reg.Counter("backfill_checkpoints_total", "Durable cursors written by the backfill loader."),
		cursorDay:     reg.Gauge("backfill_cursor_day", "Day index of the most recent durable backfill cursor."),
		rowMeter:      metrics.NewMeter(),
		byteMeter:     metrics.NewMeter(),
	}
	reg.GaugeFunc("backfill_rows_per_second", "Recent-window backfill ingest rate in rows/sec.", in.rowMeter.Rate)
	reg.GaugeFunc("backfill_bytes_per_second", "Recent-window backfill read rate in bytes/sec.", in.byteMeter.Rate)
	return in
}

// Run merges the named files — plain CSVs, .csv.gz, and .zip archives
// of either — chronologically into eng, resuming from eng's durable
// cursor if one exists. It returns when the archive is exhausted, ctx
// is canceled, or an error occurs; in every case the engine's durable
// state is a clean prefix of the merged stream, so a later Run with the
// same (or an extended) file set continues exactly where this one
// durably left off.
func Run(ctx context.Context, eng Sink, files []string, opts Options) (Stats, error) {
	opts = opts.withDefaults()
	stats := Stats{FirstDay: -1, LastDay: -1}
	if len(files) == 0 {
		return stats, errors.New("backfill: no input files")
	}
	in := newInstruments(opts.Metrics)

	// Sorted logical-name order defines the canonical merge tiebreak;
	// the cursor refers to files by logical name, so duplicates are
	// ambiguous.
	srcs, err := expandSources(files)
	if err != nil {
		return stats, err
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i].Name < srcs[j].Name })
	names := make([]string, len(srcs))
	index := make(map[string]int, len(srcs))
	for i, s := range srcs {
		names[i] = s.Name
		if _, dup := index[names[i]]; dup {
			return stats, fmt.Errorf("backfill: duplicate logical member name %q in the input set", names[i])
		}
		index[names[i]] = i
	}

	// Resume point: seek each reader to the cursor, then discard the
	// rows the engine already holds beyond it.
	cur, rowsAfter, resuming := eng.BackfillState()
	resumeAt := make([]orfdisk.BackfillFilePos, len(srcs))
	if resuming {
		for _, fp := range cur.Files {
			i, ok := index[fp.Name]
			if !ok {
				return stats, fmt.Errorf("backfill: cursor references %q, not in the given file set", fp.Name)
			}
			resumeAt[i] = fp
		}
		opts.Logger.Info("backfill: resuming",
			"cursor_day", cur.Day, "cursor_rows", cur.Rows, "rows_after", rowsAfter)
	}

	// The derived context tears the readers down on any local error;
	// only the parent's cancellation counts as "the caller stopped us".
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Reader stage: one goroutine per file.
	chans := make([]chan *chunk, len(srcs))
	var (
		wg      sync.WaitGroup
		errMu   sync.Mutex
		readErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if readErr == nil {
			readErr = err
		}
		errMu.Unlock()
		cancel()
	}
	var skipped int64
	var skipMu sync.Mutex
	for i := range srcs {
		chans[i] = make(chan *chunk, readerQueue)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer close(chans[i])
			n, err := readFile(ctx, srcs[i], resumeAt[i], chans[i])
			skipMu.Lock()
			skipped += n
			skipMu.Unlock()
			if err != nil && !errors.Is(err, context.Canceled) {
				fail(fmt.Errorf("backfill: %s: %w", names[i], err))
			}
		}(i)
	}

	// Merge + submit stage (this goroutine).
	m := &merger{
		eng: eng, opts: opts, in: in, stats: &stats,
		names: names, pos: make([]orfdisk.BackfillFilePos, len(srcs)),
		prevOff:    make([]int64, len(srcs)),
		mergedRows: cur.Rows,
		resumeSkip: int64(rowsAfter),
		resumeDay:  -1,
		lastDay:    -1,
		batch:      make([]orfdisk.FleetObservation, 0, opts.BatchRows),
		progressAt: time.Now(),
	}
	for i := range srcs {
		m.pos[i] = resumeAt[i]
		m.pos[i].Name = names[i]
		m.prevOff[i] = resumeAt[i].Off
	}
	if resuming {
		m.resumeDay = cur.Day
		m.lastDay = cur.Day
	}

	mergeErr := m.merge(ctx, chans)
	cancel()
	wg.Wait()
	stats.Skipped = skipped
	if in != nil {
		in.skipped.Add(uint64(skipped))
	}

	errMu.Lock()
	err = readErr
	errMu.Unlock()
	if err == nil {
		err = mergeErr
	}
	if err == nil {
		err = parent.Err()
	}
	if err == nil {
		// Archive exhausted: flush the tail and checkpoint the final
		// frontier so a re-run over the same files is a no-op.
		err = m.submit(true)
	}
	opts.Logger.Info("backfill: done",
		"rows", stats.Rows, "bytes", stats.Bytes, "batches", stats.Batches,
		"checkpoints", stats.Checkpoints, "skipped", stats.Skipped,
		"resume_skipped", stats.ResumeSkipped, "last_day", stats.LastDay, "err", err)
	return stats, err
}

// readFile streams one logical CSV member into chunks, decompressing
// inline when the source is a .gz or ZIP member. Returns the number of
// rows it dropped (malformed lines, missing serial/model).
//
// Its memory is fixed, whatever the file's rows per day: the buffer
// plus the chunks in circulation, each made once at full size — the ones
// in out, the one it fills, the merger's current one and the at most
// ceil(BatchRows/chunkRows)+1 whose rows wait in a batch not yet applied.
func readFile(ctx context.Context, src Source, at orfdisk.BackfillFilePos, out chan<- *chunk) (skipped int64, err error) {
	rc, err := src.Open()
	if err != nil {
		return 0, err
	}
	defer rc.Close()
	r, err := smart.NewFastReaderSize(rc, readerBuf)
	if err != nil {
		return 0, err
	}
	if at.Rows > 0 {
		// Cursor offsets count uncompressed bytes, so a compressed
		// stream resumes by reading and discarding up to the cursor.
		if src.Seekable {
			err = r.SeekTo(at.Off, at.Rows)
		} else {
			err = r.SkipTo(at.Off, at.Rows)
		}
		if err != nil {
			return 0, fmt.Errorf("resuming at cursor: %w", err)
		}
	}

	var cur *chunk
	// The free list holds what the merger returns. Twice the channel's
	// buffer covers the chunks in circulation at the default batch, so
	// steady state reuses every chunk; beyond that capacity a returned
	// chunk is left to the collector.
	free := make(chan *chunk, 2*cap(out))
	get := func() *chunk {
		select {
		case c := <-free:
			c.rows, c.vals = c.rows[:0], c.vals[:0]
			return c
		default:
			return &chunk{
				rows: make([]bfRow, 0, chunkRows),
				vals: make([]float64, 0, chunkRows*smart.NumFeatures()),
				home: free,
			}
		}
	}
	send := func() error {
		if cur == nil {
			return nil
		}
		c := cur
		cur = nil
		select {
		case out <- c:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	lastDay := -1 << 30
	var (
		s      smart.Sample
		rowErr *smart.RowError // errors.As's target escapes: one for the file, not one a row
	)
	for {
		err := r.Read(&s)
		if err == io.EOF {
			return skipped, send()
		}
		if errors.As(err, &rowErr) {
			// Malformed line: consumed (the offset moved past it), so
			// skipping is deterministic across runs.
			skipped++
			continue
		}
		if err != nil {
			return skipped, err
		}
		if s.Serial == "" || s.Model == "" {
			skipped++
			continue
		}
		if s.Day < lastDay {
			return skipped, fmt.Errorf("not chronologically sorted: day %d after day %d (row %d)", s.Day, lastDay, r.Rows())
		}
		lastDay = s.Day
		if cur != nil && len(cur.rows) == chunkRows {
			if err := send(); err != nil {
				return skipped, err
			}
		}
		if cur == nil {
			cur = get()
		}
		cur.vals = append(cur.vals, s.Values...)
		cur.rows = append(cur.rows, bfRow{
			serial: s.Serial, model: s.Model, day: s.Day, failed: s.Failure,
			endRows: r.Rows(), endOff: r.Offset(),
		})
	}
}

// merger is the single-goroutine merge + batch + submit stage.
type merger struct {
	eng   Sink
	opts  Options
	in    *instruments
	stats *Stats
	names []string

	pos     []orfdisk.BackfillFilePos // consumed frontier per file
	prevOff []int64                   // for per-row byte deltas

	mergedRows int64 // canonical merged-row count (cursor.Rows basis)
	resumeSkip int64 // rows to discard before submitting again
	resumeDay  int   // cursor day; merged days must never precede it
	lastDay    int   // day of the newest merged row

	batch      []orfdisk.FleetObservation
	consumed   []*chunk // every row merged; recycled once the batch holding the last is applied
	sinceCkpt  int
	progressAt time.Time
}

// merge drives the k-way min-day merge over the reader channels.
func (m *merger) merge(ctx context.Context, chans []chan *chunk) error {
	// head[i] is file i's current chunk (nil once its reader is drained)
	// and next[i] the first of its rows not yet merged.
	head := make([]*chunk, len(chans))
	next := make([]int, len(chans))
	fetch := func(i int) {
		head[i], next[i] = <-chans[i], 0
	}
	for i := range chans {
		fetch(i)
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		day, any := 0, false
		for i, c := range head {
			if c != nil && (!any || c.rows[next[i]].day < day) {
				day, any = c.rows[next[i]].day, true
			}
		}
		if !any {
			return nil // every reader drained
		}
		// Consume every row of this day, in file order. Files are
		// internally sorted, so once a file's next row is past the day
		// it has no more rows in it.
		for i := range head {
			for head[i] != nil && head[i].rows[next[i]].day == day {
				c, lo := head[i], next[i]
				hi := lo + 1
				for hi < len(c.rows) && c.rows[hi].day == day {
					hi++
				}
				if hi == len(c.rows) {
					fetch(i)
				} else {
					next[i] = hi
				}
				if err := m.consume(c, i, lo, hi); err != nil {
					return err
				}
			}
		}
	}
}

// consume folds rows [lo, hi) of one chunk into the batch, submitting as
// it fills; the chunk is done once its last row is merged.
func (m *merger) consume(c *chunk, file, lo, hi int) error {
	var span uint64 // bytes of the rows merged below, metered once
	defer func() {
		if m.in != nil && span > 0 {
			m.in.bytes.Add(span)
			m.in.byteMeter.Add(span)
		}
	}()
	for i := lo; i < hi; i++ {
		row := &c.rows[i]
		if row.day < m.resumeDay {
			return fmt.Errorf("backfill: %s produced day %d behind the cursor's day %d; archive changed since the cursor was written",
				m.names[file], row.day, m.resumeDay)
		}
		delta := row.endOff - m.prevOff[file]
		m.prevOff[file] = row.endOff
		m.pos[file].Rows = row.endRows
		m.pos[file].Off = row.endOff
		m.mergedRows++
		m.lastDay = row.day
		if m.resumeSkip > 0 {
			// A previous run already made this row durable.
			m.resumeSkip--
			m.stats.ResumeSkipped++
			if m.in != nil {
				m.in.resumeSkipped.Inc()
			}
			continue
		}
		m.stats.Bytes += delta
		if m.stats.FirstDay < 0 {
			m.stats.FirstDay = row.day
		}
		m.stats.LastDay = row.day
		m.batch = append(m.batch, orfdisk.FleetObservation{
			Observation: orfdisk.Observation{
				Serial: row.serial, Day: row.day, Failed: row.failed, Values: c.values(i),
			},
			Model: row.model,
		})
		span += uint64(delta)
		if len(m.batch) >= m.opts.BatchRows {
			if err := m.submit(false); err != nil {
				return err
			}
		}
	}
	if hi == len(c.rows) {
		if len(m.batch) == 0 {
			// None of its rows waits in a batch: each was skipped on
			// resume or went in one the engine has applied.
			c.recycle()
		} else {
			m.consumed = append(m.consumed, c)
		}
	}
	return nil
}

// submit hands the accumulated batch to the engine, attaching a durable
// cursor every CheckpointEvery batches (and always on the final flush).
func (m *merger) submit(final bool) error {
	if len(m.batch) == 0 && !final {
		return nil
	}
	m.sinceCkpt++
	var cur *orfdisk.BackfillCursor
	if final || m.sinceCkpt >= m.opts.CheckpointEvery {
		cur = m.cursor()
		m.sinceCkpt = 0
	}
	if len(m.batch) == 0 && cur == nil {
		return nil
	}
	if err := m.eng.IngestBackfill(m.batch, cur); err != nil {
		return err
	}
	// The engine is done with the batch's memory (IngestBackfill's
	// contract), so every chunk whose rows have all been in a batch by now
	// goes back to its reader.
	for i, c := range m.consumed {
		c.recycle()
		m.consumed[i] = nil
	}
	m.consumed = m.consumed[:0]
	n := int64(len(m.batch))
	m.stats.Rows += n
	m.stats.Batches++
	if cur != nil {
		m.stats.Checkpoints++
	}
	if m.in != nil {
		m.in.rows.Add(uint64(n))
		m.in.rowMeter.Add(uint64(n))
		if cur != nil {
			m.in.checkpoints.Inc()
			m.in.cursorDay.Set(float64(cur.Day))
		}
	}
	m.batch = m.batch[:0]
	if m.opts.OnBatch != nil {
		m.opts.OnBatch(*m.stats)
	}
	if m.opts.ProgressEvery > 0 && time.Since(m.progressAt) >= m.opts.ProgressEvery {
		m.progressAt = time.Now()
		rate, brate := 0.0, 0.0
		if m.in != nil {
			rate, brate = m.in.rowMeter.Rate(), m.in.byteMeter.Rate()
		}
		m.opts.Logger.Info("backfill: progress",
			"rows", m.stats.Rows, "day", m.lastDay,
			"rows_per_sec", int64(rate), "bytes_per_sec", int64(brate),
			"checkpoints", m.stats.Checkpoints)
	}
	return nil
}

// cursor snapshots the merge frontier: every file with consumed rows,
// plus the merged day/row watermark.
func (m *merger) cursor() *orfdisk.BackfillCursor {
	c := &orfdisk.BackfillCursor{Day: m.lastDay, Rows: m.mergedRows}
	for i := range m.pos {
		if m.pos[i].Rows > 0 {
			c.Files = append(c.Files, m.pos[i])
		}
	}
	return c
}

// RunNaive is the single-goroutine baseline: the same canonical merge
// order, driven row-by-row through Engine.Ingest (full scoring path, no
// batching, no cursor). It exists for two reasons: the benchmark's
// speedup denominator, and a correctness cross-check — Ingest and the
// pipeline's Absorb must leave bit-identical predictor state. No
// command calls it: it stays exported only because the equivalence test
// and BenchmarkBackfillNaive use it as their reference.
func RunNaive(eng Ingester, files []string) (Stats, error) {
	stats := Stats{FirstDay: -1, LastDay: -1}
	if len(files) == 0 {
		return stats, errors.New("backfill: no input files")
	}
	sources, err := expandSources(files)
	if err != nil {
		return stats, err
	}
	sort.Slice(sources, func(i, j int) bool { return sources[i].Name < sources[j].Name })

	type src struct {
		rc   io.ReadCloser
		r    *smart.FastReader
		s    smart.Sample
		ok   bool
		last int
	}
	srcs := make([]*src, len(sources))
	defer func() {
		for _, s := range srcs {
			if s != nil && s.rc != nil {
				s.rc.Close()
			}
		}
	}()
	advance := func(s *src, name string) error {
		for {
			err := s.r.Read(&s.s)
			if err == io.EOF {
				s.ok = false
				return nil
			}
			var rowErr *smart.RowError
			if errors.As(err, &rowErr) {
				stats.Skipped++
				continue
			}
			if err != nil {
				return fmt.Errorf("backfill: %s: %w", name, err)
			}
			if s.s.Serial == "" || s.s.Model == "" {
				stats.Skipped++
				continue
			}
			if s.s.Day < s.last {
				return fmt.Errorf("backfill: %s not chronologically sorted", name)
			}
			s.last = s.s.Day
			s.ok = true
			return nil
		}
	}
	for i, sc := range sources {
		rc, err := sc.Open()
		if err != nil {
			return stats, err
		}
		r, err := smart.NewFastReaderSize(rc, readerBuf)
		if err != nil {
			rc.Close()
			return stats, fmt.Errorf("backfill: %s: %w", sc.Name, err)
		}
		srcs[i] = &src{rc: rc, r: r, last: -1 << 30}
		if err := advance(srcs[i], sc.Name); err != nil {
			return stats, err
		}
	}
	for {
		day, any := 0, false
		for _, s := range srcs {
			if s.ok && (!any || s.s.Day < day) {
				day, any = s.s.Day, true
			}
		}
		if !any {
			return stats, nil
		}
		for i, s := range srcs {
			for s.ok && s.s.Day == day {
				if _, err := eng.Ingest(orfdisk.FleetObservation{
					Observation: orfdisk.Observation{
						Serial: s.s.Serial, Day: s.s.Day, Failed: s.s.Failure,
						Values: append([]float64(nil), s.s.Values...),
					},
					Model: s.s.Model,
				}); err != nil {
					return stats, err
				}
				stats.Rows++
				stats.Bytes = 0 // not tracked on the naive path
				if stats.FirstDay < 0 {
					stats.FirstDay = day
				}
				stats.LastDay = day
				if err := advance(s, sources[i].Name); err != nil {
					return stats, err
				}
			}
		}
	}
}
