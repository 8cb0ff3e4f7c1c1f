// Package wal implements the serving engine's write-ahead log: an
// append-only sequence of opaque payload records stored in segment
// files, designed so a crashed process can replay exactly what it had
// ingested.
//
// On-disk layout: the log directory holds segment files named
// "<first-seq>.wal" (20-digit decimal). Each record is
//
//	u32 payload length | u32 CRC-32 (IEEE) of seq+payload | u64 seq | payload
//
// (little endian). Sequence numbers are assigned by Append, strictly
// increasing across the whole log (gaps are legal: a follower numbers its
// log after its leader's, from wherever it started streaming).
//
// Durability is batched ("group commit"): Append issues the write
// syscall immediately — a process crash loses nothing the OS accepted —
// but fsync happens only every SyncBytes of log or SyncInterval,
// whichever comes first, so a power failure can lose at most one batch.
// The debt is counted in bytes, the unit the log owns: how many rows a
// record stands for is its writer's business (the engine frames a whole
// shard slice as one), and a count of records would let the fsync cadence
// move with that framing. Caller-numbered appends (AppendAt,
// AppendBatchAt) leave durability to the caller's Sync and the flusher.
//
// A torn tail (partial final write after a crash) is detected by the
// length/CRC framing on Open and truncated away; everything before it
// replays normally. Torn records can only ever be at the very tail of
// the last segment because rotation fsyncs a segment before opening the
// next one.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"orfdisk/internal/metrics"
)

// HeaderSize is the length of a record's header: u32 payload length,
// u32 CRC, u64 sequence number.
const HeaderSize = 16

const segSuffix = ".wal"

// MaxRecord caps one record's payload. It bounds what a torn length
// field can make a reader allocate, and replication sizes its frames so
// one record at the cap ships in one.
const MaxRecord = 64 << 20

// maxScratch bounds the framing buffer a log keeps between appends and
// the payloads it copies into it: a batch of rows fits, and a model's
// state record (a snapshot pass appends one per model) is written from
// the caller's buffer.
const maxScratch = 256 << 10

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: closed")

// Options configures Open. Zero values select defaults.
type Options struct {
	// Dir is the log directory (created if absent). Required.
	Dir string
	// SegmentBytes rotates to a new segment file when the current one
	// would exceed this size. Default 8 MiB.
	SegmentBytes int64
	// SyncBytes forces an fsync once this many bytes (record headers
	// included) have been appended since the last one. Default 4 KiB —
	// about 190 observe rows at ~22 B a row, so a batch of that size or
	// more is on stable storage before its append returns.
	SyncBytes int
	// SyncInterval is the maximum time an appended record stays
	// unsynced (enforced by a background flusher). Default 50 ms.
	SyncInterval time.Duration
	// Metrics receives the log's instrumentation (wal_* families). Nil
	// registers into a private registry: the log is always counted, a
	// caller just can't scrape it.
	Metrics *metrics.Registry
}

func (o *Options) fill() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.SyncBytes <= 0 {
		o.SyncBytes = 4 << 10
	}
	if o.SyncInterval <= 0 {
		o.SyncInterval = 50 * time.Millisecond
	}
}

// walMetrics is the log's instrument set; see Open for the names.
type walMetrics struct {
	appendRecords *metrics.Counter
	appendBytes   *metrics.Counter
	fsyncs        *metrics.Counter
	fsyncSeconds  *metrics.Histogram
	rotations     *metrics.Counter
	segments      *metrics.Gauge
}

func newWALMetrics(reg *metrics.Registry) walMetrics {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return walMetrics{
		appendRecords: reg.Counter("wal_append_records_total", "Records appended to the write-ahead log."),
		appendBytes:   reg.Counter("wal_append_bytes_total", "Bytes appended to the write-ahead log (headers included)."),
		fsyncs:        reg.Counter("wal_fsync_total", "fsync calls issued by the write-ahead log."),
		fsyncSeconds:  reg.Histogram("wal_fsync_seconds", "Write-ahead log fsync latency in seconds."),
		rotations:     reg.Counter("wal_segment_rotations_total", "Write-ahead log segment rotations."),
		segments:      reg.Gauge("wal_segments", "Live write-ahead log segment files."),
	}
}

// WAL is an open write-ahead log. Append, Sync, TruncateBefore and
// Close are safe for concurrent use. Replay must complete before the
// first Append.
type WAL struct {
	opts Options
	met  walMetrics

	mu       sync.Mutex
	f        *os.File // current (last) segment, positioned at its end
	segStart uint64   // name of the current segment
	size     int64    // current segment size
	nextSeq  uint64
	dirty    int // bytes written since last fsync
	closed   bool

	// syncedSeq is the newest sequence number covered by an fsync.
	// Records above it exist only in the OS page cache: a power failure
	// can still lose them, so replication must not ship them — a leader
	// restart would reuse their sequence numbers for different records
	// and silently diverge any follower that had already applied the
	// originals.
	syncedSeq uint64

	// retainFloor, when non-zero, pins TruncateBefore: records with
	// sequence numbers >= retainFloor are never truncated. Replication
	// sets it to the lowest follower-acknowledged position so a snapshot
	// cannot delete segments an attached follower still needs.
	retainFloor uint64

	// watchers are append-notification channels handed out by Watch.
	watchers []chan struct{}

	stop chan struct{}
	done chan struct{}

	scratch []byte // framing buffer, kept up to maxScratch
}

type segment struct {
	firstSeq uint64
	path     string
}

// Open opens (or creates) the log in opts.Dir, truncating any torn
// tail left by a crash, and positions it to append after the last
// valid record. It first deletes what a crash inside Reset left of a
// dropped log.
func Open(opts Options) (*WAL, error) {
	opts.fill()
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	if err := os.RemoveAll(droppedDir(opts.Dir)); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	w := &WAL{
		opts: opts,
		met:  newWALMetrics(opts.Metrics),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	segs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	w.met.segments.Set(float64(max(len(segs), 1)))
	if len(segs) == 0 {
		w.nextSeq = 1
		if err := w.createSegment(1); err != nil {
			return nil, err
		}
	} else {
		// Truncate a torn tail off the last segment and find the next
		// sequence number, falling back over empty trailing segments.
		last := segs[len(segs)-1]
		res, err := scanSegment(last, nil)
		if err != nil {
			return nil, err
		}
		if res.validEnd < res.fileSize {
			if err := os.Truncate(last.path, res.validEnd); err != nil {
				return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", last.path, err)
			}
		}
		w.nextSeq = last.firstSeq
		if res.count > 0 {
			w.nextSeq = res.lastSeq + 1
		} else {
			for i := len(segs) - 2; i >= 0; i-- {
				r, err := scanSegment(segs[i], nil)
				if err != nil {
					return nil, err
				}
				if r.validEnd < r.fileSize {
					return nil, fmt.Errorf("wal: corrupt non-final segment %s", segs[i].path)
				}
				if r.count > 0 {
					w.nextSeq = r.lastSeq + 1
					break
				}
			}
		}
		f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		w.f, w.segStart, w.size = f, last.firstSeq, res.validEnd
	}
	// Everything recovery can see is on disk; the new process's
	// durability story starts exactly there.
	w.syncedSeq = w.nextSeq - 1
	go w.flusher()
	return w, nil
}

func (w *WAL) flusher() {
	defer close(w.done)
	t := time.NewTicker(w.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.mu.Lock()
			if !w.closed {
				w.syncLocked()
			}
			w.mu.Unlock()
		}
	}
}

// Append writes one record and returns its sequence number. The record
// has reached the OS when Append returns; it is fsync-durable within
// one group-commit batch (SyncBytes / SyncInterval).
func (w *WAL) Append(payload []byte) (uint64, error) {
	return w.appendBatch(nil, [][]byte{payload})
}

// AppendAt writes one record with a caller-chosen sequence number, which
// must be at or above the next unused one (gaps are legal; going
// backwards is not). Follower replicas use it to mirror the leader's
// sequence numbering into their own log, so a follower's log, its replay
// and its replication-resume position all speak leader offsets.
func (w *WAL) AppendAt(seq uint64, payload []byte) error {
	return w.AppendBatchAt([]uint64{seq}, [][]byte{payload})
}

// AppendBatch writes len(payloads) records with consecutive sequence
// numbers and returns the first. The batch is framed into one buffer and
// issued as a single write syscall (a payload over maxScratch is written
// from where it is, in a write of its own), and the group-commit check
// runs once for the whole batch, so a shard ingesting N records pays the
// lock/write/sync bookkeeping once instead of N times. Records never
// split across segments: at most one rotation happens, before the batch.
// Replay of an AppendBatch is indistinguishable from N single Appends.
func (w *WAL) AppendBatch(payloads [][]byte) (first uint64, err error) {
	return w.appendBatch(nil, payloads)
}

// AppendBatchAt is AppendBatch with caller-chosen sequence numbers:
// strictly increasing, the first at or above the next unused one (gaps
// are legal). A follower logs each run of leader records it applies with
// one, and Syncs once before it acks: a group-commit check here would
// fsync per run. A rotation names the new segment after seqs[0].
func (w *WAL) AppendBatchAt(seqs []uint64, payloads [][]byte) error {
	if len(seqs) != len(payloads) {
		return fmt.Errorf("wal: AppendBatchAt with %d sequence numbers, %d payloads", len(seqs), len(payloads))
	}
	_, err := w.appendBatch(seqs, payloads)
	return err
}

// appendBatch frames and writes one batch. seqs == nil numbers the
// records consecutively from the next unused sequence number and runs the
// group-commit check; caller-chosen seqs leave the fsync to the caller.
func (w *WAL) appendBatch(seqs []uint64, payloads [][]byte) (first uint64, err error) {
	if len(payloads) == 0 {
		return 0, errors.New("wal: empty batch")
	}
	total := 0
	for _, p := range payloads {
		if len(p) > MaxRecord {
			return 0, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte cap", len(p), MaxRecord)
		}
		total += HeaderSize + len(p)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	if seqs != nil {
		if seqs[0] < w.nextSeq {
			return 0, fmt.Errorf("wal: append at %d behind next sequence %d", seqs[0], w.nextSeq)
		}
		for i := 1; i < len(seqs); i++ {
			if seqs[i] <= seqs[i-1] {
				return 0, fmt.Errorf("wal: append at %d after %d in one batch", seqs[i], seqs[i-1])
			}
		}
		w.nextSeq = seqs[0] // segment rotation names the new file after nextSeq
	}
	if w.size > 0 && w.size+int64(total) > w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	first = w.nextSeq
	// The batch is framed into one buffer and written with one syscall,
	// except that a payload over maxScratch (a state record) is written
	// from where it is, after its header, instead of being copied.
	buf := w.scratch[:0]
	last := first
	for i, p := range payloads {
		last = first + uint64(i)
		if seqs != nil {
			last = seqs[i]
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p)))
		buf = binary.LittleEndian.AppendUint32(buf, 0) // the CRC, below
		buf = binary.LittleEndian.AppendUint64(buf, last)
		hdr := buf[len(buf)-HeaderSize:]
		crc := crc32.Update(crc32.ChecksumIEEE(hdr[8:]), crc32.IEEETable, p)
		binary.LittleEndian.PutUint32(hdr[4:8], crc)
		if len(p) <= maxScratch {
			buf = append(buf, p...)
			continue
		}
		if _, err := w.f.Write(buf); err != nil {
			return 0, err
		}
		if _, err := w.f.Write(p); err != nil {
			return 0, err
		}
		buf = buf[:0]
	}
	if cap(buf) <= maxScratch {
		w.scratch = buf
	}
	if len(buf) > 0 {
		if _, err := w.f.Write(buf); err != nil {
			return 0, err
		}
	}
	w.size += int64(total)
	w.nextSeq = last + 1
	w.dirty += total
	w.met.appendRecords.Add(uint64(len(payloads)))
	w.met.appendBytes.Add(uint64(total))
	if seqs == nil && w.dirty >= w.opts.SyncBytes {
		if err := w.syncLocked(); err != nil {
			return 0, err
		}
	}
	w.notifyLocked()
	return first, nil
}

// Watch returns a channel that receives a (coalesced) signal after every
// append, so a tailer can sleep until new records may exist instead of
// polling. Release it with Unwatch.
func (w *WAL) Watch() <-chan struct{} {
	ch := make(chan struct{}, 1)
	w.mu.Lock()
	w.watchers = append(w.watchers, ch)
	w.mu.Unlock()
	return ch
}

// Unwatch releases a channel obtained from Watch.
func (w *WAL) Unwatch(ch <-chan struct{}) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, c := range w.watchers {
		if c == ch {
			w.watchers = append(w.watchers[:i], w.watchers[i+1:]...)
			return
		}
	}
}

func (w *WAL) notifyLocked() {
	for _, ch := range w.watchers {
		select {
		case ch <- struct{}{}:
		default: // a pending signal already covers this append
		}
	}
}

// SetRetainFloor pins truncation: records with sequence numbers >= seq
// survive TruncateBefore regardless of its cutoff. Zero clears the
// floor. Replication holds the floor at the lowest position an attached
// follower has acknowledged.
func (w *WAL) SetRetainFloor(seq uint64) {
	w.mu.Lock()
	w.retainFloor = seq
	w.mu.Unlock()
}

// Dir returns the log directory (for cursors and backup tooling).
func (w *WAL) Dir() string { return w.opts.Dir }

// OldestSegment returns the first sequence number of the oldest retained
// segment file — a lower bound on the oldest replayable record, used by
// replication to refuse resume positions that truncation has passed.
func (w *WAL) OldestSegment() (uint64, error) {
	segs, err := listSegments(w.opts.Dir)
	if err != nil {
		return 0, err
	}
	if len(segs) == 0 {
		return 0, errors.New("wal: no segments")
	}
	return segs[0].firstSeq, nil
}

// Sync forces any unsynced records to stable storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	return w.syncLocked()
}

func (w *WAL) syncLocked() error {
	if w.dirty == 0 {
		w.syncedSeq = w.nextSeq - 1
		return nil
	}
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.met.fsyncs.Inc()
	w.met.fsyncSeconds.Observe(time.Since(start).Seconds())
	w.dirty = 0
	w.syncedSeq = w.nextSeq - 1
	// Wake tailers: replication gates shipping on durability, so an
	// fsync (not just an append) can make records shippable.
	w.notifyLocked()
	return nil
}

// Rotate fsyncs the active segment and starts a new one named after the
// next sequence number, which it returns: every record appended from now
// on is at or above it, and TruncateBefore of it leaves exactly those. An
// empty active segment already named so is kept.
func (w *WAL) Rotate() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	if w.size == 0 && w.segStart == w.nextSeq {
		return w.nextSeq, w.syncLocked()
	}
	return w.nextSeq, w.rotateLocked()
}

// rotateLocked seals the active segment and opens the next. The old file
// is closed only once its successor exists, so a failed rotation leaves
// the log appending where it was.
func (w *WAL) rotateLocked() error {
	if err := w.syncLocked(); err != nil {
		return err
	}
	old := w.f
	if err := w.createSegment(w.nextSeq); err != nil {
		return err
	}
	w.met.rotations.Inc()
	w.met.segments.Inc()
	return old.Close()
}

// createSegment creates the segment named after firstSeq and makes its
// directory entry durable before a record can land in it: fsync(2) on
// the file would not, and once truncation removes the segments before
// it, the name is all that records the next sequence number.
func (w *WAL) createSegment(firstSeq uint64) error {
	f, err := createSegmentFile(w.opts.Dir, firstSeq)
	if err != nil {
		return err
	}
	w.f, w.segStart, w.size, w.dirty = f, firstSeq, 0, 0
	return nil
}

func createSegmentFile(dir string, firstSeq uint64) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, segName(firstSeq)), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Create opens a new empty log in opts.Dir, which must hold no segment,
// whose first segment is named after first: the log continues another
// log's numbering from there, as a follower that drops its own log to
// stream from its leader's oldest record does.
func Create(opts Options, first uint64) (*WAL, error) {
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	if segs, err := listSegments(opts.Dir); err != nil || len(segs) > 0 {
		if err == nil {
			err = fmt.Errorf("wal: %s already holds a log", opts.Dir)
		}
		return nil, err
	}
	f, err := createSegmentFile(opts.Dir, first)
	if err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return Open(opts)
}

// Reset closes w and replaces its log with an empty one, opened with
// w's options, whose first segment is named after first — as a follower
// that drops its own log to stream its leader's from the oldest record
// does. The old log goes first: renamed aside to Dir + "-dropped", the
// rename made durable, then deleted, so a crash at any step leaves the
// old log whole or none (Open deletes a renamed remnant).
func (w *WAL) Reset(first uint64) (*WAL, error) {
	if err := w.Close(); err != nil {
		return nil, err
	}
	dir, aside := w.opts.Dir, droppedDir(w.opts.Dir)
	if err := os.RemoveAll(aside); err != nil {
		return nil, err
	}
	if err := os.Rename(dir, aside); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	if err := syncDir(filepath.Dir(dir)); err != nil {
		return nil, err
	}
	if err := os.RemoveAll(aside); err != nil {
		return nil, err
	}
	return Create(w.opts, first)
}

// droppedDir is where Reset renames the log in dir before deleting it.
func droppedDir(dir string) string { return filepath.Clean(dir) + "-dropped" }

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// NextSeq returns the sequence number the next Append will use.
func (w *WAL) NextSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextSeq
}

// SyncedSeq returns the newest sequence number guaranteed durable by an
// fsync. Appended-but-unsynced records are above it; replication ships
// nothing beyond it, so a crash of this process can never retract a
// record a follower already holds.
func (w *WAL) SyncedSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncedSeq
}

// TruncateBefore deletes whole segments all of whose records have
// sequence numbers < seq (a snapshot pass's first sequence number, which
// Rotate made a segment boundary). A retain floor (SetRetainFloor) caps
// the effective cutoff. A segment holding any record at or above the
// cutoff is kept whole, and the active segment always is, so truncation
// is approximate in the conservative direction.
func (w *WAL) TruncateBefore(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.retainFloor != 0 && w.retainFloor < seq {
		seq = w.retainFloor
	}
	segs, err := listSegments(w.opts.Dir)
	if err != nil {
		return err
	}
	for i := 0; i+1 < len(segs); i++ {
		// Every record in segment i is < segs[i+1].firstSeq.
		if segs[i].firstSeq == w.segStart || segs[i+1].firstSeq > seq {
			break
		}
		if err := os.Remove(segs[i].path); err != nil {
			return err
		}
		w.met.segments.Dec()
	}
	return nil
}

// Replay calls fn for every valid record, in order. A torn tail on the
// last segment ends replay silently (Open has normally truncated it
// already); a bad record anywhere else is reported as corruption.
// Replay must complete before the first Append.
func (w *WAL) Replay(fn func(seq uint64, payload []byte) error) error {
	segs, err := listSegments(w.opts.Dir)
	if err != nil {
		return err
	}
	for i, s := range segs {
		res, err := scanSegment(s, fn)
		if err != nil {
			return err
		}
		if res.validEnd < res.fileSize && i != len(segs)-1 {
			return fmt.Errorf("wal: corrupt record in non-final segment %s", s.path)
		}
	}
	return nil
}

// Close syncs and closes the log.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.mu.Unlock()
	close(w.stop)
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	// Sync only when records are actually unsynced: the old code issued
	// an unconditional fsync and then discarded its error whenever
	// dirty == 0, which both wasted a syscall on every clean shutdown
	// and conflated "nothing to sync" with "sync failed".
	serr := w.syncLocked()
	cerr := w.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

type scanResult struct {
	validEnd int64 // offset just past the last valid record
	fileSize int64
	lastSeq  uint64
	count    int
}

// scanSegment walks a segment's records, calling fn (if non-nil) for
// each valid one, and stops at the first torn/corrupt record. Only I/O
// errors are returned as errors; framing damage shows up as
// validEnd < fileSize.
func scanSegment(s segment, fn func(uint64, []byte) error) (scanResult, error) {
	f, err := os.Open(s.path)
	if err != nil {
		return scanResult{}, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return scanResult{}, err
	}
	res := scanResult{fileSize: fi.Size()}
	var rd recordReader
	rd.reset(f)
	for {
		seq, rec, ok, err := rd.next()
		if err != nil {
			return res, err
		}
		if !ok || (res.count > 0 && seq <= res.lastSeq) {
			return res, nil
		}
		if fn != nil {
			if err := fn(seq, rec[HeaderSize:]); err != nil {
				return res, err
			}
		}
		res.count++
		res.lastSeq = seq
		res.validEnd = rd.off
	}
}

func segName(firstSeq uint64) string {
	return fmt.Sprintf("%020d%s", firstSeq, segSuffix)
}

func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 10, 64)
		if err != nil {
			continue
		}
		segs = append(segs, segment{firstSeq: seq, path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	return segs, nil
}
