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
// increasing across the whole log (gaps are legal: recovery may reserve
// sequence numbers already captured by a snapshot).
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

const (
	headerSize = 16       // u32 len + u32 crc + u64 seq
	maxRecord  = 16 << 20 // sanity cap on payload length
	segSuffix  = ".wal"
)

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
	// included) have been appended since the last one. Default 8 KiB —
	// about 64 observe rows, so a batch of that size or more is on stable
	// storage before its append returns.
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
		o.SyncBytes = 8 << 10
	}
	if o.SyncInterval <= 0 {
		o.SyncInterval = 50 * time.Millisecond
	}
}

// WAL is an open write-ahead log. Append, Sync, TruncateBefore and
// Close are safe for concurrent use. Replay must complete before the
// first Append.
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

	scratch []byte
}

type segment struct {
	firstSeq uint64
	path     string
}

// Open opens (or creates) the log in opts.Dir, truncating any torn
// tail left by a crash, and positions it to append after the last
// valid record.
func Open(opts Options) (*WAL, error) {
	opts.fill()
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
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
// sequence numbering into their own log, so a follower's snapshots, WAL
// replay, and replication-resume position all speak leader offsets.
func (w *WAL) AppendAt(seq uint64, payload []byte) error {
	return w.AppendBatchAt([]uint64{seq}, [][]byte{payload})
}

// AppendBatch writes len(payloads) records with consecutive sequence
// numbers and returns the first. The batch is framed into one buffer and
// issued as a single write syscall, and the group-commit check runs once
// for the whole batch, so a shard ingesting N records pays the
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
		if len(p) > maxRecord {
			return 0, fmt.Errorf("wal: record of %d bytes exceeds cap", len(p))
		}
		total += headerSize + len(p)
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
	if cap(w.scratch) < total {
		w.scratch = make([]byte, total)
	}
	buf := w.scratch[:0]
	last := first
	for i, p := range payloads {
		last = first + uint64(i)
		if seqs != nil {
			last = seqs[i]
		}
		off := len(buf)
		buf = buf[:off+headerSize+len(p)]
		rec := buf[off:]
		binary.LittleEndian.PutUint32(rec[0:4], uint32(len(p)))
		binary.LittleEndian.PutUint64(rec[8:16], last)
		copy(rec[16:], p)
		binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(rec[8:]))
	}
	if _, err := w.f.Write(buf); err != nil {
		return 0, err
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

// CutSegment is one segment file of a cut (see Cut): its name in the log
// directory, a handle open for reading, and its size through the cut.
type CutSegment struct {
	Name string
	File *os.File
	Size int64
}

// Cut fsyncs the active segment and hands out a consistent cut of the
// log for a state transfer: every segment file, open, with its size at
// the cut (the active segment's durable prefix, the others whole), and
// head, the newest durable sequence number. Shipping Size bytes of each
// transfers exactly the records through head, however far appends,
// rotations and truncations move the log afterwards: an open handle
// stays readable after its file is unlinked. The caller closes the
// handles.
func (w *WAL) Cut() (segs []CutSegment, head uint64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, 0, ErrClosed
	}
	if err := w.syncLocked(); err != nil {
		return nil, 0, err
	}
	all, err := listSegments(w.opts.Dir)
	if err != nil {
		return nil, 0, err
	}
	var cut []CutSegment
	defer func() {
		if err != nil {
			for _, c := range cut {
				c.File.Close()
			}
		}
	}()
	for _, s := range all {
		f, err := os.Open(s.path)
		if err != nil {
			return nil, 0, err
		}
		cut = append(cut, CutSegment{Name: filepath.Base(s.path), File: f, Size: w.size})
		if s.firstSeq != w.segStart {
			st, err := f.Stat()
			if err != nil {
				return nil, 0, err
			}
			cut[len(cut)-1].Size = st.Size()
		}
	}
	return cut, w.syncedSeq, nil
}

func (w *WAL) rotateLocked() error {
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	if err := w.createSegment(w.nextSeq); err != nil {
		return err
	}
	w.met.rotations.Inc()
	w.met.segments.Inc()
	return nil
}

// createSegment creates the segment named after firstSeq and makes its
// directory entry durable before a record can land in it: fsync(2) on
// the file would not, and once truncation removes the segments before
// it, the name is all that records the next sequence number.
func (w *WAL) createSegment(firstSeq uint64) error {
	path := filepath.Join(w.opts.Dir, segName(firstSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := syncDir(w.opts.Dir); err != nil {
		f.Close()
		return err
	}
	w.f, w.segStart, w.size, w.dirty = f, firstSeq, 0, 0
	return nil
}

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

// SkipTo raises the next sequence number to at least seq. Recovery uses
// it so records subsumed by a newer snapshot never share a sequence
// number with future appends. Call before the first Append.
func (w *WAL) SkipTo(seq uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if seq > w.nextSeq {
		w.nextSeq = seq
	}
}

// TruncateBefore deletes whole segments all of whose records have
// sequence numbers < seq (the snapshot cutoff: the lowest sequence number
// no snapshot covers). A retain floor (SetRetainFloor) caps the effective
// cutoff. A segment holding any record at or above the cutoff is kept
// whole, so truncation is approximate in the conservative direction —
// except that when the cutoff covers every record in the log, the
// non-empty active segment is sealed (rotated: fsynced, closed, an empty
// successor named after the next sequence number created) and deleted
// with the rest, leaving that one empty segment: a process that shuts
// down clean leaves nothing for the next start to re-read, decode and
// skip. A crash between the rotation and the deletions leaves covered
// segments behind an empty tail, which is what a crash after any other
// rotation leaves; the next truncation removes them.
func (w *WAL) TruncateBefore(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.retainFloor != 0 && w.retainFloor < seq {
		seq = w.retainFloor
	}
	if seq >= w.nextSeq && w.size > 0 {
		// The rotation makes the successor's name durable before any
		// covered segment is unlinked (createSegment).
		if err := w.rotateLocked(); err != nil {
			return err
		}
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
		seq, payload, ok, err := rd.next()
		if err != nil {
			return res, err
		}
		if !ok || (res.count > 0 && seq <= res.lastSeq) {
			return res, nil
		}
		if fn != nil {
			if err := fn(seq, payload); err != nil {
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
