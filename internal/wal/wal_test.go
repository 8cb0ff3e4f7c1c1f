package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func openTest(t *testing.T, dir string, opts Options) *WAL {
	t.Helper()
	opts.Dir = dir
	w, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func collect(t *testing.T, w *WAL) (seqs []uint64, payloads []string) {
	t.Helper()
	err := w.Replay(func(seq uint64, payload []byte) error {
		seqs = append(seqs, seq)
		payloads = append(payloads, string(payload))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return seqs, payloads
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, dir, Options{})
	var want []string
	for i := 0; i < 100; i++ {
		p := fmt.Sprintf("record-%03d", i)
		seq, err := w.Append([]byte(p))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq %d, want %d", seq, i+1)
		}
		want = append(want, p)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := openTest(t, dir, Options{})
	defer w2.Close()
	seqs, payloads := collect(t, w2)
	if len(payloads) != 100 {
		t.Fatalf("replayed %d records, want 100", len(payloads))
	}
	for i := range payloads {
		if payloads[i] != want[i] || seqs[i] != uint64(i+1) {
			t.Fatalf("record %d: seq %d payload %q", i, seqs[i], payloads[i])
		}
	}
	if w2.NextSeq() != 101 {
		t.Fatalf("NextSeq %d, want 101", w2.NextSeq())
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record is ~16+32 bytes, so rotation happens
	// every couple of records.
	w := openTest(t, dir, Options{SegmentBytes: 100})
	for i := 0; i < 50; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("%032d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 10 {
		t.Fatalf("expected many segments, got %d", len(segs))
	}
	w2 := openTest(t, dir, Options{SegmentBytes: 100})
	defer w2.Close()
	seqs, _ := collect(t, w2)
	if len(seqs) != 50 || seqs[49] != 50 {
		t.Fatalf("replay across segments: %d records, last seq %d", len(seqs), seqs[len(seqs)-1])
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, dir, Options{})
	for i := 0; i < 10; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write: append a partial record (header promising
	// more bytes than exist).
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := segs[len(segs)-1].path
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{200, 1, 0, 0, 7, 7, 7}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2 := openTest(t, dir, Options{})
	seqs, _ := collect(t, w2)
	if len(seqs) != 10 {
		t.Fatalf("replayed %d records after torn tail, want 10", len(seqs))
	}
	// The log must keep accepting appends after truncation.
	seq, err := w2.Append([]byte("after-crash"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 11 {
		t.Fatalf("post-recovery seq %d, want 11", seq)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	w3 := openTest(t, dir, Options{})
	defer w3.Close()
	seqs, payloads := collect(t, w3)
	if len(seqs) != 11 || payloads[10] != "after-crash" {
		t.Fatalf("post-recovery replay: %d records, last %q", len(seqs), payloads[len(payloads)-1])
	}
}

func TestCorruptedTailCRC(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if _, err := w.Append([]byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	path := segs[len(segs)-1].path
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the last record's payload.
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w2 := openTest(t, dir, Options{})
	defer w2.Close()
	seqs, _ := collect(t, w2)
	if len(seqs) != 4 {
		t.Fatalf("replayed %d records after CRC damage, want 4", len(seqs))
	}
	if w2.NextSeq() != 5 {
		t.Fatalf("NextSeq %d, want 5", w2.NextSeq())
	}
}

func TestTruncateBefore(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, dir, Options{SegmentBytes: 100})
	for i := 0; i < 40; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("%032d", i))); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := listSegments(dir)
	if err := w.TruncateBefore(21); err != nil {
		t.Fatal(err)
	}
	after, _ := listSegments(dir)
	if len(after) >= len(before) {
		t.Fatalf("truncation removed nothing (%d -> %d segments)", len(before), len(after))
	}
	seqs, _ := collect(t, w)
	if len(seqs) == 0 || seqs[0] > 21 {
		t.Fatalf("truncation dropped live records: first remaining seq %d", seqs[0])
	}
	if last := seqs[len(seqs)-1]; last != 40 {
		t.Fatalf("lost tail records: last seq %d", last)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestGroupCommitSyncEvery(t *testing.T) {
	dir := t.TempDir()
	const recBytes = HeaderSize + 1 // the debt is counted in bytes: four records' worth
	w := openTest(t, dir, Options{SyncBytes: 4 * recBytes, SyncInterval: time.Hour})
	for i := 0; i < 10; i++ {
		if _, err := w.Append([]byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	w.mu.Lock()
	dirty := w.dirty
	w.mu.Unlock()
	if dirty != 2*recBytes {
		t.Fatalf("dirty %d bytes after 10 records with SyncBytes = 4 records, want 2 records (%d)", dirty, 2*recBytes)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	dirty = w.dirty
	w.mu.Unlock()
	if dirty != 0 {
		t.Fatalf("dirty %d after Sync", dirty)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncedSeqTracksDurability pins the durability watermark semantics
// replication depends on: SyncedSeq covers exactly the records an fsync
// has reached — not appended-but-dirty ones — and reopening a log
// starts the watermark at everything recovery could see.
func TestSyncedSeqTracksDurability(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, dir, Options{SyncBytes: 1 << 30, SyncInterval: time.Hour})
	if got := w.SyncedSeq(); got != 0 {
		t.Fatalf("fresh SyncedSeq = %d", got)
	}
	for i := 0; i < 5; i++ {
		if _, err := w.Append([]byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.SyncedSeq(); got != 0 {
		t.Fatalf("SyncedSeq = %d with all records unsynced", got)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := w.SyncedSeq(); got != 5 {
		t.Fatalf("SyncedSeq = %d after Sync, want 5", got)
	}
	if _, err := w.Append([]byte("r")); err != nil {
		t.Fatal(err)
	}
	if got := w.SyncedSeq(); got != 5 {
		t.Fatalf("SyncedSeq = %d after dirty append, want 5", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: recovery replays 6 records off disk, so all 6 are durable.
	w2 := openTest(t, dir, Options{SyncBytes: 1 << 30, SyncInterval: time.Hour})
	defer w2.Close()
	if got := w2.SyncedSeq(); got != 6 {
		t.Fatalf("reopened SyncedSeq = %d, want 6", got)
	}
}

func TestEmptyDirOpen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "wal")
	w := openTest(t, dir, Options{})
	defer w.Close()
	seqs, _ := collect(t, w)
	if len(seqs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(seqs))
	}
	if w.NextSeq() != 1 {
		t.Fatalf("fresh NextSeq %d", w.NextSeq())
	}
}

// TestCloseNoRedundantFsync is the regression test for the Close error
// ordering bug: Close used to issue an unconditional fsync (and then
// discard its result when dirty == 0). After an explicit Sync a clean
// Close must not fsync again — observable through the fsync counter now
// that Close routes through syncLocked.
func TestCloseNoRedundantFsync(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, dir, Options{SyncBytes: 1 << 30, SyncInterval: time.Hour})
	for i := 0; i < 3; i++ {
		if _, err := w.Append([]byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := w.met.fsyncs.Value(); got != 1 {
		t.Fatalf("fsyncs after Sync = %d, want 1", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := w.met.fsyncs.Value(); got != 1 {
		t.Fatalf("clean Close issued a redundant fsync (count %d, want 1)", got)
	}
}

// TestClosePropagatesSyncError: with unsynced records and a file that
// cannot fsync (a pipe), Close must surface the sync failure instead of
// losing it behind the close.
func TestClosePropagatesSyncError(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, dir, Options{SyncBytes: 1 << 30, SyncInterval: time.Hour})
	if _, err := w.Append([]byte("r")); err != nil {
		t.Fatal(err)
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	w.mu.Lock()
	w.f.Close()
	w.f = pw // fsync on a pipe fails (EINVAL)
	w.mu.Unlock()
	if err := w.Close(); err == nil {
		t.Fatal("Close swallowed the sync error for unsynced records")
	}
}

// TestCloseIgnoresUnsyncableFileWhenClean: same broken file, but with
// nothing dirty Close must not attempt (or report) a sync at all.
func TestCloseIgnoresUnsyncableFileWhenClean(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, dir, Options{SyncBytes: 1 << 30, SyncInterval: time.Hour})
	if _, err := w.Append([]byte("r")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	fsyncs := w.met.fsyncs.Value()
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	w.mu.Lock()
	w.f.Close()
	w.f = pw
	w.mu.Unlock()
	if err := w.Close(); err != nil {
		t.Fatalf("clean Close failed on a file it had no reason to sync: %v", err)
	}
	if got := w.met.fsyncs.Value(); got != fsyncs {
		t.Fatalf("clean Close attempted a sync (fsyncs %d -> %d)", fsyncs, got)
	}
}

// TestFsyncCounter covers the group-commit accounting: SyncBytes
// batches fsyncs, the counter reflects batches rather than records, and
// latency observations accumulate alongside.
func TestFsyncCounter(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, dir, Options{SyncBytes: 4 * (HeaderSize + len("abcdef")), SyncInterval: time.Hour})
	defer w.Close()
	for i := 0; i < 12; i++ {
		if _, err := w.Append([]byte("abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.met.fsyncs.Value(); got != 3 {
		t.Fatalf("fsyncs = %d, want 3 (12 records / SyncBytes of 4 records)", got)
	}
	if got := w.met.fsyncSeconds.Count(); got != 3 {
		t.Fatalf("fsync latency observations = %d, want 3", got)
	}
	if got := w.met.appendRecords.Value(); got != 12 {
		t.Fatalf("append records = %d, want 12", got)
	}
	wantBytes := uint64(12 * (HeaderSize + 6))
	if got := w.met.appendBytes.Value(); got != wantBytes {
		t.Fatalf("append bytes = %d, want %d", got, wantBytes)
	}
}

// TestSegmentMetrics tracks rotations and the live-segment gauge
// through rotation and truncation.
func TestSegmentMetrics(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, dir, Options{SegmentBytes: 100})
	defer w.Close()
	for i := 0; i < 40; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("%032d", i))); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := listSegments(dir)
	if got := int(w.met.segments.Value()); got != len(segs) {
		t.Fatalf("segment gauge %d, want %d", got, len(segs))
	}
	if w.met.rotations.Value() == 0 {
		t.Fatal("no rotations counted despite tiny segments")
	}
	if err := w.TruncateBefore(21); err != nil {
		t.Fatal(err)
	}
	segs, _ = listSegments(dir)
	if got := int(w.met.segments.Value()); got != len(segs) {
		t.Fatalf("segment gauge %d after truncation, want %d", got, len(segs))
	}
}

// TestAppendBatchReplayEqualsSingles writes the same record stream twice
// — once via single Appends, once via AppendBatch — into two logs and
// verifies the replayed (seq, payload) streams and on-disk segment
// layout are byte-identical.
func TestAppendBatchReplayEqualsSingles(t *testing.T) {
	recs := make([][]byte, 0, 50)
	for i := 0; i < 50; i++ {
		recs = append(recs, []byte(fmt.Sprintf("record-%03d-%s", i, string(make([]byte, i%7)))))
		if i%17 == 5 { // over maxScratch: written from the caller's buffer
			recs[i] = append(recs[i], make([]byte, maxScratch+i)...)
		}
	}
	opts := Options{SegmentBytes: 512} // force rotations in both logs

	dirA := t.TempDir()
	a := openTest(t, dirA, opts)
	for _, p := range recs {
		if _, err := a.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	dirB := t.TempDir()
	b := openTest(t, dirB, opts)
	for i := 0; i < len(recs); {
		n := 1 + i%9 // varying batch sizes, including 1
		if i+n > len(recs) {
			n = len(recs) - i
		}
		first, err := b.AppendBatch(recs[i : i+n])
		if err != nil {
			t.Fatal(err)
		}
		if first != uint64(i+1) {
			t.Fatalf("batch at %d: first seq %d, want %d", i, first, i+1)
		}
		i += n
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	ra := openTest(t, dirA, opts)
	defer ra.Close()
	rb := openTest(t, dirB, opts)
	defer rb.Close()
	seqsA, payloadsA := collect(t, ra)
	seqsB, payloadsB := collect(t, rb)
	if len(seqsA) != len(recs) || len(seqsB) != len(recs) {
		t.Fatalf("replay counts: singles %d, batch %d, want %d", len(seqsA), len(seqsB), len(recs))
	}
	for i := range recs {
		if seqsA[i] != seqsB[i] || payloadsA[i] != payloadsB[i] {
			t.Fatalf("record %d differs: (%d,%q) vs (%d,%q)",
				i, seqsA[i], payloadsA[i], seqsB[i], payloadsB[i])
		}
	}
	if ra.NextSeq() != rb.NextSeq() {
		t.Fatalf("NextSeq differs: %d vs %d", ra.NextSeq(), rb.NextSeq())
	}
}

// TestAppendBatchNeverSplitsSegments checks a batch whose size would
// overflow the current segment rotates first and lands whole.
func TestAppendBatchNeverSplitsSegments(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, dir, Options{SegmentBytes: 256})
	if _, err := w.Append(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	// 3 × (16 + 60) = 228 bytes: fits a fresh 256-byte segment but not
	// alongside the 116 bytes already in the first one.
	batch := [][]byte{make([]byte, 60), make([]byte, 60), make([]byte, 60)}
	first, err := w.AppendBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if first != 2 {
		t.Fatalf("first seq %d, want 2", first)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("%d segments, want 2 (rotation before batch)", len(segs))
	}
	res, err := scanSegment(segs[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.count != 3 || res.validEnd != res.fileSize {
		t.Fatalf("second segment holds %d records (valid %d / %d bytes), want whole batch",
			res.count, res.validEnd, res.fileSize)
	}
}

// TestAppendBatchGroupCommit checks the fsync policy treats a batch as
// the bytes of all its records, not as one append.
func TestAppendBatchGroupCommit(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, dir, Options{SyncBytes: 4 * (HeaderSize + 1), SyncInterval: time.Hour})
	defer w.Close()
	fsyncs := func() uint64 { return w.met.fsyncs.Value() }
	if _, err := w.AppendBatch([][]byte{[]byte("a"), []byte("b"), []byte("c")}); err != nil {
		t.Fatal(err)
	}
	if got := fsyncs(); got != 0 {
		t.Fatalf("fsyncs after 3 dirty records: %d, want 0", got)
	}
	if _, err := w.AppendBatch([][]byte{[]byte("d")}); err != nil {
		t.Fatal(err)
	}
	if got := fsyncs(); got != 1 {
		t.Fatalf("fsyncs after reaching SyncBytes: %d, want 1", got)
	}
}

// TestAppendBatchRejectsBadInput covers the error paths.
func TestAppendBatchRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, dir, Options{})
	if _, err := w.AppendBatch(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := w.AppendBatch([][]byte{make([]byte, MaxRecord+1)}); err == nil {
		t.Fatal("oversized record accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendBatch([][]byte{[]byte("x")}); err != ErrClosed {
		t.Fatalf("append on closed log: %v, want ErrClosed", err)
	}
}
