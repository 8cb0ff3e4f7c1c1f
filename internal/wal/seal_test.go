package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

// segNames lists the directory's segment files by first sequence number.
func segNames(t *testing.T, dir string) []uint64 {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint64, len(segs))
	for i, s := range segs {
		out[i] = s.firstSeq
	}
	return out
}

// logBytes concatenates every segment in order: the record stream as it
// sits on disk, whatever the segment boundaries.
func logBytes(t *testing.T, dir string) []byte {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for _, s := range segs {
		b, err := os.ReadFile(s.path)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	return all
}

// TestTruncateSealsFullyCoveredLog: a rotation, then a truncation before
// the sequence number it returns, leaves exactly one empty segment named
// after the next sequence number. A cutoff one short keeps the last
// record where it is.
func TestTruncateSealsFullyCoveredLog(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, dir, Options{SegmentBytes: 200})
	for i := 0; i < 40; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("%032d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if len(segNames(t, dir)) < 3 {
		t.Fatal("test needs several segments")
	}
	next := w.NextSeq()
	// One short of covering: the last record must survive, unrotated.
	if err := w.TruncateBefore(next - 1); err != nil {
		t.Fatal(err)
	}
	if seqs, _ := collect(t, w); len(seqs) == 0 || seqs[len(seqs)-1] != next-1 || len(segNames(t, dir)) != 1 {
		t.Fatalf("cutoff %d of %d: kept %v in segments %v", next-1, next, seqs, segNames(t, dir))
	}
	// Without a rotation the active segment stays, covered or not.
	if err := w.TruncateBefore(next); err != nil {
		t.Fatal(err)
	}
	if seqs, _ := collect(t, w); len(seqs) == 0 {
		t.Fatal("truncation removed the active segment")
	}
	first, err := w.Rotate()
	if err != nil || first != next {
		t.Fatalf("Rotate = %d, %v; want %d", first, err, next)
	}
	if err := w.TruncateBefore(first); err != nil {
		t.Fatal(err)
	}
	if got := segNames(t, dir); len(got) != 1 || got[0] != next {
		t.Fatalf("segments after a covering truncation: %v, want [%d]", got, next)
	}
	if b := logBytes(t, dir); len(b) != 0 {
		t.Fatalf("sealed log still holds %d bytes", len(b))
	}
	if got := w.met.segments.Value(); got != 1 {
		t.Fatalf("wal_segments = %v, want 1", got)
	}
	if seqs, _ := collect(t, w); len(seqs) != 0 {
		t.Fatalf("replay of a sealed log yielded %v", seqs)
	}
	// Nothing left to seal: a second rotation must not rotate again.
	rotations := w.met.rotations.Value()
	if first, err := w.Rotate(); err != nil || first != next {
		t.Fatalf("second Rotate = %d, %v; want %d", first, err, next)
	}
	if got := w.met.rotations.Value(); got != rotations {
		t.Fatalf("second rotation rotated an empty segment (%v -> %v)", rotations, got)
	}
	if got := segNames(t, dir); len(got) != 1 || got[0] != next {
		t.Fatalf("segments after the second rotation: %v, want [%d]", got, next)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the numbering continues, the new record lands in the
	// segment named for it.
	w2 := openTest(t, dir, Options{SegmentBytes: 200})
	defer w2.Close()
	if got := w2.NextSeq(); got != next {
		t.Fatalf("NextSeq after reopen %d, want %d", got, next)
	}
	if seq, err := w2.Append([]byte("after")); err != nil || seq != next {
		t.Fatalf("append after reopen: seq %d, err %v, want %d", seq, err, next)
	}
	if seqs, payloads := collect(t, w2); len(seqs) != 1 || seqs[0] != next || payloads[0] != "after" {
		t.Fatalf("replay after reopen: %v %q", seqs, payloads)
	}
}

// TestCreateContinuesNumbering: Create makes an empty log whose first
// append, and whose reopened NextSeq, continue from the name it was
// given, and refuses a directory that already holds a log.
func TestCreateContinuesNumbering(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "log")
	w, err := Create(Options{Dir: dir}, 77)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.NextSeq(); got != 77 {
		t.Fatalf("NextSeq %d, want 77", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(Options{Dir: dir}, 5); err == nil {
		t.Fatal("Create over an existing log succeeded")
	}
	w = openTest(t, dir, Options{})
	defer w.Close()
	if seq, err := w.Append([]byte("x")); err != nil || seq != 77 {
		t.Fatalf("first append %d, %v; want 77", seq, err)
	}
}

// TestFailedRotationKeepsAppending: a rotation whose new segment cannot
// be created fails, and the log keeps appending to the segment it had.
func TestFailedRotationKeepsAppending(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, dir, Options{})
	defer w.Close()
	if _, err := w.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, segName(2)), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Rotate(); err == nil {
		t.Fatal("Rotate onto a directory succeeded")
	}
	if _, err := w.Append([]byte("b")); err != nil {
		t.Fatalf("append after a failed rotation: %v", err)
	}
	if seqs, _ := collect(t, w); !slices.Equal(seqs, []uint64{1, 2}) {
		t.Fatalf("replay %v, want [1 2]", seqs)
	}
}

// TestTruncateKeepsTailBelowCutoffOrFloor: the active segment survives
// whenever a record is not covered — by the cutoff or, with a retain
// floor below the head, by what a follower still needs.
func TestTruncateKeepsTailBelowCutoffOrFloor(t *testing.T) {
	for name, truncate := range map[string]func(w *WAL) error{
		"cutoff below the head": func(w *WAL) error { return w.TruncateBefore(30) },
		"retain floor below the head": func(w *WAL) error {
			w.SetRetainFloor(30)
			return w.TruncateBefore(w.NextSeq())
		},
	} {
		dir := t.TempDir()
		w := openTest(t, dir, Options{SegmentBytes: 200})
		for i := 0; i < 40; i++ {
			if _, err := w.Append([]byte(fmt.Sprintf("%032d", i))); err != nil {
				t.Fatal(err)
			}
		}
		rotations, segments := w.met.rotations.Value(), len(segNames(t, dir))
		if err := truncate(w); err != nil {
			t.Fatal(err)
		}
		if got := w.met.rotations.Value(); got != rotations {
			t.Fatalf("%s: truncation sealed a tail it had to keep (%v -> %v rotations)", name, rotations, got)
		}
		if got := len(segNames(t, dir)); got >= segments {
			t.Fatalf("%s: truncation removed nothing (%d -> %d segments)", name, segments, got)
		}
		seqs, _ := collect(t, w)
		if len(seqs) == 0 || seqs[0] > 30 || seqs[len(seqs)-1] != 40 {
			t.Fatalf("%s: records kept: %v", name, seqs)
		}
		w.Close()
	}
}

// TestReopenInsideSealCrashWindow: a crash after the sealing rotation
// but before the deletions leaves the covered segments behind an empty
// tail. Reopening must see every record and continue the numbering.
func TestReopenInsideSealCrashWindow(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, dir, Options{SegmentBytes: 200})
	for i := 0; i < 20; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("%032d", i))); err != nil {
			t.Fatal(err)
		}
	}
	w.mu.Lock()
	err := w.rotateLocked() // what Rotate does
	w.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil { // "crash": nothing was deleted
		t.Fatal(err)
	}
	names := segNames(t, dir)
	if len(names) < 3 || names[len(names)-1] != 21 {
		t.Fatalf("segments in the crash window: %v, want several ending in an empty 21", names)
	}
	w2 := openTest(t, dir, Options{SegmentBytes: 200})
	defer w2.Close()
	if seqs, _ := collect(t, w2); len(seqs) != 20 {
		t.Fatalf("replayed %d records, want 20", len(seqs))
	}
	if got := w2.NextSeq(); got != 21 {
		t.Fatalf("NextSeq %d, want 21", got)
	}
	// The next covering truncation finishes the job.
	if err := w2.TruncateBefore(21); err != nil {
		t.Fatal(err)
	}
	if got := segNames(t, dir); len(got) != 1 || got[0] != 21 {
		t.Fatalf("segments after finishing the truncation: %v, want [21]", got)
	}
}

// TestAppendBatchAtEqualsAppendAts: one AppendBatchAt leaves the bytes N
// AppendAt calls leave, gaps included.
func TestAppendBatchAtEqualsAppendAts(t *testing.T) {
	seqs := []uint64{3, 4, 5, 9, 10, 40}
	payloads := make([][]byte, len(seqs))
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf("payload-%d-%s", i, bytes.Repeat([]byte{'x'}, i*7)))
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	a, b := openTest(t, dirA, Options{}), openTest(t, dirB, Options{})
	for i := range seqs {
		if err := a.AppendAt(seqs[i], payloads[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AppendBatchAt(seqs[:2], payloads[:2]); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendBatchAt(seqs[2:], payloads[2:]); err != nil {
		t.Fatal(err)
	}
	if a.NextSeq() != 41 || b.NextSeq() != 41 {
		t.Fatalf("NextSeq %d / %d, want 41", a.NextSeq(), b.NextSeq())
	}
	if got, want := b.met.appendRecords.Value(), a.met.appendRecords.Value(); got != want || got != uint64(len(seqs)) {
		t.Fatalf("wal_append_records_total %d vs %d, want %d", got, want, len(seqs))
	}
	if got, want := b.met.appendBytes.Value(), a.met.appendBytes.Value(); got != want {
		t.Fatalf("wal_append_bytes_total %d vs %d", got, want)
	}
	for _, w := range []*WAL{a, b} {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(logBytes(t, dirA), logBytes(t, dirB)) || !slices.Equal(segNames(t, dirA), segNames(t, dirB)) {
		t.Fatal("AppendBatchAt left different files than the AppendAt loop")
	}
}

// TestAppendBatchAtRejectsAndRotates covers the refusals (nothing may be
// written by a refused batch) and the name a rotation gives the segment.
func TestAppendBatchAtRejectsAndRotates(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, dir, Options{SegmentBytes: 130, SyncBytes: 4 * (HeaderSize + 16)})
	defer w.Close()
	p := func(n int) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = []byte("0123456789abcdef")
		}
		return out
	}
	if err := w.AppendBatchAt([]uint64{5, 6}, p(2)); err != nil {
		t.Fatal(err)
	}
	before := logBytes(t, dir)
	for name, seqs := range map[string][]uint64{
		"behind the tail":   {6, 7},
		"backwards inside":  {8, 7},
		"duplicate inside":  {8, 8},
		"count != payloads": {8, 9, 10},
	} {
		if err := w.AppendBatchAt(seqs, p(2)); err == nil {
			t.Fatalf("%s: AppendBatchAt(%v) accepted", name, seqs)
		}
	}
	if err := w.AppendBatchAt(nil, nil); err == nil {
		t.Fatal("empty AppendBatchAt accepted")
	}
	if !bytes.Equal(before, logBytes(t, dir)) {
		t.Fatal("a refused batch reached the log")
	}
	// 2 records sit in the first segment (64 bytes); a batch of 3 (96)
	// does not fit beside them, so it rotates, and the new segment is
	// named after the batch's first sequence number, across the gap.
	fsyncs := w.met.fsyncs.Value()
	if err := w.AppendBatchAt([]uint64{20, 21, 30}, p(3)); err != nil {
		t.Fatal(err)
	}
	if got := segNames(t, dir); len(got) != 2 || got[1] != 20 {
		t.Fatalf("segments after a rotating batch: %v, want [1 20]", got)
	}
	// The rotation fsynced the sealed segment; the batch itself runs no
	// group-commit check.
	if got := w.met.fsyncs.Value(); got != fsyncs+1 {
		t.Fatalf("fsyncs %d -> %d, want exactly the rotation's one", fsyncs, got)
	}
	if err := w.AppendBatchAt([]uint64{31}, p(1)); err != nil { // 4th dirty record
		t.Fatal(err)
	}
	if got := w.met.fsyncs.Value(); got != fsyncs+1 {
		t.Fatalf("a caller-numbered append reached SyncBytes and fsynced: fsyncs %d -> %d", fsyncs, got)
	}
	// The caller's Sync makes it durable.
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := w.SyncedSeq(); got != 31 {
		t.Fatalf("SyncedSeq %d, want 31", got)
	}
	seqs, _ := collect(t, w)
	if !slices.Equal(seqs, []uint64{5, 6, 20, 21, 30, 31}) {
		t.Fatalf("replay saw %v", seqs)
	}
}

// TestTornTailAtEveryOffset cuts the last record at every byte and
// demands that Open truncates exactly at the last whole record, and a
// Cursor stops there too, with records larger and smaller than the
// reader's block on either side of the cut.
func TestTornTailAtEveryOffset(t *testing.T) {
	src := t.TempDir()
	w := openTest(t, src, Options{SegmentBytes: 1 << 30})
	big := bytes.Repeat([]byte{0xAB}, readBlock+readBlock/2) // spans two block refills
	for _, p := range [][]byte{[]byte("first"), big, []byte("third"), []byte("the torn one, cut everywhere")} {
		if _, err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	whole := logBytes(t, src)
	lastLen := HeaderSize + len("the torn one, cut everywhere")
	keep := len(whole) - lastLen // end of the third record
	name := segName(1)
	for cut := 0; cut < lastLen; cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), whole[:keep+cut], 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := OpenCursor(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if seqs, _ := drain(t, c); len(seqs) != 3 {
			t.Fatalf("cut at +%d: cursor read %d records before the torn tail, want 3", cut, len(seqs))
		}
		c.Close()
		w := openTest(t, dir, Options{})
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() != int64(keep) {
			t.Fatalf("cut at +%d: segment is %d bytes after Open, want %d (err %v)", cut, fi.Size(), keep, err)
		}
		seqs, payloads := collect(t, w)
		if len(seqs) != 3 || payloads[1] != string(big) || payloads[2] != "third" || w.NextSeq() != 4 {
			t.Fatalf("cut at +%d: replayed %v, NextSeq %d", cut, seqs, w.NextSeq())
		}
		w.Close()
	}
	// A flipped bit inside the big record (in the part the second block
	// read brings in) ends the log before it.
	dir := t.TempDir()
	damaged := append([]byte(nil), whole...)
	damaged[HeaderSize+len("first")+HeaderSize+readBlock+100] ^= 1
	if err := os.WriteFile(filepath.Join(dir, name), damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	w = openTest(t, dir, Options{})
	defer w.Close()
	if seqs, _ := collect(t, w); len(seqs) != 1 || w.NextSeq() != 2 {
		t.Fatalf("CRC damage in a multi-block record: replayed %v, NextSeq %d", seqs, w.NextSeq())
	}
}

// TestCursorTailsGrowingRotatingLog is the -race hammer: one Cursor
// tails while AppendBatch grows and rotates the log under it. Every
// record must arrive whole, once, in order.
func TestCursorTailsGrowingRotatingLog(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, dir, Options{SegmentBytes: 4 << 10, SyncBytes: 1 << 30})
	defer w.Close()
	const batches, perBatch = 400, 7
	payloadFor := func(seq uint64) []byte {
		return bytes.Repeat([]byte{byte(seq)}, 1+int(seq%90))
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := uint64(1)
		for b := 0; b < batches; b++ {
			ps := make([][]byte, perBatch)
			for i := range ps {
				ps[i] = payloadFor(next + uint64(i))
			}
			if _, err := w.AppendBatch(ps); err != nil {
				t.Error(err)
				return
			}
			next += perBatch
		}
	}()
	c, err := OpenCursor(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	watch := w.Watch()
	defer w.Unwatch(watch)
	want := uint64(1)
	for want <= batches*perBatch {
		seq, p, err := c.Next()
		if errors.Is(err, ErrNoMore) {
			<-watch
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if seq != want || !bytes.Equal(p, payloadFor(seq)) {
			t.Fatalf("cursor returned seq %d (%d bytes), want seq %d whole", seq, len(p), want)
		}
		want++
	}
	wg.Wait()
	if w.met.rotations.Value() < 10 {
		t.Fatalf("only %d rotations: the hammer never crossed segments", w.met.rotations.Value())
	}
	if _, _, err := c.Next(); !errors.Is(err, ErrNoMore) {
		t.Fatalf("after the last record: %v, want ErrNoMore", err)
	}
}
