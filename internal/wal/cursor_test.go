package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func openTestWAL(t *testing.T, dir string, segBytes int64) *WAL {
	t.Helper()
	w, err := Open(Options{Dir: dir, SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// drain reads every available record, asserting sequence order.
func drain(t *testing.T, c *Cursor) (seqs []uint64, payloads [][]byte) {
	t.Helper()
	for {
		seq, p, err := c.Next()
		if errors.Is(err, ErrNoMore) {
			return seqs, payloads
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(seqs) > 0 && seq <= seqs[len(seqs)-1] {
			t.Fatalf("sequence went backwards: %d after %d", seq, seqs[len(seqs)-1])
		}
		seqs = append(seqs, seq)
		payloads = append(payloads, append([]byte(nil), p...))
	}
}

func TestCursorReadsFromOffset(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, 1<<20)
	defer w.Close()
	for i := 0; i < 50; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("rec-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c, err := OpenCursor(dir, 20) // resume just past seq 20
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seqs, payloads := drain(t, c)
	if len(seqs) != 30 || seqs[0] != 21 || seqs[len(seqs)-1] != 50 {
		t.Fatalf("got %d records, first %d last %d; want 30 in [21,50]",
			len(seqs), seqs[0], seqs[len(seqs)-1])
	}
	if string(payloads[0]) != "rec-20" { // seq 21 carries the 21st append, payload "rec-20"
		t.Fatalf("payload mismatch: %q", payloads[0])
	}
	// Caught up: more appends become visible on the same cursor.
	if _, err := w.Append([]byte("late")); err != nil {
		t.Fatal(err)
	}
	seq, p, err := c.Next()
	if err != nil || seq != 51 || string(p) != "late" {
		t.Fatalf("tail read after catch-up: seq=%d p=%q err=%v", seq, p, err)
	}
}

func TestCursorSurvivesRotation(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, 256) // tiny segments force many rotations
	defer w.Close()
	c, err := OpenCursor(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var want []uint64
	read := func() {
		seqs, _ := drain(t, c)
		got := append([]uint64(nil), seqs...)
		if len(got) == 0 && len(want) > 0 {
			t.Fatalf("cursor read nothing, want up to %d", want[len(want)-1])
		}
		_ = got
	}
	total := 0
	for i := 0; i < 200; i++ {
		seq, err := w.Append([]byte(fmt.Sprintf("payload-%03d-padpadpad", i)))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, seq)
		if i%37 == 0 {
			read() // interleave reads with rotations
		}
	}
	c2, err := OpenCursor(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	seqs, _ := drain(t, c2)
	if len(seqs) != total+200 {
		t.Fatalf("full drain saw %d records, want %d", len(seqs), 200)
	}
	for i, s := range seqs {
		if s != want[i] {
			t.Fatalf("record %d has seq %d, want %d", i, s, want[i])
		}
	}
	if c2.Segment() == 1 {
		t.Fatal("cursor never advanced past the first segment despite rotations")
	}
}

func TestCursorTornTail(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, 1<<20)
	for i := 0; i < 10; i++ {
		if _, err := w.Append([]byte("solid")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write at the tail of the last segment.
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x09, 0x00, 0x00, 0x00, 0xBA, 0xAD}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c, err := OpenCursor(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seqs, _ := drain(t, c)
	if len(seqs) != 10 {
		t.Fatalf("torn tail: read %d records, want the 10 valid ones", len(seqs))
	}
	// The torn tail reads as "no more", repeatedly — not corruption.
	if _, _, err := c.Next(); !errors.Is(err, ErrNoMore) {
		t.Fatalf("expected ErrNoMore at torn tail, got %v", err)
	}
	// Reopening the WAL truncates the tear; appends become readable again.
	w2 := openTestWAL(t, dir, 1<<20)
	defer w2.Close()
	seq, err := w2.Append([]byte("after-tear"))
	if err != nil {
		t.Fatal(err)
	}
	got, p, err := c.Next()
	if err != nil || got != seq || string(p) != "after-tear" {
		t.Fatalf("post-truncation read: seq=%d p=%q err=%v (want seq %d)", got, p, err, seq)
	}
}

func TestCursorResumeSkipsWithinSegment(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, 1<<20)
	defer w.Close()
	for i := 0; i < 5; i++ {
		if _, err := w.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// A gap in the numbering (a follower logs its leader's numbers) must
	// not confuse resume.
	if err := w.AppendAt(100, []byte("gapped")); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCursor(dir, 7) // inside the gap: nothing in (7, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seqs, payloads := drain(t, c)
	if len(seqs) != 1 || seqs[0] != 100 || string(payloads[0]) != "gapped" {
		t.Fatalf("gap resume read %v, want just seq 100", seqs)
	}
}

func TestAppendAtMirrorsSequence(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, 1<<20)
	if err := w.AppendAt(5, []byte("five")); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendAt(9, []byte("nine")); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendAt(9, []byte("again")); err == nil {
		t.Fatal("AppendAt going backwards must fail")
	}
	if got := w.NextSeq(); got != 10 {
		t.Fatalf("NextSeq = %d, want 10", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := openTestWAL(t, dir, 1<<20)
	defer w2.Close()
	var seqs []uint64
	if err := w2.Replay(func(seq uint64, p []byte) error {
		seqs = append(seqs, seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 || seqs[0] != 5 || seqs[1] != 9 {
		t.Fatalf("replay saw %v, want [5 9]", seqs)
	}
	if got := w2.NextSeq(); got != 10 {
		t.Fatalf("recovered NextSeq = %d, want 10", got)
	}
}

func TestRetainFloorPinsTruncation(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, 128) // force many small segments
	defer w.Close()
	for i := 0; i < 60; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("record-%02d-pad", i))); err != nil {
			t.Fatal(err)
		}
	}
	w.SetRetainFloor(10)
	if err := w.TruncateBefore(55); err != nil {
		t.Fatal(err)
	}
	oldest, err := w.OldestSegment()
	if err != nil {
		t.Fatal(err)
	}
	if oldest > 10 {
		t.Fatalf("truncation passed the retain floor: oldest segment %d > floor 10", oldest)
	}
	// A cursor resuming at the floor still sees everything from there.
	c, err := OpenCursor(dir, 9)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seqs, _ := drain(t, c)
	if len(seqs) == 0 || seqs[0] != 10 || seqs[len(seqs)-1] != 60 {
		t.Fatalf("post-truncation resume read %d records [%v..], want [10..60]", len(seqs), seqs)
	}
	// Clearing the floor lets the old cutoff take effect.
	w.SetRetainFloor(0)
	if err := w.TruncateBefore(55); err != nil {
		t.Fatal(err)
	}
	oldest, err = w.OldestSegment()
	if err != nil {
		t.Fatal(err)
	}
	if oldest <= 10 {
		t.Fatalf("truncation ignored: oldest still %d", oldest)
	}
}

func TestWatchSignalsAppends(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, 1<<20)
	defer w.Close()
	ch := w.Watch()
	defer w.Unwatch(ch)
	select {
	case <-ch:
		t.Fatal("spurious signal before any append")
	default:
	}
	if _, err := w.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("no watch signal after append")
	}
	if _, err := w.AppendBatch([][]byte{[]byte("a"), []byte("b")}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("no watch signal after batch append")
	}
}
