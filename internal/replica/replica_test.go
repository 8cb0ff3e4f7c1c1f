package replica

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"orfdisk/internal/metrics"
	"orfdisk/internal/wal"
)

// TestFrameRoundTrip: a records frame carries the log's own record
// bytes, and the follower's decoder gives back each record's sequence
// number and payload.
func TestFrameRoundTrip(t *testing.T) {
	recs := []Record{
		{Seq: 7, Payload: []byte("alpha")},
		{Seq: 9, Payload: []byte{}},
		{Seq: 100000, Payload: bytes.Repeat([]byte{0xAB}, 5000)},
	}
	var logged [][]byte
	for _, r := range recs {
		logged = append(logged, logRecord(r.Seq, string(r.Payload)))
	}
	sent := time.Unix(0, 1723200000000000000)
	frame := recordsFrame(123456, sent, logged...)
	if !bytes.Equal(frame[recordsPrefix:], bytes.Join(logged, nil)) {
		t.Fatal("the frame does not carry the records' log bytes verbatim")
	}
	body, _, err := readFrame(bytes.NewReader(frame), frameRecords, nil)
	if err != nil {
		t.Fatal(err)
	}
	head, sentAt, out, err := decodeRecords(body, nil)
	if err != nil {
		t.Fatal(err)
	}
	if head != 123456 || !sentAt.Equal(sent) {
		t.Fatalf("head=%d sentAt=%v", head, sentAt)
	}
	if !slices.EqualFunc(out, recs, func(a, b Record) bool { return a.Seq == b.Seq && bytes.Equal(a.Payload, b.Payload) }) {
		t.Fatalf("decoded %v, want %v", out, recs)
	}
	ack, _, err := readFrame(bytes.NewReader(appendAck(nil, 42)), frameAck, nil)
	if err != nil || binary.LittleEndian.Uint64(ack) != 42 {
		t.Fatalf("ack body % x, err %v", ack, err)
	}
}

// TestFrameCRCDetectsCorruption: the frame CRC covers the frame's own
// fields, and each record is checked by its own log CRC; damage to
// either fails the frame, and a record cut off at the frame's end or
// out of sequence order does too.
func TestFrameCRCDetectsCorruption(t *testing.T) {
	r1, r2 := logRecord(1, "one"), logRecord(2, "two")
	for i := frameHeaderSize; i < recordsPrefix; i++ {
		b := recordsFrame(42, time.Unix(1, 0), r1)
		b[i] ^= 0x10
		if _, _, err := readFrame(bytes.NewReader(b), frameRecords, nil); err == nil {
			t.Fatalf("status byte %d damaged, yet the frame passed its CRC", i)
		}
	}
	for name, frame := range map[string][]byte{
		"damaged record":  recordsFrame(2, time.Unix(1, 0), r1, append(r2[:len(r2)-1:len(r2)-1], 'X')),
		"cut-off record":  recordsFrame(2, time.Unix(1, 0), r1, r2[:len(r2)-1]),
		"descending seqs": recordsFrame(2, time.Unix(1, 0), r2, r1),
	} {
		body, _, err := readFrame(bytes.NewReader(frame), frameRecords, nil)
		if err != nil {
			t.Fatalf("%s: the frame's own CRC failed: %v", name, err)
		}
		if _, _, recs, err := decodeRecords(body, nil); err == nil {
			t.Errorf("%s: decoded %d records without an error", name, len(recs))
		}
	}
}

func TestHandshakeRoundTrip(t *testing.T) {
	var wire bytes.Buffer
	if err := writeHandshake(&wire, 77); err != nil {
		t.Fatal(err)
	}
	resume, err := readHandshake(&wire)
	if err != nil || resume != 77 {
		t.Fatalf("resume=%d err=%v", resume, err)
	}
	wire.Reset()
	if err := writeHandshakeReply(&wire, 3, 99); err != nil {
		t.Fatal(err)
	}
	oldest, head, err := readHandshakeReply(&wire)
	if err != nil || oldest != 3 || head != 99 {
		t.Fatalf("oldest=%d head=%d err=%v", oldest, head, err)
	}
}

// memApplier is an in-memory Applier capturing the stream.
type memApplier struct {
	mu      sync.Mutex
	recs    []Record
	applied uint64
	head    uint64
	sentAt  time.Time
	failN   int // fail the next N ApplyReplicated calls
}

func (m *memApplier) ApplyReplicated(recs []Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failN > 0 {
		m.failN--
		return errors.New("injected apply failure")
	}
	for _, r := range recs {
		if r.Seq <= m.applied {
			continue
		}
		m.recs = append(m.recs, Record{Seq: r.Seq, Payload: append([]byte(nil), r.Payload...)})
		m.applied = r.Seq
	}
	return nil
}

func (m *memApplier) ReplicationResume() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.applied
}

func (m *memApplier) ObserveLeaderHead(head uint64, sentAt time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.head, m.sentAt = head, sentAt
}

func (m *memApplier) snapshot() (int, uint64, uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.recs), m.applied, m.head
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func openShipWAL(t *testing.T, dir string) *wal.WAL {
	t.Helper()
	w, err := wal.Open(wal.Options{Dir: dir, SegmentBytes: 4096, SyncInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

func TestSourceStreamsAndResumes(t *testing.T) {
	w := openShipWAL(t, t.TempDir())
	for i := 0; i < 100; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("r%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	src, err := NewSource("127.0.0.1:0", SourceConfig{WAL: w, Heartbeat: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	app := &memApplier{}
	fl, err := StartFollower(src.Addr(), FollowerConfig{Applier: app, RetryInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "initial catch-up", func() bool {
		n, applied, _ := app.snapshot()
		return n == 100 && applied == 100
	})
	// Live tail: new appends flow through (and cross segment rotations).
	for i := 100; i < 300; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("r%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "live tail", func() bool {
		n, _, _ := app.snapshot()
		return n == 300
	})
	// Heartbeats advance the observed leader head even when idle.
	waitFor(t, 5*time.Second, "heartbeat head", func() bool {
		_, _, head := app.snapshot()
		return head == 300
	})
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart the follower from its acknowledged position: no record is
	// re-applied (memApplier would grow past 300 on duplicates only if
	// seqs regressed — assert count stays exact after more appends).
	for i := 300; i < 320; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("r%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	fl2, err := StartFollower(src.Addr(), FollowerConfig{Applier: app, RetryInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer fl2.Close()
	waitFor(t, 5*time.Second, "resume catch-up", func() bool {
		n, applied, _ := app.snapshot()
		return n == 320 && applied == 320
	})
	// Verify strict ordering of everything received.
	app.mu.Lock()
	defer app.mu.Unlock()
	for i, r := range app.recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
	}
}

func TestFollowerReconnectsAfterSourceRestart(t *testing.T) {
	dir := t.TempDir()
	w := openShipWAL(t, dir)
	for i := 0; i < 50; i++ {
		if _, err := w.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	src, err := NewSource("127.0.0.1:0", SourceConfig{WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	addr := src.Addr()
	app := &memApplier{}
	fl, err := StartFollower(addr, FollowerConfig{Applier: app, RetryInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	waitFor(t, 5*time.Second, "catch-up", func() bool {
		_, applied, _ := app.snapshot()
		return applied == 50
	})
	src.Close()
	waitFor(t, 5*time.Second, "disconnect", func() bool { return !fl.Connected() })
	for i := 0; i < 25; i++ {
		if _, err := w.Append([]byte("y")); err != nil {
			t.Fatal(err)
		}
	}
	// Same address: the follower's retry loop picks the stream back up.
	src2, err := NewSource(addr, SourceConfig{WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	defer src2.Close()
	waitFor(t, 5*time.Second, "reconnect catch-up", func() bool {
		_, applied, _ := app.snapshot()
		return applied == 75
	})
}

func TestAcksFeedRetainFloor(t *testing.T) {
	w := openShipWAL(t, t.TempDir())
	for i := 0; i < 200; i++ {
		if _, err := w.Append([]byte("0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	src, err := NewSource("127.0.0.1:0", SourceConfig{WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	app := &memApplier{}
	fl, err := StartFollower(src.Addr(), FollowerConfig{Applier: app})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	waitFor(t, 5*time.Second, "catch-up", func() bool {
		_, applied, _ := app.snapshot()
		return applied == 200
	})
	waitFor(t, 5*time.Second, "floor advance", func() bool {
		src.mu.Lock()
		defer src.mu.Unlock()
		return src.floor == 201
	})
	// With the follower fully caught up, truncation may proceed.
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.TruncateBefore(201); err != nil {
		t.Fatal(err)
	}
}

func TestResumeTooOldIsFatal(t *testing.T) {
	w := openShipWAL(t, t.TempDir())
	for i := 0; i < 200; i++ {
		if _, err := w.Append([]byte("0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	// Truncate early history away with no follower attached.
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.TruncateBefore(150); err != nil {
		t.Fatal(err)
	}
	oldest, err := w.OldestSegment()
	if err != nil {
		t.Fatal(err)
	}
	if oldest <= 1 {
		t.Skip("truncation kept the first segment (tiny log); nothing to test")
	}
	src, err := NewSource("127.0.0.1:0", SourceConfig{WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	app := &memApplier{} // resume position 0: long gone
	fl, err := StartFollower(src.Addr(), FollowerConfig{Applier: app, RetryInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	waitFor(t, 5*time.Second, "fatal stop", func() bool {
		return errors.Is(fl.Err(), ErrResumeTooOld)
	})
}

func TestApplyFailureTearsStreamAndRetries(t *testing.T) {
	w := openShipWAL(t, t.TempDir())
	for i := 0; i < 30; i++ {
		if _, err := w.Append([]byte("z")); err != nil {
			t.Fatal(err)
		}
	}
	src, err := NewSource("127.0.0.1:0", SourceConfig{WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	app := &memApplier{failN: 2}
	fl, err := StartFollower(src.Addr(), FollowerConfig{Applier: app, RetryInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	// Despite two injected apply failures the stream converges: each
	// failure drops the connection, and the retry resumes from the last
	// durable position.
	waitFor(t, 5*time.Second, "convergence after failures", func() bool {
		_, applied, _ := app.snapshot()
		return applied == 30
	})
}

func TestOnlySyncedRecordsShip(t *testing.T) {
	// Sync effectively disabled: appends land in the OS page cache only.
	w, err := wal.Open(wal.Options{Dir: t.TempDir(), SyncBytes: 1 << 30, SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	for i := 0; i < 10; i++ {
		if _, err := w.Append([]byte("unsynced")); err != nil {
			t.Fatal(err)
		}
	}
	src, err := NewSource("127.0.0.1:0", SourceConfig{WAL: w, Heartbeat: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	app := &memApplier{}
	fl, err := StartFollower(src.Addr(), FollowerConfig{Applier: app, RetryInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	// Heartbeats flow (the stream is live) but nothing ships: a leader
	// crash could still retract these records, so followers must not see
	// them. Wait for a heartbeat to prove the stream is up, not racing.
	waitFor(t, 5*time.Second, "heartbeat", func() bool {
		app.mu.Lock()
		defer app.mu.Unlock()
		return !app.sentAt.IsZero()
	})
	time.Sleep(50 * time.Millisecond)
	if n, applied, _ := app.snapshot(); n != 0 || applied != 0 {
		t.Fatalf("unsynced records shipped: n=%d applied=%d", n, applied)
	}
	// The fsync publishes them.
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "post-sync ship", func() bool {
		_, applied, _ := app.snapshot()
		return applied == 10
	})
}

func TestFollowerAheadIsFatal(t *testing.T) {
	w := openShipWAL(t, t.TempDir())
	for i := 0; i < 5; i++ {
		if _, err := w.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	src, err := NewSource("127.0.0.1:0", SourceConfig{WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	// A follower claiming seq 50 against a 5-record leader has a log the
	// leader never wrote (e.g. the leader lost unsynced records in a
	// crash and renumbered). Resuming would silently skip 6..50.
	app := &memApplier{applied: 50}
	fl, err := StartFollower(src.Addr(), FollowerConfig{Applier: app, RetryInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	waitFor(t, 5*time.Second, "fatal divergence stop", func() bool {
		return errors.Is(fl.Err(), ErrFollowerAhead)
	})
}

func TestPortScannerDoesNotPinFloor(t *testing.T) {
	w := openShipWAL(t, t.TempDir())
	for i := 0; i < 50; i++ {
		if _, err := w.Append([]byte("0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	src, err := NewSource("127.0.0.1:0", SourceConfig{WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	// A raw TCP connect that never handshakes (health check, scanner).
	// It must not enter the ack floor with acked=0.
	raw, err := net.Dial("tcp", src.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	app := &memApplier{}
	fl, err := StartFollower(src.Addr(), FollowerConfig{Applier: app})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	waitFor(t, 5*time.Second, "catch-up", func() bool {
		_, applied, _ := app.snapshot()
		return applied == 50
	})
	waitFor(t, 5*time.Second, "floor advance past silent conn", func() bool {
		src.mu.Lock()
		defer src.mu.Unlock()
		return src.floor == 51
	})
}

// resetApplier is a memApplier that implements Resetter: a reset drops
// everything it applied and resumes just below the oldest record.
type resetApplier struct {
	*memApplier
	resets []uint64
}

func (r *resetApplier) Reset(oldest uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.resets = append(r.resets, oldest)
	r.recs, r.applied = nil, oldest-1
	return nil
}

// TestDivergedFollowerResetsAndStreams: an Applier that implements
// Resetter recovers from both kinds of divergence by itself — truncated
// past, and ahead of the leader's head — by resetting to the leader's
// oldest segment and streaming every record from there, counted in
// replica_reseeds_total.
func TestDivergedFollowerResetsAndStreams(t *testing.T) {
	for name, applied := range map[string]uint64{"truncated past": 0, "ahead of the head": 10_000} {
		t.Run(name, func(t *testing.T) {
			w := openShipWAL(t, t.TempDir())
			for i := 0; i < 200; i++ {
				if _, err := w.Append([]byte("0123456789abcdef")); err != nil {
					t.Fatal(err)
				}
			}
			first, err := w.Rotate()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				if _, err := w.Append([]byte("after the rotation")); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := w.TruncateBefore(first); err != nil {
				t.Fatal(err)
			}
			src, err := NewSource("127.0.0.1:0", SourceConfig{WAL: w})
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			app := &resetApplier{memApplier: &memApplier{applied: applied}}
			reg := metrics.NewRegistry()
			fl, err := StartFollower(src.Addr(), FollowerConfig{Applier: app, Metrics: reg, RetryInterval: 10 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer fl.Close()
			head := w.SyncedSeq()
			waitFor(t, 5*time.Second, "reset and catch-up", func() bool {
				_, got, _ := app.snapshot()
				return got == head
			})
			app.mu.Lock()
			defer app.mu.Unlock()
			if len(app.resets) != 1 || app.resets[0] != first {
				t.Fatalf("resets %v, want one to %d", app.resets, first)
			}
			if len(app.recs) != 20 || app.recs[0].Seq != first {
				t.Fatalf("streamed %d records from %d, want 20 from %d", len(app.recs), app.recs[0].Seq, first)
			}
			if got := reg.Counter("replica_reseeds_total", "").Value(); got != 1 {
				t.Fatalf("replica_reseeds_total = %d, want 1", got)
			}
			if fl.Err() != nil {
				t.Fatalf("follower stopped: %v", fl.Err())
			}
		})
	}
}

func TestSilentLeaderTearsStream(t *testing.T) {
	w := openShipWAL(t, t.TempDir())
	if _, err := w.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	// A leader that never heartbeats models a silent partition: bytes
	// stop, no FIN/RST ever arrives. The follower's read timeout must
	// tear the stream down and redial instead of blocking forever.
	src, err := NewSource("127.0.0.1:0", SourceConfig{WAL: w, Heartbeat: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	app := &memApplier{}
	fl, err := StartFollower(src.Addr(), FollowerConfig{
		Applier:       app,
		ReadTimeout:   50 * time.Millisecond,
		RetryInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	waitFor(t, 10*time.Second, "repeated timeout reconnects", func() bool {
		return fl.reconnects.Value() >= 3
	})
}

// TestDamagedRecordTearsSession: a record whose log CRC fails, inside a
// frame whose own CRC holds, tears the session down. Nothing at or past
// it is applied or acknowledged, and the follower redials from its last
// ack.
func TestDamagedRecordTearsSession(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	app := &memApplier{}
	fl, err := StartFollower(ln.Addr().String(), FollowerConfig{Applier: app, RetryInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	// attach accepts the follower's next session and returns it with the
	// position the follower resumes after.
	attach := func() (net.Conn, uint64) {
		t.Helper()
		conn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		resume, err := readHandshake(conn)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeHandshakeReply(conn, 1, 6); err != nil {
			t.Fatal(err)
		}
		return conn, resume
	}
	conn, resume := attach()
	defer conn.Close()
	if resume != 0 {
		t.Fatalf("first session resumes after %d, want 0", resume)
	}
	if _, err := conn.Write(recordsFrame(6, time.Now(), logRecord(1, "r1"), logRecord(2, "r2"), logRecord(3, "r3"))); err != nil {
		t.Fatal(err)
	}
	body, _, err := readFrame(conn, frameAck, nil)
	if err != nil || binary.LittleEndian.Uint64(body) != 3 {
		t.Fatalf("ack % x, err %v; want an ack of 3", body, err)
	}
	bad := logRecord(5, "r5")
	bad[len(bad)-1] ^= 1
	if _, err := conn.Write(recordsFrame(6, time.Now(), logRecord(4, "r4"), bad, logRecord(6, "r6"))); err != nil {
		t.Fatal(err)
	}
	// The follower hangs up without an ack.
	if rest, err := io.ReadAll(conn); len(rest) != 0 || err != nil {
		t.Fatalf("follower sent % x (err %v) after the damaged record, want a hang-up", rest, err)
	}
	if n, applied, _ := app.snapshot(); n != 3 || applied != 3 {
		t.Fatalf("applied %d records through %d after the damaged frame, want 3 through 3", n, applied)
	}
	conn2, resume := attach()
	defer conn2.Close()
	if resume != 3 {
		t.Fatalf("follower redialed resuming after %d, want its last ack 3", resume)
	}
}
