package replica

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// installSink is a SeedSink capturing the installed seed set; on
// commit it jumps the applier to the seed head so the follower's
// post-seed streaming reconnect is healthy (mirroring what the
// engine's recover() does after a real install).
type installSink struct {
	t    *testing.T
	app  *memApplier
	head uint64

	mu        sync.Mutex
	installed []byte
}

func (s *installSink) BeginSeed() (string, error) {
	dir, err := os.MkdirTemp("", "seed-staging-*")
	if err == nil {
		s.t.Cleanup(func() { os.RemoveAll(dir) })
	}
	return dir, err
}

func (s *installSink) CommitSeed(dir string) error {
	b, err := os.ReadFile(filepath.Join(dir, "snap-m.snap"))
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.installed = b
	s.mu.Unlock()
	s.app.mu.Lock()
	s.app.applied = s.head
	s.app.mu.Unlock()
	return nil
}

func (s *installSink) bytesInstalled() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.installed
}

// runSeedTransfer drives one full automatic re-seed: a follower whose
// position is ahead of the leader's durable head (diverged) connects,
// hits ErrFollowerAhead, downloads the seed set, installs it, and
// reconnects as a healthy streaming follower. Returns the leader
// source and installed payload for assertions.
func runSeedTransfer(t *testing.T, payload []byte) (*Source, *Follower, []byte) {
	t.Helper()
	w := openShipWAL(t, t.TempDir())
	for i := 0; i < 20; i++ {
		if _, err := w.Append([]byte("record-payload-bytes")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	head := w.SyncedSeq()

	seedPath := filepath.Join(t.TempDir(), "seed-src")
	if err := os.WriteFile(seedPath, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := NewSource("127.0.0.1:0", SourceConfig{
		WAL:          w,
		SeedProvider: seedStub{path: seedPath, head: head},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })

	app := &memApplier{applied: head + 1000} // diverged: ahead of the leader
	sink := &installSink{t: t, app: app, head: head}
	fl, err := StartFollower(src.Addr(), FollowerConfig{Applier: app, Seeder: sink})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fl.Close() })

	waitFor(t, 10*time.Second, "automatic re-seed", func() bool {
		return fl.reseeds.Value() == 1
	})
	waitFor(t, 10*time.Second, "post-seed streaming reconnect", func() bool {
		return fl.Connected()
	})
	return src, fl, sink.bytesInstalled()
}

// TestSeedChunkCompression: a re-seeding follower gets flate-compressed
// chunks — fewer wire bytes than raw — and the installed bytes are
// exactly the leader's.
func TestSeedChunkCompression(t *testing.T) {
	payload := bytes.Repeat([]byte("snap-model-bytes,smart_5_raw,smart_187_raw;"), 40_000)
	src, fl, installed := runSeedTransfer(t, payload)

	if !bytes.Equal(installed, payload) {
		t.Fatalf("installed %d bytes differ from the %d-byte seed", len(installed), len(payload))
	}
	seeds, wire, raw := src.SeedStats()
	if seeds != 1 {
		t.Fatalf("seeds served = %d", seeds)
	}
	if raw != uint64(len(payload)) {
		t.Fatalf("raw bytes %d, want %d", raw, len(payload))
	}
	if wire*2 > raw {
		t.Fatalf("wire bytes %d not <2x smaller than raw %d; compression missing", wire, raw)
	}
	if got := fl.reseedBytes.Value(); got != wire {
		t.Fatalf("follower wire bytes %d, leader sent %d", got, wire)
	}
	if got := fl.reseedRawBytes.Value(); got != raw {
		t.Fatalf("follower raw bytes %d, leader raw %d", got, raw)
	}
}

// noSeed is a SeedProvider no session may reach.
type noSeed struct{ t *testing.T }

func (p noSeed) Seed() ([]SeedFile, uint64, error) {
	p.t.Error("a refused session built a seed set")
	return nil, 0, errors.New("refused")
}

// v1Handshake is a protocol v1 handshake or reply: magic, version 1,
// then the u64 fields.
func v1Handshake(magic string, fields ...uint64) []byte {
	b := binary.LittleEndian.AppendUint16([]byte(magic), 1)
	for _, f := range fields {
		b = binary.LittleEndian.AppendUint64(b, f)
	}
	return b
}

// hangsUp requires the peer of c to close the connection without
// sending a byte.
func hangsUp(t *testing.T, c net.Conn, who string) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := io.ReadAll(c)
	var ne net.Error
	if len(got) != 0 || errors.As(err, &ne) && ne.Timeout() {
		t.Errorf("%s: read %d bytes (err %v), want a hang-up with none", who, len(got), err)
	}
}

// TestProtocolV1PeersRefused: version 1 is retired on both sides. A
// leader refuses a v1 streaming handshake and a v1 seed handshake before
// it replies, ships a record, builds a seed set or pins the retain
// floor; a follower refuses a v1 reply before it applies, acknowledges
// or reports anything the leader sends after it.
func TestProtocolV1PeersRefused(t *testing.T) {
	w := openShipWAL(t, t.TempDir())
	for i := 0; i < 20; i++ {
		if _, err := w.Append([]byte("record-payload-bytes")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	src, err := NewSource("127.0.0.1:0", SourceConfig{WAL: w, SeedProvider: noSeed{t}, Heartbeat: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for _, magic := range []string{magicHello, magicSeed} {
		conn, err := net.Dial("tcp", src.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(v1Handshake(magic, 0)); err != nil {
			t.Fatal(err)
		}
		hangsUp(t, conn, "leader after a v1 "+magic+" handshake")
		conn.Close()
	}
	src.mu.Lock()
	floor := src.floor
	src.mu.Unlock()
	if seeds, _, _ := src.SeedStats(); floor != 0 || seeds != 0 || src.met.frames.Value() != 0 || src.met.records.Value() != 0 {
		t.Errorf("refused sessions left floor %d, %d seeds, %d frames, %d records shipped",
			floor, seeds, src.met.frames.Value(), src.met.records.Value())
	}

	// A leader that answers v1, then ships a record anyway.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	app := &memApplier{}
	fl, err := StartFollower(ln.Addr().String(), FollowerConfig{Applier: app, RetryInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	hello := make([]byte, 4+2+8)
	if _, err := io.ReadFull(conn, hello); err != nil {
		t.Fatal(err)
	}
	if string(hello[:4]) != magicHello || binary.LittleEndian.Uint16(hello[4:]) != version {
		t.Fatalf("follower opened with % x, want a version %d streaming handshake", hello, version)
	}
	if _, err := conn.Write(v1Handshake(magicReply, 1, 20)); err != nil {
		t.Fatal(err)
	}
	// The follower may already have hung up; what it does with the frame
	// is the point, not whether the write lands.
	writeFrame(conn, frameRecords, appendRecordsPayload(nil, 20, time.Now(), []Record{{Seq: 1, Payload: []byte("r1")}}))
	hangsUp(t, conn, "follower after a v1 reply")
	if n, applied, head := app.snapshot(); n != 0 || applied != 0 || head != 0 || fl.Connected() {
		t.Errorf("follower refused a v1 reply yet applied %d records through %d, saw head %d, connected %v",
			n, applied, head, fl.Connected())
	}
}
