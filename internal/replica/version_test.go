package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"
)

// oldHandshake is a handshake or reply of protocol version v: magic, v,
// then the u64 fields.
func oldHandshake(magic string, v uint16, fields ...uint64) []byte {
	b := binary.LittleEndian.AppendUint16([]byte(magic), v)
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

// TestProtocolV1PeersRefused: versions 1 to 3 are retired on both
// sides. A leader refuses a v1, v2 or v3 streaming handshake, and a seed
// handshake ("ORFS", which v1 and v2 spoke), before it replies, ships a
// record or pins the retain floor; a follower refuses a v1, v2 or v3
// reply before it applies, acknowledges or reports anything the leader
// sends after it.
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
	src, err := NewSource("127.0.0.1:0", SourceConfig{WAL: w, Heartbeat: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for _, v := range []uint16{1, 2, 3} {
		for _, magic := range []string{magicHello, "ORFS"} {
			conn, err := net.Dial("tcp", src.Addr())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(oldHandshake(magic, v, 0)); err != nil {
				t.Fatal(err)
			}
			hangsUp(t, conn, fmt.Sprintf("leader after a v%d %s handshake", v, magic))
			conn.Close()
		}
	}
	src.mu.Lock()
	floor := src.floor
	src.mu.Unlock()
	if floor != 0 || src.met.frames.Value() != 0 || src.met.records.Value() != 0 {
		t.Errorf("refused sessions left floor %d, %d frames, %d records shipped",
			floor, src.met.frames.Value(), src.met.records.Value())
	}

	// A leader that answers an old version, then ships a record anyway.
	for _, v := range []uint16{1, 2, 3} {
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
		if _, err := conn.Write(oldHandshake(magicReply, v, 1, 20)); err != nil {
			t.Fatal(err)
		}
		// The follower may already have hung up; what it does with the
		// frame is the point, not whether the write lands.
		conn.Write(recordsFrame(20, time.Now(), logRecord(1, "r1")))
		hangsUp(t, conn, fmt.Sprintf("follower after a v%d reply", v))
		if n, applied, head := app.snapshot(); n != 0 || applied != 0 || head != 0 || fl.Connected() {
			t.Errorf("follower refused a v%d reply yet applied %d records through %d, saw head %d, connected %v",
				v, n, applied, head, fl.Connected())
		}
	}
}
