// Package replica implements WAL-shipping replication: a leader-side
// Source that tails the write-ahead log and streams committed records
// to follower replicas over a length-prefixed TCP protocol, and a
// follower-side client that applies the stream through an Applier and
// acknowledges its durable position.
//
// Wire protocol (all integers little endian):
//
//	handshake  (follower→leader):  "ORFR" | u16 version | u64 resumeAfter
//	handshake  (leader→follower):  "ORFA" | u16 version | u64 oldestSegment | u64 head
//	records    (1, leader→follower): u8 1 | u32 len | u32 crc | u64 head | i64 sentUnixNano | records
//	ack        (3, follower→leader): u8 3 | u32 len | u32 crc | u64 lastApplied
//
// len counts every byte after the crc field; crc is the CRC-32 (IEEE)
// of the frame's own fixed fields — head and sentUnixNano, or
// lastApplied — and of nothing else. The records are the leader's log
// records byte for byte, as its segment holds them (u32 len | u32 CRC-32
// of seq+payload | u64 seq | payload, see package wal), in strictly
// ascending sequence order; each is checked by its own log CRC, with the
// parser the log reads its segments with (wal.ParseRecord). A records
// frame with no records is the heartbeat.
//
// The u16 version field in both handshakes is 4, and each side refuses
// a peer that sends anything else before a frame moves: version 3
// framed each record a second time, and versions 1 and 2 had a seed
// session beside the record stream. Model state travels in the log
// itself as state records. A follower the leader has truncated past, or
// whose log has diverged, drops its own log and state (see Resetter) and
// streams from the leader's oldest record over an ordinary session.
//
// head is the leader's newest *fsync-durable* sequence number at send
// time (wal.SyncedSeq, not the in-memory tail); together with the
// follower's applied position it defines replication lag. The source
// never ships a record beyond head: a record that only exists in the
// leader's page cache could be retracted by a power failure, and the
// restarted leader would reuse its sequence number for a different
// record — undetectable divergence on any follower that applied the
// original. Shipping only durable records makes a follower ahead of the
// leader's head impossible in a healthy pair, so both sides treat
// resumeAfter > head at handshake as proof of divergence
// (ErrFollowerAhead) rather than silently skipping records.
//
// resumeAfter is the follower's last durably applied sequence number:
// the leader resumes the stream at the next record after it. A frame
// whose own CRC fails, or that carries a damaged, cut-off or
// non-ascending record, tears the connection down before any of its
// records is applied, and the follower reconnects from its acknowledged
// position, so corruption costs a retry, never silent divergence.
package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"time"

	"orfdisk/internal/wal"
)

const (
	magicHello = "ORFR"
	magicReply = "ORFA"
	// version is the only protocol this build speaks or accepts.
	version = 4

	frameRecords = 1
	frameAck     = 3

	frameHeaderSize = 1 + 4 + 4
	// statusSize and ackSize are the fixed fields of a records frame
	// (head, sentAt) and of an ack (lastApplied): all its CRC covers.
	statusSize = 16
	ackSize    = 8
	// recordsPrefix is where a records frame's first record starts.
	recordsPrefix = frameHeaderSize + statusSize

	// maxFramePayload caps what follows a frame's header: a records
	// frame holding one record of the log's largest size fits. The
	// Source ships a record that would take a frame past batchBytes in
	// a frame of its own.
	maxFramePayload = wal.MaxRecord + 1<<10

	// retainBytes bounds the frame buffers a session keeps between
	// frames. Catch-up frames, and the state records a new follower's
	// stream starts with, are larger; their buffers are let go once the
	// frame is sent or applied, so a session holds no more than a steady
	// stream of small frames needs.
	retainBytes = 256 << 10
)

// Record is one replicated WAL record: the leader's sequence number and
// the opaque payload exactly as the leader logged it.
type Record struct {
	Seq     uint64
	Payload []byte
}

// ErrResumeTooOld reports that the leader has truncated past the
// follower's resume position: the follower can no longer catch up from
// where it is, and must drop its state and stream from the leader's
// oldest record.
var ErrResumeTooOld = errors.New("replica: leader truncated past resume position; follower must reset")

// ErrFollowerAhead reports that the follower's durable position is past
// the leader's durable head. The leader never ships unsynced records,
// so this cannot happen in a healthy pair: it means the logs diverged —
// typically a leader that crashed, lost its unsynced tail, restarted,
// and rewrote those sequence numbers with different records, or a
// follower pointed at the wrong leader. Resuming would silently skip
// records, so the follower must drop its state and stream from the
// leader's oldest record.
var ErrFollowerAhead = errors.New("replica: follower is ahead of the leader's durable head; logs have diverged — follower must reset")

// writeHandshake opens a session. resumeAfter is the follower's durable
// position.
func writeHandshake(w io.Writer, resumeAfter uint64) error {
	var buf [4 + 2 + 8]byte
	copy(buf[:4], magicHello)
	binary.LittleEndian.PutUint16(buf[4:6], version)
	binary.LittleEndian.PutUint64(buf[6:14], resumeAfter)
	_, err := w.Write(buf[:])
	return err
}

func checkVersion(v uint16) error {
	if v != version {
		return fmt.Errorf("replica: peer speaks protocol version %d, this build only %d; "+
			"upgrade the group one release at a time", v, version)
	}
	return nil
}

func readHandshake(r io.Reader) (resumeAfter uint64, err error) {
	var buf [4 + 2 + 8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	if string(buf[:4]) != magicHello {
		return 0, fmt.Errorf("replica: bad handshake magic %q", buf[:4])
	}
	if err := checkVersion(binary.LittleEndian.Uint16(buf[4:6])); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[6:14]), nil
}

func writeHandshakeReply(w io.Writer, oldestSegment, head uint64) error {
	var buf [4 + 2 + 8 + 8]byte
	copy(buf[:4], magicReply)
	binary.LittleEndian.PutUint16(buf[4:6], version)
	binary.LittleEndian.PutUint64(buf[6:14], oldestSegment)
	binary.LittleEndian.PutUint64(buf[14:22], head)
	_, err := w.Write(buf[:])
	return err
}

func readHandshakeReply(r io.Reader) (oldestSegment, head uint64, err error) {
	var buf [4 + 2 + 8 + 8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, 0, err
	}
	if string(buf[:4]) != magicReply {
		return 0, 0, fmt.Errorf("replica: bad handshake reply magic %q", buf[:4])
	}
	if err := checkVersion(binary.LittleEndian.Uint16(buf[4:6])); err != nil {
		return 0, 0, err
	}
	return binary.LittleEndian.Uint64(buf[6:14]), binary.LittleEndian.Uint64(buf[14:22]), nil
}

// sealFrame fills in frame's header, the frameHeaderSize bytes left for
// it at the front: its type, its length, and the CRC of its fixed
// fields, the fixed bytes that follow the header.
func sealFrame(frame []byte, typ byte, fixed int) []byte {
	frame[0] = typ
	binary.LittleEndian.PutUint32(frame[1:5], uint32(len(frame)-frameHeaderSize))
	binary.LittleEndian.PutUint32(frame[5:9], crc32.ChecksumIEEE(frame[frameHeaderSize:frameHeaderSize+fixed]))
	return frame
}

// sealRecords completes a records frame: frame holds recordsPrefix bytes
// of room, then the records it carries, as the log holds them.
func sealRecords(frame []byte, head uint64, sentAt time.Time) []byte {
	binary.LittleEndian.PutUint64(frame[frameHeaderSize:], head)
	binary.LittleEndian.PutUint64(frame[frameHeaderSize+8:], uint64(sentAt.UnixNano()))
	return sealFrame(frame, frameRecords, statusSize)
}

// appendAck builds an ack frame in buf.
func appendAck(buf []byte, lastApplied uint64) []byte {
	buf = append(buf[:0], make([]byte, frameHeaderSize)...)
	return sealFrame(binary.LittleEndian.AppendUint64(buf, lastApplied), frameAck, ackSize)
}

// readFrame reads one frame of type want and checks its CRC, reusing buf
// when large enough. It returns what follows the header, fixed fields
// first; that aliases the (possibly grown) buffer, which grows as bytes
// arrive: a peer pays for a claimed length by sending it.
func readFrame(r io.Reader, want byte, buf []byte) (body, newBuf []byte, err error) {
	var head [frameHeaderSize]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, buf, err
	}
	fixed := statusSize
	if want == frameAck {
		fixed = ackSize
	}
	n := binary.LittleEndian.Uint32(head[1:5])
	switch {
	case head[0] != want:
		return nil, buf, fmt.Errorf("replica: frame of type %d, want %d", head[0], want)
	case n < uint32(fixed) || n > maxFramePayload || want == frameAck && n != ackSize:
		return nil, buf, fmt.Errorf("replica: frame of type %d with %d bytes", want, n)
	}
	body = buf[:0]
	for len(body) < int(n) {
		body = slices.Grow(body, min(int(n)-len(body), max(len(body), 64<<10)))
		got, err := io.ReadFull(r, body[len(body):min(int(n), cap(body))])
		body = body[:len(body)+got]
		if err != nil {
			return nil, body, err
		}
	}
	if crc32.ChecksumIEEE(body[:fixed]) != binary.LittleEndian.Uint32(head[5:9]) {
		return nil, body, errors.New("replica: frame CRC mismatch")
	}
	return body, body, nil
}

// decodeRecords parses a records frame's body into recs, checking each
// record as the log checks its own: a damaged, cut-off or non-ascending
// record fails the whole frame. The records alias body; callers consume
// them before reusing the read buffer.
func decodeRecords(body []byte, recs []Record) (head uint64, sentAt time.Time, _ []Record, err error) {
	head = binary.LittleEndian.Uint64(body[:8])
	sentAt = time.Unix(0, int64(binary.LittleEndian.Uint64(body[8:statusSize])))
	for p := body[statusSize:]; len(p) > 0; {
		seq, payload, n := wal.ParseRecord(p)
		if n == 0 || n > len(p) {
			return 0, time.Time{}, nil, fmt.Errorf("replica: damaged or cut-off record %d in a frame", len(recs))
		}
		if len(recs) > 0 && seq <= recs[len(recs)-1].Seq {
			return 0, time.Time{}, nil, fmt.Errorf("replica: record %d after %d in a frame", seq, recs[len(recs)-1].Seq)
		}
		recs = append(recs, Record{Seq: seq, Payload: payload})
		p = p[n:]
	}
	return head, sentAt, recs, nil
}
