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
//	frame      (either direction): u8 type | u32 len | u32 CRC-32(payload) | payload
//
// Frame payloads:
//
//	records   (1, leader→follower): u64 head | i64 sentUnixNano |
//	                                uvarint n | n × (uvarint seq, uvarint len, bytes)
//	heartbeat (2, leader→follower): u64 head | i64 sentUnixNano
//	ack       (3, follower→leader): u64 lastApplied
//
// The u16 version field in both handshakes is 3, and each side refuses
// a peer that sends anything else before a frame moves. Version 2 added
// a seed session (the "ORFS" magic, frame types 4, 6 and 7) that shipped
// snapshot files beside the record stream; version 3 has none, because
// model state travels in the log itself as state records. A follower
// the leader has truncated past, or whose log has diverged, drops its
// own log and state (see Resetter) and streams from the leader's oldest
// record over an ordinary session.
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
// the leader resumes the stream at the next record after it. Every
// frame is CRC-verified; damage tears the connection down and the
// follower reconnects from its acknowledged position, so corruption
// costs a retry, never silent divergence.
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
	version = 3

	frameRecords   = 1
	frameHeartbeat = 2
	frameAck       = 3

	// maxFramePayload caps one frame: a records frame holding one record
	// of the log's largest size, with its status and record header, fits.
	// The Source ships a record that would take a frame past batchBytes
	// in a frame of its own.
	maxFramePayload = wal.MaxRecord + 1<<10

	frameHeaderSize = 1 + 4 + 4

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

// writeFrame frames one payload: type, length, CRC, body.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	var head [frameHeaderSize]byte
	head[0] = typ
	binary.LittleEndian.PutUint32(head[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(head[5:9], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(head[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame, verifying its CRC, reusing buf when large
// enough. The returned payload aliases the (possibly grown) buffer, which
// grows as bytes arrive: a peer pays for a claimed length by sending it.
func readFrame(r io.Reader, buf []byte) (typ byte, payload, newBuf []byte, err error) {
	var head [frameHeaderSize]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return 0, nil, buf, err
	}
	n := binary.LittleEndian.Uint32(head[1:5])
	crc := binary.LittleEndian.Uint32(head[5:9])
	if n > maxFramePayload {
		return 0, nil, buf, fmt.Errorf("replica: frame of %d bytes exceeds cap", n)
	}
	payload = buf[:0]
	for want := int(n); len(payload) < want; {
		payload = slices.Grow(payload, min(want-len(payload), max(len(payload), 64<<10)))
		got, err := io.ReadFull(r, payload[len(payload):min(want, cap(payload))])
		payload = payload[:len(payload)+got]
		if err != nil {
			return 0, nil, payload, err
		}
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return 0, nil, payload, errors.New("replica: frame CRC mismatch")
	}
	return head[0], payload, payload, nil
}

// appendStatus writes the head/sentAt prefix shared by records and
// heartbeat payloads.
func appendStatus(buf []byte, head uint64, sentAt time.Time) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, head)
	return binary.LittleEndian.AppendUint64(buf, uint64(sentAt.UnixNano()))
}

func takeStatus(p []byte) (head uint64, sentAt time.Time, rest []byte, err error) {
	if len(p) < 16 {
		return 0, time.Time{}, nil, errors.New("replica: truncated status prefix")
	}
	head = binary.LittleEndian.Uint64(p[:8])
	sentAt = time.Unix(0, int64(binary.LittleEndian.Uint64(p[8:16])))
	return head, sentAt, p[16:], nil
}

// appendRecordsPayload builds a records-frame payload.
func appendRecordsPayload(buf []byte, head uint64, sentAt time.Time, recs []Record) []byte {
	buf = appendStatus(buf, head, sentAt)
	buf = binary.AppendUvarint(buf, uint64(len(recs)))
	for _, r := range recs {
		buf = binary.AppendUvarint(buf, r.Seq)
		buf = binary.AppendUvarint(buf, uint64(len(r.Payload)))
		buf = append(buf, r.Payload...)
	}
	return buf
}

// decodeRecordsPayload parses a records-frame payload. The returned
// records alias p; callers consume them before reusing the read buffer.
func decodeRecordsPayload(p []byte, scratch []Record) (head uint64, sentAt time.Time, recs []Record, err error) {
	head, sentAt, p, err = takeStatus(p)
	if err != nil {
		return 0, time.Time{}, nil, err
	}
	n, sz := binary.Uvarint(p)
	if sz <= 0 {
		return 0, time.Time{}, nil, errors.New("replica: truncated record count")
	}
	p = p[sz:]
	if n > uint64(len(p)) { // every record needs at least one byte
		return 0, time.Time{}, nil, fmt.Errorf("replica: %d records in %d bytes", n, len(p))
	}
	recs = scratch[:0]
	for i := uint64(0); i < n; i++ {
		seq, sz := binary.Uvarint(p)
		if sz <= 0 {
			return 0, time.Time{}, nil, errors.New("replica: truncated record seq")
		}
		p = p[sz:]
		ln, sz := binary.Uvarint(p)
		if sz <= 0 || ln > uint64(len(p)-sz) {
			return 0, time.Time{}, nil, errors.New("replica: truncated record body")
		}
		recs = append(recs, Record{Seq: seq, Payload: p[sz : sz+int(ln)]})
		p = p[sz+int(ln):]
	}
	if len(p) != 0 {
		return 0, time.Time{}, nil, fmt.Errorf("replica: %d trailing bytes in records frame", len(p))
	}
	return head, sentAt, recs, nil
}

func appendAckPayload(buf []byte, lastApplied uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, lastApplied)
}

func decodeAckPayload(p []byte) (lastApplied uint64, err error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("replica: ack payload of %d bytes", len(p))
	}
	return binary.LittleEndian.Uint64(p), nil
}
