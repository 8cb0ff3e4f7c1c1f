package replica

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"
	"time"

	"orfdisk/internal/wal"
)

// logRecord returns a record's log bytes, as a segment holds them and a
// records frame carries them.
func logRecord(seq uint64, payload string) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, 0)
	b = append(binary.LittleEndian.AppendUint64(b, seq), payload...)
	binary.LittleEndian.PutUint32(b[4:8], crc32.ChecksumIEEE(b[8:]))
	return b
}

// recordsFrame builds a records frame carrying recs, each a record's log
// bytes.
func recordsFrame(head uint64, sentAt time.Time, recs ...[]byte) []byte {
	frame := make([]byte, recordsPrefix)
	for _, r := range recs {
		frame = append(frame, r...)
	}
	return sealRecords(frame, head, sentAt)
}

// readFrames reads frames of type want off stream until one fails, and
// decodes each records frame as the follower does, reusing one buffer
// and one record slice across frames.
func readFrames(stream []byte, want byte) {
	r := bytes.NewReader(stream)
	var (
		buf  []byte
		recs []Record
	)
	for {
		body, nbuf, err := readFrame(r, want, buf)
		if err != nil {
			return
		}
		buf = nbuf
		if want == frameRecords {
			_, _, recs, _ = decodeRecords(body, recs[:0])
		}
	}
}

// FuzzReadFrame: no byte stream makes readFrame, or the records decoder,
// panic, and none buys an allocation its bytes do not back — a header
// may claim 64 MiB. framed puts data behind a valid header of type typ
// (the CRC of its fixed fields computed, as the fuzzer cannot), so the
// decoder sees mutated records; otherwise data is the stream itself.
// Each input is read once as the follower reads it and once as the
// Source's ack reader does.
func FuzzReadFrame(f *testing.F) {
	sent := time.Unix(1_700_000_000, 5)
	eight, nine := logRecord(8, "eight"), logRecord(9, "")
	damaged := bytes.Clone(eight)
	damaged[len(damaged)-1] ^= 1
	frames := [][]byte{
		recordsFrame(9, sent, eight, nine),
		recordsFrame(9, sent), // the heartbeat
		recordsFrame(9, sent, damaged, nine),
		recordsFrame(9, sent, eight, logRecord(9, "nine")[:wal.HeaderSize+2]),
		recordsFrame(9, sent, nine, eight),
		appendAck(nil, 7),
	}
	var stream []byte
	for _, fr := range frames {
		f.Add(fr[frameHeaderSize:], fr[0], true)
		stream = append(stream, fr...)
	}
	f.Add(stream, uint8(0), false)
	// A header claiming the cap, and nothing after it; a version 3
	// heartbeat, a frame type no reader takes any more.
	claim := binary.LittleEndian.AppendUint32([]byte{frameRecords}, maxFramePayload)
	f.Add(binary.LittleEndian.AppendUint32(claim, 0), uint8(0), false)
	f.Add(sealFrame(make([]byte, recordsPrefix), 2, statusSize), uint8(0), false)
	f.Fuzz(func(t *testing.T, data []byte, typ uint8, framed bool) {
		input := data
		if fixed := map[byte]int{frameRecords: statusSize, frameAck: ackSize}[typ]; framed && fixed > 0 && len(data) >= fixed {
			input = sealFrame(append(make([]byte, frameHeaderSize), data...), typ, fixed)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		readFrames(input, frameRecords)
		readFrames(input, frameAck)
		runtime.ReadMemStats(&after)
		// readFrame grows its buffer by at most 64 KiB ahead of the bytes
		// that arrive; everything else is linear in the input.
		if got, limit := after.TotalAlloc-before.TotalAlloc, 256<<10+128*uint64(len(input)); got > limit {
			t.Fatalf("allocated %d bytes reading %d (limit %d)", got, len(input), limit)
		}
	})
}
