package replica

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"orfdisk/internal/frame"
)

// readFrames reads frames off stream until it fails and hands each to the
// decoder its type calls for, as the follower and the Source's ack reader
// do, reusing one buffer and one record scratch across frames.
func readFrames(stream []byte) {
	r := bytes.NewReader(stream)
	var (
		buf     []byte
		scratch []Record
	)
	for {
		typ, payload, nbuf, err := readFrame(r, buf)
		if err != nil {
			return
		}
		buf = nbuf
		switch typ {
		case frameRecords:
			_, _, recs, _ := decodeRecordsPayload(payload, scratch)
			scratch = recs[:0]
		case frameHeartbeat:
			takeStatus(payload) //nolint:errcheck
		case frameAck:
			decodeAckPayload(payload) //nolint:errcheck
		}
	}
}

// FuzzReadFrame: no byte stream makes readFrame, or the decoder for a
// frame's type, panic, and none buys an allocation its bytes do not back
// — a header may claim 64 MiB. framed puts data behind a valid header of
// type typ (its CRC computed, as the fuzzer cannot), so the decoders see
// mutated payloads; otherwise data is the stream itself. Types 4, 6 and
// 7 are protocol version 2's seed frames, which no decoder reads any
// more: their seeds stay so a stream holding them is still read safely.
func FuzzReadFrame(f *testing.F) {
	sent := time.Unix(1_700_000_000, 5)
	const seedFile, seedDone, seedChunkZ = 4, 6, 7
	name := "wal/00000000000000000001.wal"
	payloads := map[byte][]byte{
		frameRecords:   appendRecordsPayload(nil, 9, sent, []Record{{Seq: 8, Payload: []byte("eight")}, {Seq: 9}}),
		frameHeartbeat: appendStatus(nil, 9, sent),
		frameAck:       appendAckPayload(nil, 7),
		seedFile:       binary.LittleEndian.AppendUint64(append(binary.AppendUvarint(nil, uint64(len(name))), name...), 4096),
		seedChunkZ:     frame.AppendBlock(nil, bytes.Repeat([]byte("seed"), 64), frame.Flate),
		seedDone:       binary.LittleEndian.AppendUint64(nil, 9),
	}
	var stream bytes.Buffer
	for typ, p := range payloads {
		f.Add(p, typ, true)
		writeFrame(&stream, typ, p) //nolint:errcheck
	}
	f.Add(stream.Bytes(), uint8(0), false)
	// A header claiming the cap, and nothing after it; a seed chunk whose
	// intact block claims 64 MiB of raw bytes.
	claim := binary.LittleEndian.AppendUint32([]byte{frameRecords}, maxFramePayload)
	f.Add(binary.LittleEndian.AppendUint32(claim, 0), uint8(0), false)
	chunk := bytes.Clone(payloads[seedChunkZ])
	binary.LittleEndian.PutUint32(chunk, 64<<20)
	f.Add(chunk, uint8(seedChunkZ), true)
	f.Fuzz(func(t *testing.T, data []byte, typ uint8, framed bool) {
		input := data
		if framed {
			var b bytes.Buffer
			writeFrame(&b, typ, data) //nolint:errcheck
			input = b.Bytes()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		readFrames(input)
		runtime.ReadMemStats(&after)
		// readFrame grows its buffer by at most 64 KiB ahead of the bytes
		// that arrive; everything else is linear in the input.
		if got, limit := after.TotalAlloc-before.TotalAlloc, 256<<10+128*uint64(len(input)); got > limit {
			t.Fatalf("allocated %d bytes reading %d (limit %d)", got, len(input), limit)
		}
	})
}
