package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// testPayloads covers the interesting block shapes: empty, tiny,
// highly compressible, incompressible, and multi-block sized.
func testPayloads(t testing.TB) [][]byte {
	rnd := rand.New(rand.NewSource(42))
	incompressible := make([]byte, 3*defaultBlockBytes+977)
	rnd.Read(incompressible)
	compressible := bytes.Repeat([]byte("backblaze-smart-fleet-"), 64<<10)
	return [][]byte{
		{},
		[]byte("x"),
		[]byte("hello, frame"),
		compressible,
		incompressible,
		bytes.Repeat([]byte{0}, defaultBlockBytes), // exactly one block
	}
}

func TestBlockRoundTrip(t *testing.T) {
	for _, c := range []Codec{Raw, Flate} {
		for i, raw := range testPayloads(t) {
			enc := AppendBlock(nil, raw, c)
			got, rest, err := DecodeBlock(enc)
			if err != nil {
				t.Fatalf("codec %v payload %d: %v", c, i, err)
			}
			if len(rest) != 0 {
				t.Fatalf("codec %v payload %d: %d trailing bytes", c, i, len(rest))
			}
			if !bytes.Equal(got, raw) {
				t.Fatalf("codec %v payload %d: round trip mismatch", c, i)
			}
			if c == Raw && len(enc) != blockHeaderSize+len(raw) {
				t.Fatalf("raw codec stored %d bytes for %d raw", len(enc), len(raw))
			}
			if len(enc) > blockHeaderSize+len(raw) {
				t.Fatalf("codec %v payload %d: encoding expanded %d -> %d", c, i, len(raw), len(enc))
			}
		}
	}
}

func TestBlockFlateShrinksCompressible(t *testing.T) {
	raw := bytes.Repeat([]byte("disk-serial-ZA123456,"), 10000)
	enc := AppendBlock(nil, raw, Flate)
	if len(enc) >= len(raw)/2 {
		t.Fatalf("flate block %d bytes for %d raw; want at least 2x shrink", len(enc), len(raw))
	}
}

func TestBlockSequence(t *testing.T) {
	payloads := testPayloads(t)
	var enc []byte
	for _, raw := range payloads {
		enc = AppendBlock(enc, raw, Flate)
	}
	rest := enc
	for i, want := range payloads {
		var got []byte
		var err error
		got, rest, err = DecodeBlock(rest)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d: mismatch", i)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
}

// TestSplitBlock: a block sequence splits into its blocks in order, each
// decoding to its payload; the input's end, or an end marker, in the
// middle of a counted sequence is an error.
func TestSplitBlock(t *testing.T) {
	payloads := testPayloads(t)
	var enc []byte
	for _, raw := range payloads {
		enc = AppendBlock(enc, raw, Flate)
	}
	rest := enc
	for i, want := range payloads {
		var blk []byte
		var err error
		if blk, rest, err = SplitBlock(rest); err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		got, tail, err := DecodeBlock(blk)
		if err != nil {
			t.Fatalf("block %d decode: %v", i, err)
		}
		if len(tail) != 0 || !bytes.Equal(got, want) {
			t.Fatalf("block %d: mismatch", i)
		}
	}
	if _, _, err := SplitBlock(rest); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("end of input mid-sequence: got %v, want ErrCorrupt", err)
	}
	if _, _, err := SplitBlock(appendEndMarker(nil)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("end marker mid-sequence: got %v, want ErrCorrupt", err)
	}
}

// TestBlockCorruption flips every byte of an encoded block sequence and
// requires each flip to either error or (for bytes the CRC cannot see —
// there are none in this format) decode identically.
func TestBlockCorruption(t *testing.T) {
	raw := bytes.Repeat([]byte("smart_9_raw,smart_187_raw,"), 512)
	for _, c := range []Codec{Raw, Flate} {
		enc := AppendBlock(nil, raw, c)
		for i := range enc {
			mut := append([]byte(nil), enc...)
			mut[i] ^= 0x41
			got, _, err := DecodeBlock(mut)
			if err == nil && !bytes.Equal(got, raw) {
				t.Fatalf("codec %v: flip at %d returned wrong bytes without error", c, i)
			}
			if err == nil {
				t.Fatalf("codec %v: flip at %d undetected", c, i)
			}
		}
	}
}

// TestInflateBoundedByStoredSize: the header's raw size is not under the
// CRC, so a valid small flate block whose header claims 1 GiB must fail
// before the decoder allocates anything near that — a few MB at most,
// what its stored bytes could inflate to — while the most compressible
// block the encoder writes still decodes.
func TestInflateBoundedByStoredSize(t *testing.T) {
	zeros := make([]byte, 4<<20)
	enc := AppendBlock(nil, zeros, Flate)
	if got, _, err := DecodeBlock(enc); err != nil || !bytes.Equal(got, zeros) {
		t.Fatalf("%d zero bytes stored in %d: %v", len(zeros), len(enc)-blockHeaderSize, err)
	}
	small := AppendBlock(nil, bytes.Repeat([]byte("smart_5_raw,"), 200), Flate)
	binary.LittleEndian.PutUint32(small, MaxBlockBytes)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := DecodeBlock(small)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a %d-byte flate block claiming %d raw bytes: %v, want ErrCorrupt", len(small), MaxBlockBytes, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Fatalf("rejecting it allocated %d bytes", got)
	}
	if _, _, err := SplitBlock(small); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("SplitBlock of the same block: %v, want ErrCorrupt", err)
	}
}

func TestBlockTruncation(t *testing.T) {
	enc := AppendBlock(nil, bytes.Repeat([]byte("abc"), 2048), Flate)
	for n := 0; n < len(enc); n++ {
		if _, _, err := DecodeBlock(enc[:n]); err == nil {
			t.Fatalf("truncation at %d undetected", n)
		}
		if _, _, err := SplitBlock(enc[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("SplitBlock truncation at %d: %v", n, err)
		}
	}
}

func TestStreamRoundTrip(t *testing.T) {
	for _, c := range []Codec{Raw, Flate} {
		for i, raw := range testPayloads(t) {
			var buf bytes.Buffer
			w := NewWriter(&buf, c)
			// Write in awkward chunk sizes to exercise buffering.
			for off := 0; off < len(raw); {
				n := 1 + (off*7)%8191
				if off+n > len(raw) {
					n = len(raw) - off
				}
				if _, err := w.Write(raw[off : off+n]); err != nil {
					t.Fatal(err)
				}
				off += n
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := NewReader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if r.Codec() != c {
				t.Fatalf("codec %v round-tripped as %v", c, r.Codec())
			}
			got, err := io.ReadAll(r)
			if err != nil {
				t.Fatalf("codec %v payload %d: %v", c, i, err)
			}
			if !bytes.Equal(got, raw) {
				t.Fatalf("codec %v payload %d: stream mismatch", c, i)
			}
		}
	}
}

func TestStreamDeterministic(t *testing.T) {
	raw := bytes.Repeat([]byte("deterministic-flate-output?"), 40000)
	encode := func() []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf, Flate)
		w.Write(raw)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(encode(), encode()) {
		t.Fatal("identical input produced different encodings")
	}
}

func TestStreamTruncationDetected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Flate)
	w.Write(bytes.Repeat([]byte("tail"), 1000))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	// Every proper prefix must fail — header too short, body truncated,
	// or missing end marker — never read as a clean (possibly shorter)
	// stream.
	for n := 0; n < len(enc); n++ {
		r, err := NewReader(bytes.NewReader(enc[:n]))
		if err != nil {
			continue
		}
		if _, err := io.ReadAll(r); err == nil {
			t.Fatalf("prefix of %d/%d bytes read cleanly", n, len(enc))
		}
	}
}

func TestStreamBadHeader(t *testing.T) {
	cases := []string{"", "OFR", "XXXXX", "OFR1\x07"}
	for _, in := range cases {
		if _, err := NewReader(strings.NewReader(in)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("header %q: got %v, want ErrCorrupt", in, err)
		}
	}
}

func TestWriteAfterClose(t *testing.T) {
	w := NewWriter(io.Discard, Raw)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("late")); err == nil {
		t.Fatal("write after Close succeeded")
	}
}
