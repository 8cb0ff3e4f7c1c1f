// Package frame implements the length-prefixed, CRC-framed block codec
// used by every bulk model-bytes path: ORF2 snapshot tree blocks, and
// generic byte streams that want cheap per-frame corruption detection
// around stdlib flate.
//
// Block wire format (little endian):
//
//	u32 rawLen | u32 storedLen | u32 crc | stored bytes
//
// crc is the IEEE CRC-32 of the stored bytes. storedLen == rawLen marks
// a block stored uncompressed — the raw passthrough mode, also chosen
// per block whenever flate fails to shrink the payload — otherwise the
// stored bytes are a DEFLATE (BestSpeed) stream that must inflate to
// exactly rawLen bytes. A header whose rawLen field is 0xFFFFFFFF is
// the stream end marker (storedLen and crc must be zero).
//
// The stream form (Writer/Reader) prefixes blocks with a 5-byte header,
// magic "OFR1" plus a codec byte, and terminates with the end marker so
// truncation is distinguishable from a clean EOF. Corrupt or truncated
// input always surfaces as an error — never a panic, never silently
// wrong bytes.
package frame

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sync"
)

// Codec selects how block payloads are stored.
type Codec uint8

const (
	// Raw stores every payload uncompressed (passthrough mode; blocks
	// are still length-prefixed and CRC-checked).
	Raw Codec = 0
	// Flate compresses payloads with DEFLATE at BestSpeed, falling back
	// to raw storage per block when compression does not shrink it.
	Flate Codec = 1
)

func (c Codec) valid() bool { return c == Raw || c == Flate }

// String names the codec for logs and metrics labels.
func (c Codec) String() string {
	switch c {
	case Raw:
		return "raw"
	case Flate:
		return "flate"
	default:
		return fmt.Sprintf("codec(%d)", uint8(c))
	}
}

const (
	blockHeaderSize = 12
	endMark         = 0xFFFFFFFF

	// MaxBlockBytes bounds a single block's raw size, so a corrupt
	// length field cannot drive a multi-gigabyte allocation.
	MaxBlockBytes = 1 << 30

	// maxInflateRatio bounds how far a DEFLATE stream can expand: 258
	// bytes per length/distance pair of at least 2 bits, 1032:1 at most
	// (16 MiB of zeros at level 9 reach 1028:1). The header is not under
	// the CRC, so a flate block claiming more raw bytes than this many
	// times its stored bytes is corrupt, and inflate never allocates more
	// than this many times the input it was given.
	maxInflateRatio = 1032

	streamMagic = "OFR1"

	// defaultBlockBytes is the raw bytes buffered per stream-Writer
	// block: large enough to amortize the 12-byte header and give flate
	// a useful window, small enough to bound Reader memory.
	defaultBlockBytes = 256 << 10
)

// ErrCorrupt reports a structurally invalid, CRC-mismatched, or
// truncated frame. All decode failures wrap it.
var ErrCorrupt = errors.New("frame: corrupt block")

var flateWriters = sync.Pool{New: func() any {
	w, err := flate.NewWriter(io.Discard, flate.BestSpeed)
	if err != nil {
		panic(err) // BestSpeed is a valid level; cannot happen
	}
	return w
}}

var flateReaders = sync.Pool{New: func() any {
	return flate.NewReader(bytes.NewReader(nil))
}}

// appendSink adapts append-to-slice to io.Writer so flate can compress
// directly into the destination buffer without an intermediate copy.
type appendSink struct{ b []byte }

func (s *appendSink) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

// AppendBlock appends one framed block holding raw to dst and returns
// the extended slice. With Flate it stores the payload raw whenever
// compression does not shrink it, so encoded size never exceeds
// len(raw)+12. Panics if len(raw) exceeds MaxBlockBytes (a caller bug,
// not an input-data condition).
func AppendBlock(dst, raw []byte, c Codec) []byte {
	if len(raw) > MaxBlockBytes {
		panic(fmt.Sprintf("frame: %d-byte block exceeds MaxBlockBytes", len(raw)))
	}
	// Stored bytes never exceed raw ones: dst grows at most once.
	dst = slices.Grow(dst, blockHeaderSize+len(raw))
	start := len(dst)
	var hdr [blockHeaderSize]byte
	dst = append(dst, hdr[:]...)
	if c == Flate && len(raw) > 0 {
		sink := appendSink{b: dst}
		fw := flateWriters.Get().(*flate.Writer)
		fw.Reset(&sink)
		fw.Write(raw) // appendSink never errors
		fw.Close()
		flateWriters.Put(fw)
		if len(sink.b)-start-blockHeaderSize < len(raw) {
			dst = sink.b
		} else {
			// Incompressible: store raw instead.
			dst = append(sink.b[:start+blockHeaderSize], raw...)
		}
	} else {
		dst = append(dst, raw...)
	}
	stored := dst[start+blockHeaderSize:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(raw)))
	binary.LittleEndian.PutUint32(dst[start+4:], uint32(len(stored)))
	binary.LittleEndian.PutUint32(dst[start+8:], crc32.ChecksumIEEE(stored))
	return dst
}

// appendEndMarker appends the stream end marker.
func appendEndMarker(dst []byte) []byte {
	var hdr [blockHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[:], endMark)
	return append(dst, hdr[:]...)
}

// parseHeader validates a block header's structural invariants.
func parseHeader(hdr []byte) (rawLen, storedLen, crc uint32, err error) {
	rawLen = binary.LittleEndian.Uint32(hdr)
	storedLen = binary.LittleEndian.Uint32(hdr[4:])
	crc = binary.LittleEndian.Uint32(hdr[8:])
	if rawLen == endMark {
		if storedLen != 0 || crc != 0 {
			return 0, 0, 0, fmt.Errorf("%w: malformed end marker", ErrCorrupt)
		}
		return rawLen, 0, 0, nil
	}
	if rawLen > MaxBlockBytes {
		return 0, 0, 0, fmt.Errorf("%w: raw size %d exceeds limit", ErrCorrupt, rawLen)
	}
	if storedLen > rawLen {
		// The encoder stores raw whenever flate does not shrink the
		// payload, so stored size never exceeds raw size.
		return 0, 0, 0, fmt.Errorf("%w: stored size %d exceeds raw size %d", ErrCorrupt, storedLen, rawLen)
	}
	if storedLen < rawLen && uint64(rawLen) > maxInflateRatio*uint64(storedLen) {
		return 0, 0, 0, fmt.Errorf("%w: raw size %d is more than %d bytes of DEFLATE can hold", ErrCorrupt, rawLen, storedLen)
	}
	return rawLen, storedLen, crc, nil
}

// DecodeBlock decodes the block at the front of b, returning the raw
// payload and the remainder of b after the block. For blocks stored
// uncompressed the returned payload aliases b; callers that outlive b
// must copy. An end marker decodes as (nil, rest, io.EOF).
func DecodeBlock(b []byte) (raw, rest []byte, err error) {
	blk, rest, err := cut(b)
	if err != nil {
		return nil, rest, err
	}
	rawLen, storedLen, crc, _ := parseHeader(blk)
	stored := blk[blockHeaderSize:]
	if crc32.ChecksumIEEE(stored) != crc {
		return nil, rest, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	if storedLen == rawLen {
		return stored, rest, nil
	}
	raw, err = inflate(stored, rawLen)
	return raw, rest, err
}

// SplitBlock splits the framed block (header plus stored bytes,
// undecoded) at the front of b from the rest of b. It validates the
// header but leaves the CRC and decompression to DecodeBlock, so
// callers can fan blocks out to parallel decoders. The end marker is an
// error here: a counted block sequence never holds one.
func SplitBlock(b []byte) (blk, rest []byte, err error) {
	blk, rest, err = cut(b)
	if err == io.EOF {
		return nil, b, fmt.Errorf("%w: unexpected end marker", ErrCorrupt)
	}
	return blk, rest, err
}

// cut splits the block at the front of b, its header validated, from
// the rest of b. An end marker cuts as (nil, rest, io.EOF); on any
// other error rest is b.
func cut(b []byte) (blk, rest []byte, err error) {
	if len(b) < blockHeaderSize {
		return nil, b, fmt.Errorf("%w: %d-byte input shorter than block header", ErrCorrupt, len(b))
	}
	rawLen, storedLen, _, err := parseHeader(b)
	if err != nil {
		return nil, b, err
	}
	if rawLen == endMark {
		return nil, b[blockHeaderSize:], io.EOF
	}
	if uint32(len(b)-blockHeaderSize) < storedLen {
		return nil, b, fmt.Errorf("%w: truncated block (%d of %d stored bytes)", ErrCorrupt, len(b)-blockHeaderSize, storedLen)
	}
	n := blockHeaderSize + int(storedLen)
	return b[:n:n], b[n:], nil
}

// inflate decompresses a flate-stored payload and verifies it produces
// exactly rawLen bytes.
func inflate(stored []byte, rawLen uint32) ([]byte, error) {
	fr := flateReaders.Get().(io.ReadCloser)
	defer flateReaders.Put(fr)
	if err := fr.(flate.Resetter).Reset(bytes.NewReader(stored), nil); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	raw := make([]byte, rawLen)
	if _, err := io.ReadFull(fr, raw); err != nil {
		return nil, fmt.Errorf("%w: inflating block: %v", ErrCorrupt, err)
	}
	var one [1]byte
	if n, err := fr.Read(one[:]); n != 0 || err != io.EOF {
		return nil, fmt.Errorf("%w: block inflates past its declared size", ErrCorrupt)
	}
	return raw, nil
}

// Writer frames and (optionally) compresses a byte stream onto an
// underlying io.Writer. Bytes are buffered into fixed-size blocks;
// Close flushes the final partial block and writes the end marker. The
// underlying writer is not closed.
type Writer struct {
	w           io.Writer
	codec       Codec
	buf         []byte // raw bytes pending for the next block
	out         []byte // encoded-block scratch
	wroteHeader bool
	closed      bool
	err         error
}

// NewWriter returns a framing writer targeting w with the given codec.
func NewWriter(w io.Writer, c Codec) *Writer {
	if !c.valid() {
		panic(fmt.Sprintf("frame: invalid codec %d", c))
	}
	return &Writer{w: w, codec: c, buf: make([]byte, 0, defaultBlockBytes)}
}

func (w *Writer) header() error {
	if w.wroteHeader || w.err != nil {
		return w.err
	}
	w.wroteHeader = true
	var hdr [len(streamMagic) + 1]byte
	copy(hdr[:], streamMagic)
	hdr[len(streamMagic)] = byte(w.codec)
	if _, err := w.w.Write(hdr[:]); err != nil {
		w.err = err
	}
	return w.err
}

// Write buffers p, emitting full blocks as the buffer fills.
func (w *Writer) Write(p []byte) (int, error) {
	if w.closed {
		return 0, errors.New("frame: write after Close")
	}
	if err := w.header(); err != nil {
		return 0, err
	}
	total := len(p)
	for len(p) > 0 {
		room := defaultBlockBytes - len(w.buf)
		if room == 0 {
			if err := w.flushBlock(); err != nil {
				return total - len(p), err
			}
			room = defaultBlockBytes
		}
		n := len(p)
		if n > room {
			n = room
		}
		w.buf = append(w.buf, p[:n]...)
		p = p[n:]
	}
	return total, nil
}

func (w *Writer) flushBlock() error {
	if w.err != nil {
		return w.err
	}
	if len(w.buf) == 0 {
		return nil
	}
	w.out = AppendBlock(w.out[:0], w.buf, w.codec)
	w.buf = w.buf[:0]
	if _, err := w.w.Write(w.out); err != nil {
		w.err = err
	}
	return w.err
}

// Close flushes buffered bytes and writes the stream end marker. It
// does not close the underlying writer. Safe to call once.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if err := w.header(); err != nil {
		return err
	}
	if err := w.flushBlock(); err != nil {
		return err
	}
	w.out = appendEndMarker(w.out[:0])
	if _, err := w.w.Write(w.out); err != nil {
		w.err = err
	}
	return w.err
}

// Reader decodes a stream produced by Writer. Read returns io.EOF only
// after the stream's end marker; an input that ends without one yields
// an ErrCorrupt-wrapped error, so truncation is never mistaken for a
// clean end of stream.
type Reader struct {
	r     io.Reader
	codec Codec
	cur   []byte // undelivered bytes of the current block
	blk   []byte // the current block, header and stored bytes
	done  bool
	err   error
}

// NewReader validates the stream header and returns a framing reader.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [len(streamMagic) + 1]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: reading stream header: %v", ErrCorrupt, err)
	}
	if string(hdr[:len(streamMagic)]) != streamMagic {
		return nil, fmt.Errorf("%w: bad stream magic %q", ErrCorrupt, hdr[:len(streamMagic)])
	}
	c := Codec(hdr[len(streamMagic)])
	if !c.valid() {
		return nil, fmt.Errorf("%w: unknown codec %d", ErrCorrupt, c)
	}
	return &Reader{r: r, codec: c}, nil
}

// Codec reports the codec declared in the stream header.
func (r *Reader) Codec() Codec { return r.codec }

func (r *Reader) next() error {
	var hdr [blockHeaderSize]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		return fmt.Errorf("%w: stream truncated before end marker: %v", ErrCorrupt, err)
	}
	rawLen, _, _, err := parseHeader(hdr[:])
	if err != nil {
		return err
	}
	if rawLen == endMark {
		r.done = true
		return io.EOF
	}
	// Re-assemble the full framed block for DecodeBlock: cheap (one
	// buffered copy) and keeps a single verification path.
	storedLen := binary.LittleEndian.Uint32(hdr[4:])
	need := blockHeaderSize + int(storedLen)
	if cap(r.blk) < need {
		r.blk = make([]byte, need)
	}
	r.blk = r.blk[:need]
	copy(r.blk, hdr[:])
	if _, err := io.ReadFull(r.r, r.blk[blockHeaderSize:]); err != nil {
		return fmt.Errorf("%w: truncated block body: %v", ErrCorrupt, err)
	}
	raw, _, err := DecodeBlock(r.blk)
	if err != nil {
		return err
	}
	r.cur = raw
	return nil
}

// Read implements io.Reader over the decoded stream.
func (r *Reader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	for len(r.cur) == 0 {
		if r.done {
			return 0, io.EOF
		}
		if err := r.next(); err != nil {
			if err == io.EOF {
				return 0, io.EOF
			}
			r.err = err
			return 0, err
		}
	}
	n := copy(p, r.cur)
	r.cur = r.cur[n:]
	return n, nil
}
