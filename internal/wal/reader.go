package wal

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
)

// readBlock is how much of a segment one read brings in. Records are a
// couple of hundred bytes, so a block carries a few hundred of them for
// the one syscall that two reads per record used to cost.
const readBlock = 64 << 10

// ParseRecord parses the record at the front of b — the log's one
// record parser: Open, Replay and Cursor read segments through it, and a
// replication follower checks the records a frame carries with it. It
// returns the record's sequence number, its payload (aliasing b) and its
// length n, header included. n == 0 means the bytes are no record: a
// length past MaxRecord, or a CRC that does not match. n > len(b) means
// b holds only the start of one, and n is the fewest bytes that can
// tell; the payload is then nil.
func ParseRecord(b []byte) (seq uint64, payload []byte, n int) {
	if len(b) < HeaderSize {
		return 0, nil, HeaderSize
	}
	ln := binary.LittleEndian.Uint32(b[0:4])
	if ln > MaxRecord {
		return 0, nil, 0
	}
	if n = HeaderSize + int(ln); len(b) < n {
		return 0, nil, n
	}
	if crc32.ChecksumIEEE(b[8:n]) != binary.LittleEndian.Uint32(b[4:8]) {
		return 0, nil, 0
	}
	return binary.LittleEndian.Uint64(b[8:16]), b[HeaderSize:n], n
}

// recordReader reads records out of one segment file through a buffered
// block, parsing each with ParseRecord: crash recovery (scanSegment) and
// live tailing (Cursor) differ only in what they do with a record, never
// in what they accept as one.
//
// It reads with ReadAt at its own offset, so it takes no lock against
// the writer and may sit on a file that is still growing: bytes past the
// last whole record are never trusted beyond the call that saw them.
type recordReader struct {
	f     *os.File
	off   int64  // file offset of the next unparsed record
	buf   []byte // bytes read ahead from off, not yet parsed
	block []byte // backing array of buf, reused across segments
}

// reset points the reader at the start of f.
func (r *recordReader) reset(f *os.File) {
	r.f, r.off, r.buf = f, 0, r.buf[:0]
}

// next returns the record at the reader's offset — its log bytes,
// header and payload — and steps past it. The record aliases the block
// and is valid until the following call. ok=false means the bytes there
// do not (yet) form a complete record with a matching CRC — the
// torn-tail condition; the offset stays put and the read-ahead is
// dropped, so a retry sees the file afresh. Only real I/O failures are
// errors.
func (r *recordReader) next() (seq uint64, rec []byte, ok bool, err error) {
	for {
		seq, _, n := ParseRecord(r.buf)
		if n == 0 {
			break
		}
		if n <= len(r.buf) {
			rec, r.buf = r.buf[:n], r.buf[n:]
			r.off += int64(n)
			return seq, rec, true, nil
		}
		eof, err := r.fill(n)
		if err != nil {
			return 0, nil, false, err
		}
		if eof && len(r.buf) < n {
			break // the file ends inside this record
		}
	}
	r.buf = r.buf[:0]
	return 0, nil, false, nil
}

// fill moves the unparsed bytes to the front of the block and reads on
// from where they end, as far as the block reaches; eof reports that the
// file ended first. A record longer than the block grows it as its bytes
// arrive, to at most twice what is buffered per call, so a length field
// claiming up to MaxRecord costs memory in proportion to the bytes the
// file actually holds, not to the claim. A block grown for a large record
// goes back to readBlock once what is buffered fits in one, so a tailing
// Cursor does not keep a state record's worth of memory for good.
func (r *recordReader) fill(need int) (eof bool, err error) {
	size := max(readBlock, min(need, 2*len(r.buf)))
	if cap(r.block) < size || cap(r.block) > readBlock && size == readBlock && len(r.buf) <= readBlock {
		block := make([]byte, size)
		r.buf, r.block = block[:copy(block, r.buf)], block
	}
	have := copy(r.block[:cap(r.block)], r.buf)
	n, err := r.f.ReadAt(r.block[have:cap(r.block)], r.off+int64(have))
	r.buf = r.block[:have+n]
	if err == io.EOF {
		return true, nil
	}
	return false, err
}
