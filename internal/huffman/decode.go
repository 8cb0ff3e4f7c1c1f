package huffman

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// ErrCorrupt reports a stream Decode refuses. Every Decode error wraps it.
var ErrCorrupt = errors.New("huffman: corrupt stream")

// Decode appends to dst the n bytes stream holds, as Append writes
// them, and returns the extended slice: a stream that ends short of n
// bytes, or goes on past them, is corrupt. It reads only what Append
// writes — one final dynamic block of 257 literal/length codes and one
// unused distance code, its literal codes complete and at most 11 bits —
// and nothing after its last byte, and it refuses any other stream, so
// a stream it accepts inflates to the same bytes through any inflater.
// An n past 8 bytes a stream byte is refused before dst grows, as a
// literal takes at least a bit; with room in dst, Decode allocates
// nothing.
func Decode(dst, stream []byte, n int) ([]byte, error) {
	if n < 0 || uint64(n) > 8*uint64(len(stream)) {
		return dst, fmt.Errorf("%w: %d bytes from a %d-byte literal stream", ErrCorrupt, n, len(stream))
	}
	out := slices.Grow(dst, n)[:len(dst)+n]
	if err := decode(out[len(dst):], stream); err != nil {
		return dst, err
	}
	return out, nil
}

// decode fills raw from stream, as Decode describes.
func decode(raw, stream []byte) error {
	r := bitReader{b: stream}
	if hdr := r.bits(13); hdr != 1|2<<1 || r.err {
		return fmt.Errorf("%w: not a final dynamic block of 257 literal codes and one distance code", ErrCorrupt)
	}
	var clLens [numCL]uint8
	hclen := 4 + int(r.bits(4))
	for _, s := range clOrder[:hclen] {
		clLens[s] = uint8(r.bits(3))
	}
	var clTable [1 << maxCLLen]uint16
	if !buildTable(clTable[:], clLens[:], maxCLLen) {
		return fmt.Errorf("%w: bad code-length code", ErrCorrupt)
	}
	var lens [numLit + 1]uint8 // the last is the distance code's
	for i := 0; i < len(lens); {
		sym := r.decode(clTable[:], maxCLLen)
		var l uint8
		var rep int
		switch {
		case sym < 16:
			lens[i] = uint8(sym)
			i++
			continue
		case sym == 16 && i > 0:
			l, rep = lens[i-1], 3+int(r.bits(2))
		case sym == 17:
			rep = 3 + int(r.bits(3))
		case sym == 18:
			rep = 11 + int(r.bits(7))
		default:
			return fmt.Errorf("%w: bad code length code %d at length %d", ErrCorrupt, sym, i)
		}
		if i+rep > len(lens) {
			return fmt.Errorf("%w: code lengths repeat past the last", ErrCorrupt)
		}
		for ; rep > 0; rep-- {
			lens[i] = l
			i++
		}
	}
	if r.err || lens[numLit] != 0 || lens[endBlock] == 0 {
		return fmt.Errorf("%w: bad literal or distance code lengths", ErrCorrupt)
	}
	var table [1 << maxLitLen]uint16
	if !buildTable(table[:], lens[:numLit], maxLitLen) {
		return fmt.Errorf("%w: bad literal code", ErrCorrupt)
	}
	// The literals, through locals the compiler keeps in registers: each
	// refill from the middle of the stream leaves at least 56 bits, five
	// codes' worth.
	acc, n, next := r.acc, r.n, r.i
	i := 0
	for ; i < len(raw) && next+8 <= len(stream); i++ {
		if n < maxLitLen {
			acc |= binary.LittleEndian.Uint64(stream[next:]) << n
			next += int(63-n) / 8
			n |= 56
		}
		e := table[acc&(1<<maxLitLen-1)]
		l := uint(e & 15)
		if l == 0 || e>>4 == endBlock {
			break
		}
		acc >>= l
		n -= l
		raw[i] = byte(e >> 4)
	}
	r.acc, r.n, r.i = acc, n, next
	for ; i <= len(raw); i++ {
		sym := r.decode(table[:], maxLitLen)
		switch {
		case r.err:
			return fmt.Errorf("%w: stream cut short after %d of %d bytes", ErrCorrupt, i, len(raw))
		case i == len(raw) && sym != endBlock:
			return fmt.Errorf("%w: stream inflates past its %d bytes", ErrCorrupt, len(raw))
		case i < len(raw) && sym == endBlock:
			return fmt.Errorf("%w: stream ends after %d of %d bytes", ErrCorrupt, i, len(raw))
		case i < len(raw):
			raw[i] = byte(sym)
		}
	}
	if r.n >= 8 || r.i < len(r.b) {
		return fmt.Errorf("%w: bytes after the stream's end", ErrCorrupt)
	}
	return nil
}

// buildTable fills table, indexed by the next max bits of the stream, with
// each symbol's code as sym<<4 | its length, from lens (each at most max,
// 0 for no code). The code must be complete, or a lone 1-bit code, as
// compress/flate requires: then every entry holds a code.
func buildTable(table []uint16, lens []uint8, max int) bool {
	var count [16]int
	for _, l := range lens {
		if int(l) > max {
			return false
		}
		count[l]++
	}
	count[0] = 0
	kraft := 0
	for l := 1; l <= max; l++ {
		kraft += count[l] << (max - l)
	}
	lone := kraft == 1<<(max-1) && count[1] == 1
	if kraft != 1<<max && !lone {
		return false
	}
	var codes [numLit]uint16
	canonical(codes[:len(lens)], lens)
	for s, l := range lens {
		for k := int(codes[s]); l != 0 && k < len(table); k += 1 << l {
			table[k] = uint16(s)<<4 | uint16(l)
		}
	}
	return true
}

// bitReader reads a stream first bit lowest, eight bytes at a time where
// it can. err is set once a read needs bits past the stream's end, which
// then read as zeros.
type bitReader struct {
	b   []byte
	i   int
	acc uint64
	n   uint
	err bool
}

func (r *bitReader) refill() {
	if r.i+8 <= len(r.b) {
		r.acc |= binary.LittleEndian.Uint64(r.b[r.i:]) << r.n
		r.i += int(63-r.n) / 8
		r.n |= 56
		return
	}
	for ; r.n <= 56 && r.i < len(r.b); r.i++ {
		r.acc |= uint64(r.b[r.i]) << r.n
		r.n += 8
	}
}

// bits reads n bits (at most 32).
func (r *bitReader) bits(n uint) uint32 {
	if r.n < n {
		r.refill()
		if r.n < n {
			r.err, r.n = true, n
		}
	}
	v := uint32(r.acc & (1<<n - 1))
	r.acc >>= n
	r.n -= n
	return v
}

// decode reads one symbol through table, a buildTable of max bits; past
// the stream's end, or on the unused half of a lone 1-bit code, it
// returns 1<<12, no symbol of either alphabet.
func (r *bitReader) decode(table []uint16, max uint) int {
	if r.n < max {
		r.refill()
	}
	e := table[r.acc&(1<<max-1)]
	l := uint(e & 15)
	if l == 0 || l > r.n {
		r.err = true
		return 1 << 12
	}
	r.acc >>= l
	r.n -= l
	return int(e >> 4)
}
