// Package packed is the packed value codec: how a SMART vector is laid
// out wherever the service holds many of them — observe records and the
// labeling queues of a saved state, on disk, and the labeling queues
// themselves in memory.
package packed

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// n values are ⌈n/2⌉ bytes of 4-bit codes
// (value i in byte i/2, even i in the low nibble; the pad nibble of an
// odd count is zero) followed by the payloads in order:
//
//	code 0      +0.0, no payload
//	code 1-8    that many leading bytes of the IEEE-754 bits, most
//	            significant first; the trailing bytes dropped are zero
//	code 9-14   an integer in [1, 2^48) in code-8 little-endian bytes
//	code 15     the same bits as value i of the previous vector, no
//	            payload; a decode error where the caller passes none
//
// A previous vector is passed where consecutive vectors are one disk's
// consecutive samples (a saved state's queues) and in a run record,
// whose rows after the first are coded against the row before them in
// the run (another disk, so fewer values repeat). A labeling queue in
// memory codes each sample on its own, so that releasing the oldest
// needs no other.
//
// SMART telemetry is a 1-byte normalized value and a 6-byte raw counter
// per attribute, so nearly every value is a small non-negative integer:
// the integer form holds it in the bytes the number needs, where the
// float form also pays for the exponent. The float form holds everything
// else bit for bit (-0, NaN payloads, infinities, subnormals).

// Append appends vals to buf, against prev when it is non-nil (then
// len(prev) == len(vals)). The encoding is canonical: code 15 exactly
// where the bits are non-zero and equal prev's, the integer form only
// where strictly shorter than the float form, all decided from the
// float's bits alone. Each payload is written with one 8-byte store (the
// excess lands in reserved scratch and is overwritten by the next
// value), which keeps the encoder off an observe record's critical path.
func Append(buf []byte, vals, prev []float64) []byte {
	// Worst case 8 bytes per value, +8 so the last full-width store stays
	// in bounds.
	i := (len(vals) + 1) / 2 // payloads start after the codes
	worst := i + 8*len(vals) + 8
	n := len(buf)
	if cap(buf)-n < worst {
		buf = append(buf[:n], make([]byte, worst)...)
	}
	b := buf[n : n+worst]
	// Two loops, so that a vector coded on its own (a run's first row)
	// carries no check of a previous vector: in one shared loop that
	// check cost the encoder a fifth.
	if prev == nil {
		for k, v := range vals {
			code, w, p := packValue(math.Float64bits(v))
			binary.LittleEndian.PutUint64(b[i:], p)
			i += w
			if k&1 == 0 {
				b[k/2] = byte(code)
			} else {
				b[k/2] |= byte(code) << 4
			}
		}
		return buf[:n+i]
	}
	prev = prev[:len(vals)]
	for k, v := range vals {
		u := math.Float64bits(v)
		code, w, p := packValue(u)
		// Branch-free: which values repeat is too irregular to predict.
		// m is all ones where u is non-zero and equals prev's bits.
		d := math.Float64bits(prev[k]) ^ u
		m := -int((((d | -d) >> 63) ^ 1) & ((u | -u) >> 63))
		code = code&^m | 15&m
		w &^= m
		binary.LittleEndian.PutUint64(b[i:], p)
		i += w
		if k&1 == 0 {
			b[k/2] = byte(code)
		} else {
			b[k/2] |= byte(code) << 4
		}
	}
	return buf[:n+i]
}

// packValue is the code of the value with bits u on its own, and its
// payload: the low w bytes of p, little-endian. +0.0 has 64 trailing
// zero bits, so code 0 and width 0 fall out of the float form.
func packValue(u uint64) (code, w int, p uint64) {
	tz := bits.TrailingZeros64(u)
	w = 8 - tz/8
	code = w
	p = bits.ReverseBytes64(u)
	// A positive integer below 2^48 has exponent e in [0, 48) and no
	// mantissa bit below 2^(52-e); a sign bit puts e out of range.
	if e := int(u>>52) - 1023; uint(e) < 48 && tz >= 52-e && e/8+1 < w {
		w = e/8 + 1
		code = 8 + w
		p = (u&(1<<52-1) | 1<<52) >> (52 - e)
	}
	return code, w, p
}

// Decode decodes nv values from the front of b, against prev when
// it is non-nil (then len(prev) == nv), and returns them with the bytes
// that follow. nv comes from the input: it is bounded by what b could
// hold (a value takes at least its half-byte code) before anything is
// allocated for it. Errors carry no package prefix: every caller wraps
// them.
func Decode(b []byte, nv uint64, prev []float64) ([]float64, []byte, error) {
	if nv > 2*uint64(len(b)) {
		return nil, nil, fmt.Errorf("%d packed values in %d bytes", nv, len(b))
	}
	vals := make([]float64, nv)
	b, err := DecodeInto(vals, b, prev)
	if err != nil {
		return nil, nil, err
	}
	return vals, b, nil
}

// DecodeInto is Decode into storage the caller owns (a run record
// decodes all its rows into one slab, a labeling queue releases into
// scratch): it fills vals from the front of b and returns the bytes
// that follow.
func DecodeInto(vals []float64, b []byte, prev []float64) ([]byte, error) {
	nv := len(vals)
	if nv > 2*len(b) {
		return nil, fmt.Errorf("%d packed values in %d bytes", nv, len(b))
	}
	nc := (nv + 1) / 2
	codes, b := b[:nc], b[nc:]
	if nv&1 == 1 && codes[nc-1]>>4 != 0 {
		return nil, errors.New("packed values: non-zero pad code")
	}
	for i := range vals {
		code := int(codes[i/2] >> (4 * (i & 1)) & 15)
		if code == 15 {
			if prev == nil {
				return nil, fmt.Errorf("packed value %d: code 15 with no previous vector", i)
			}
			vals[i] = prev[i]
			continue
		}
		w := code
		if code > 8 {
			w = code - 8
		}
		if len(b) < w {
			return nil, fmt.Errorf("packed value %d: code %d with %d bytes left", i, code, len(b))
		}
		if u := loadBytes(b, w); code > 8 {
			vals[i] = float64(u) // below 2^48: exact
		} else {
			vals[i] = math.Float64frombits(bits.ReverseBytes64(u))
		}
		b = b[w:]
	}
	return b, nil
}

// loadBytes reads the first w (0-8) bytes of b as a little-endian
// integer; len(b) >= w. With 8 bytes in reach it mirrors the encoders'
// single-store trick: one full-width load, masked.
func loadBytes(b []byte, w int) uint64 {
	if len(b) >= 8 {
		return binary.LittleEndian.Uint64(b) & (1<<(8*uint(w)) - 1)
	}
	var u uint64
	for k := 0; k < w; k++ {
		u |= uint64(b[k]) << (8 * k)
	}
	return u
}

// width is each code's payload length in bytes, and pairWidth a code
// byte's: its two codes' together.
var (
	width     = [16]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4, 5, 6, 0}
	pairWidth = func() (t [256]uint8) {
		for b := range t {
			t[b] = uint8(width[b&15] + width[b>>4])
		}
		return t
	}()
)

// Len returns how many bytes the nv values at the front of b take, read
// from their codes alone: b must start with values as Append wrote them
// (the pad nibble of an odd count is code 0, no payload).
func Len(b []byte, nv int) int {
	nc := (nv + 1) / 2
	n := nc
	for _, c := range b[:nc] {
		n += int(pairWidth[c])
	}
	return n
}

// A Recoder codes a series of vectors, each coded on its own by Append,
// against the vector before it in the series, as Append against the
// previous vector would: what it appends is bit for bit what Append of
// the decoded vectors appends. A value coded on its own is a function
// of its bits that decoding inverts, so its code and payload equal the
// previous vector's exactly where its bits do, and code 15 goes exactly
// where those are equal and the code is not 0 (+0.0). No value is
// decoded: each vector's codes and payloads are read once, and kept for
// the next vector to be compared with. The zero Recoder starts a series.
type Recoder struct {
	codes, prevCodes []byte
	words, prevWords []uint64
	started          bool
}

// Reset starts a new series: the next vector is coded on its own.
func (r *Recoder) Reset() { r.started = false }

// Append appends the nv values at the front of own, which Append coded
// on their own, coded against the series' previous vector (on their own
// if it has none or it had another length), and returns buf with the
// bytes of own after its values.
func (r *Recoder) Append(buf, own []byte, nv int) (out, rest []byte) {
	nc := (nv + 1) / 2
	n := len(buf)
	if worst := nc + 8*nv + 8; cap(buf)-n < worst {
		buf = append(buf[:n], make([]byte, worst)...)
	}
	b := buf[n:cap(buf)]
	codes := append(r.codes[:0], own[:nc]...)
	words := slices.Grow(r.words[:0], nv)[:nv]
	own = own[nc:]
	for i := range words {
		w := width[codes[i/2]>>(4*(i&1))&15]
		words[i] = loadBytes(own, w)
		own = own[w:]
	}
	copy(b, codes)
	j := nc
	if against := r.started && len(r.prevWords) == nv; !against {
		for i, u := range words {
			binary.LittleEndian.PutUint64(b[j:], u)
			j += width[codes[i/2]>>(4*(i&1))&15]
		}
	} else {
		prevCodes, prevWords := r.prevCodes[:nc], r.prevWords[:nv]
		for i, u := range words {
			shift := 4 * (i & 1)
			code := codes[i/2] >> shift & 15
			// Branch-free, as in Append: m is all ones where the code is
			// not 0 and code and payload equal the previous vector's.
			d := prevWords[i] ^ u | uint64(prevCodes[i/2]>>shift&15^code)
			same, nonZero := (d|-d)>>63^1, (uint64(code)+15)>>4
			m := -int(same & nonZero)
			b[i/2] |= byte(15&m) << shift
			binary.LittleEndian.PutUint64(b[j:], u)
			j += width[code] &^ m
		}
	}
	r.codes, r.prevCodes = r.prevCodes, codes
	r.words, r.prevWords = r.prevWords, words
	r.started = true
	return buf[:n+j], own
}
