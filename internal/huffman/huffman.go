// Package huffman writes a byte string as a literal-only DEFLATE stream
// (RFC 1951): one final block with dynamic Huffman codes and no
// back-references, so each byte costs the length of its code and
// nothing is searched for. Any inflater reads it; Decode reads it, and
// only it, without the general inflater's per-byte cost.
//
// The codes are canonical, built from the input's byte counts with
// fixed tie-breaks, so the same input always gives the same bytes.
package huffman

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

const (
	numLit   = 257 // the 256 byte literals, then end-of-block
	endBlock = 256

	// maxLitLen caps a literal's code, so that Decode resolves any code
	// with one lookup in a table of 2^maxLitLen entries. On run records
	// a longer cap saves nothing (21.6 B a row at 11 and at 12 bits on
	// BenchmarkRecordCodec's 256-row runs, 22.9 at 9). shortLitLen is
	// the cap Append tries beside it: flatter lengths cost the header
	// fewer bits, which pays on shorter runs (24.0 B a row at 9 bits,
	// 24.3 at 10 or 11, on TestRecordBytesPerRow's ~40-row runs).
	maxLitLen   = 11
	shortLitLen = 9

	numCL    = 19 // the code-length alphabet: lengths 0-15, then repeats 16-18
	maxCLLen = 7
)

// clOrder is the order in which a dynamic block's header lists the
// code-length code's lengths (RFC 1951, 3.2.7).
var clOrder = [numCL]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// clExtra is the count of extra bits after each repeat symbol.
var clExtra = [numCL]uint8{16: 2, 17: 3, 18: 7}

// Encoder holds the tables of the stream it last wrote. Its zero value
// is ready to use; once its destination has room, Append allocates
// nothing. It is not safe for concurrent use.
type Encoder struct {
	litFreq [numLit]int
	litLen  [numLit]uint8
	litCode [numLit]uint16 // bit-reversed, as the stream holds them
	// lit is each literal's code shifted left 4 above its length: what
	// the literal loop looks up.
	lit    [numLit]uint32
	clFreq [numCL]int
	clLen  [numCL]uint8
	clCode [numCL]uint16
	// cl is the header's code-length sequence: a symbol in the low 5
	// bits, a repeat symbol's extra bits above them.
	cl  [numLit + 1]uint16
	ncl int
	// The trees the literal and code-length codes are cut from.
	litTree, clTree tree
}

// Append appends src to dst as one final literal-only DEFLATE block
// and returns the extended slice and true, unless that block would take
// limit bytes or more: then it returns dst unchanged and false, having
// written nothing.
func (e *Encoder) Append(dst, src []byte, limit int) ([]byte, bool) {
	// Four interleaved counts, so that a run of one byte value does not
	// wait on its own increments.
	var f [4][256]uint32
	b := src
	for ; len(b) >= 4; b = b[4:] {
		f[0][b[0]]++
		f[1][b[1]]++
		f[2][b[2]]++
		f[3][b[3]]++
	}
	for _, c := range b {
		f[0][c]++
	}
	for c := range 256 {
		e.litFreq[c] = int(f[0][c]) + int(f[1][c]) + int(f[2][c]) + int(f[3][c])
	}
	e.litFreq[endBlock] = 1
	e.litTree.build(e.litFreq[:])
	// The codes under whichever cap gives the shorter block, the longer
	// cap on a tie; a tree no deeper than the short cap gives the same
	// codes under both. The cap planned last has its tables set.
	size, hclen := e.plan(shortLitLen)
	if e.litTree.depths > shortLitLen+1 {
		if long, longHclen := e.plan(maxLitLen); long <= size {
			size, hclen = long, longHclen
		} else {
			e.plan(shortLitLen)
		}
	}
	if size >= limit {
		return dst, false
	}

	canonical(e.litCode[:], e.litLen[:])
	canonical(e.clCode[:], e.clLen[:])
	for s, c := range e.litCode {
		e.lit[s] = uint32(c)<<4 | uint32(e.litLen[s])
	}
	w := bitWriter{buf: slices.Grow(dst, size+8)[:len(dst)+size+8], pos: len(dst)}
	// BFINAL, BTYPE 2 (dynamic), HLIT 257 codes, HDIST 1, HCLEN.
	w.put(1|2<<1, 3)
	w.put(0, 5)
	w.put(0, 5)
	w.put(uint64(hclen-4), 4)
	for _, s := range clOrder[:hclen] {
		w.put(uint64(e.clLen[s]), 3)
	}
	for _, c := range e.cl[:e.ncl] {
		s := c & 31
		w.put(uint64(e.clCode[s]), uint(e.clLen[s]))
		w.put(uint64(c>>5), uint(clExtra[s]))
	}
	// Five codes of at most 11 bits fill no more than the 56 bits a
	// store leaves room for, so they go in with one store, through
	// locals the compiler keeps in registers.
	lit, acc, n, pos := &e.lit, w.acc, w.n, w.pos
	for ; len(src) >= 5; src = src[5:] {
		t0, t1, t2, t3, t4 := lit[src[0]], lit[src[1]], lit[src[2]], lit[src[3]], lit[src[4]]
		acc |= uint64(t0>>4) << n
		n += uint(t0 & 15)
		acc |= uint64(t1>>4) << n
		n += uint(t1 & 15)
		acc |= uint64(t2>>4) << n
		n += uint(t2 & 15)
		acc |= uint64(t3>>4) << n
		n += uint(t3 & 15)
		acc |= uint64(t4>>4) << n
		n += uint(t4 & 15)
		binary.LittleEndian.PutUint64(w.buf[pos:], acc)
		k := n >> 3
		pos += int(k)
		acc >>= k << 3
		n &= 7
	}
	w.acc, w.n, w.pos = acc, n, pos
	for _, c := range src {
		w.put(uint64(e.lit[c]>>4), uint(e.lit[c]&15))
	}
	w.put(uint64(e.lit[endBlock]>>4), uint(e.lit[endBlock]&15))
	return w.buf[:w.pos+int(w.n+7)/8], true
}

// plan sets the literal and code-length codes, literal codes cut from
// litTree to at most limit bits, and returns the block's size in bytes
// and how many code-length code lengths its header lists.
func (e *Encoder) plan(limit int) (size, hclen int) {
	e.litTree.lengths(e.litLen[:], limit)
	e.codeLengths()
	e.clTree.build(e.clFreq[:])
	e.clTree.lengths(e.clLen[:], maxCLLen)
	hclen = numCL
	for hclen > 4 && e.clLen[clOrder[hclen-1]] == 0 {
		hclen--
	}
	bits := 3 + 5 + 5 + 4 + 3*hclen
	for s, f := range e.clFreq {
		bits += f * int(e.clLen[s]+clExtra[s])
	}
	for s, f := range e.litFreq {
		bits += f * int(e.litLen[s])
	}
	return (bits + 7) / 8, hclen
}

// codeLengths run-length codes the literal code lengths, then the one
// distance code's length (0: the block has no back-references), as the
// header's code-length sequence, and counts its symbols.
func (e *Encoder) codeLengths() {
	clear(e.clFreq[:])
	e.ncl = 0
	emit := func(sym, extra int) {
		e.cl[e.ncl] = uint16(sym | extra<<5)
		e.ncl++
		e.clFreq[sym]++
	}
	var lens [numLit + 1]uint8 // the last is the distance code's
	copy(lens[:], e.litLen[:])
	for i := 0; i < len(lens); {
		l, run := lens[i], 1
		for i+run < len(lens) && lens[i+run] == l {
			run++
		}
		i += run
		if l == 0 {
			for ; run >= 11; run -= min(run, 138) {
				emit(18, min(run, 138)-11)
			}
			if run >= 3 {
				emit(17, run-3)
				run = 0
			}
		} else {
			emit(int(l), 0)
			for run--; run >= 3; run -= min(run, 6) {
				emit(16, min(run, 6)-3)
			}
		}
		for ; run > 0; run-- {
			emit(int(l), 0)
		}
	}
}

// A tree is a Huffman tree over symbol counts, kept as what cutting it
// to a length cap needs, so that one tree serves several caps: the
// symbols that occur, by ascending count with ties toward the lower
// symbol, and how many leaves sit at each depth.
type tree struct {
	syms     []uint16
	leaves   [numLit]uint16
	depths   int // leaves[depths:] are all 0
	buf, tmp [numLit]uint16
	// a is the in-place tree of Moffat and Katajainen over the counts.
	a [numLit]int
}

// build grows the tree for the symbols freq counts (0 for a symbol it
// does not). A lone symbol is a leaf at depth 1: a 1-bit code, the one
// incomplete code inflaters accept.
func (t *tree) build(freq []int) {
	t.syms = t.sortByCount(freq)
	clear(t.leaves[:t.depths])
	n := len(t.syms)
	switch n {
	case 0:
		t.depths = 0
		return
	case 1:
		t.leaves[1], t.depths = 1, 2
		return
	}
	// a holds the ascending counts, then parent links, then depths.
	a := t.a[:n]
	for i, s := range t.syms {
		a[i] = freq[s]
	}
	a[0] += a[1]
	root, leaf := 0, 2
	for next := 1; next < n-1; next++ {
		if leaf >= n || a[root] < a[leaf] {
			a[next], a[root] = a[root], next
			root++
		} else {
			a[next] = a[leaf]
			leaf++
		}
		if leaf >= n || (root < next && a[root] < a[leaf]) {
			a[next] += a[root]
			a[root] = next
			root++
		} else {
			a[next] += a[leaf]
			leaf++
		}
	}
	a[n-2] = 0
	for next := n - 3; next >= 0; next-- {
		a[next] = a[a[next]] + 1
	}
	avail, used, depth := 1, 0, 0
	root = n - 2
	for avail > 0 {
		for root >= 0 && a[root] == depth {
			used++
			root--
		}
		t.leaves[depth] += uint16(avail - used)
		avail, used = 2*used, 0
		depth++
	}
	t.depths = depth
}

// lengths sets lens to the tree's code lengths cut to at most limit
// bits (0 for a symbol that does not occur), as miniz cuts them: each
// code moved up from below the limit makes room for one from past it.
// The most frequent symbols take the shortest codes.
func (t *tree) lengths(lens []uint8, limit int) {
	clear(lens)
	var count [maxLitLen + 1]int
	for d, k := range t.leaves[:t.depths] {
		count[min(d, limit)] += int(k)
	}
	// Kraft sum in units of 2^-limit: trade codes past the limit for
	// longer ones below it until the code is complete again.
	total := 0
	for l := 1; l <= limit; l++ {
		total += count[l] << (limit - l)
	}
	for ; total > 1<<limit; total-- {
		count[limit]--
		for l := limit - 1; l > 0; l-- {
			if count[l] > 0 {
				count[l]--
				count[l+1] += 2
				break
			}
		}
	}
	j := len(t.syms)
	for l := 1; l <= limit; l++ {
		for range count[l] {
			j--
			lens[t.syms[j]] = uint8(l)
		}
	}
}

// sortByCount returns the symbols freq counts, by ascending count and
// then symbol: a stable radix sort of the symbols, in order, on each
// byte of their counts, lowest first.
func (t *tree) sortByCount(freq []int) []uint16 {
	syms, tmp := t.buf[:0], t.tmp[:0]
	most := 0
	for s, f := range freq {
		if f > 0 {
			syms = append(syms, uint16(s))
			most = max(most, f)
		}
	}
	if len(syms) <= 32 {
		// Few symbols (the code-length alphabet's 19 at most): an
		// insertion sort, stable as the radix passes are.
		for i := 1; i < len(syms); i++ {
			for j := i; j > 0 && freq[syms[j-1]] > freq[syms[j]]; j-- {
				syms[j-1], syms[j] = syms[j], syms[j-1]
			}
		}
		return syms
	}
	for shift := 0; most>>shift > 0; shift += 8 {
		var start [256]uint16
		for _, s := range syms {
			start[freq[s]>>shift&0xFF]++
		}
		sum := uint16(0)
		for d, c := range start {
			start[d] = sum
			sum += c
		}
		tmp = tmp[:len(syms)]
		for _, s := range syms {
			d := freq[s] >> shift & 0xFF
			tmp[start[d]] = s
			start[d]++
		}
		syms, tmp = tmp, syms
	}
	return syms
}

// canonical assigns the canonical codes of RFC 1951 3.2.2 to lens,
// bit-reversed: the stream packs a code's first bit lowest.
func canonical(codes []uint16, lens []uint8) {
	var count, next [16]uint16
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	code := uint16(0)
	for l := 1; l < 16; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	for s, l := range lens {
		if l != 0 {
			codes[s] = bits.Reverse16(next[l]) >> (16 - l)
			next[l]++
		}
	}
}

// bitWriter packs codes first bit lowest into buf from pos on, storing
// whole bytes as they fill, so that fewer than 8 bits are ever pending
// between puts; buf must reach 8 bytes past the stream's end.
type bitWriter struct {
	buf []byte
	pos int
	acc uint64
	n   uint
}

// put appends the low n bits of v (n at most 56).
func (w *bitWriter) put(v uint64, n uint) {
	w.acc |= v << w.n
	w.n += n
	w.store()
}

// store writes the whole bytes pending.
func (w *bitWriter) store() {
	binary.LittleEndian.PutUint64(w.buf[w.pos:], w.acc)
	k := w.n >> 3
	w.pos += int(k)
	w.acc >>= k << 3
	w.n &= 7
}
