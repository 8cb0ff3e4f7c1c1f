package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sync"

	"orfdisk/internal/frame"
	"orfdisk/internal/rng"
)

// Binary serialization of a Forest: magic, config, then per tree the
// node array (with leaf statistics and test pools) and the learning
// state. The RNG streams are serialized too, so a restored forest
// continues the exact stream a snapshot would have produced.
//
// The format (little endian):
//
//	magic "ORF2" | codec byte | framed header block | framed tree blocks
//
// The header and each tree are independent frame blocks (CRC-checked,
// flate-compressed at BestSpeed unless the codec byte selects raw
// passthrough) of fixed 8-byte fields, and the per-tree blocks are
// encoded and decoded by forEachTree, on as many goroutines as the host
// has cores at the time of the call. The format is internal and
// versioned by the magic.
//
// A forest's encoding is always whole in memory (it lives in a log
// record), so the codec appends to and slices one []byte: AppendTo and
// DecodeForest. The io wrappers WriteTo, WriteToRaw and ReadForest
// remain for cmd/orfbench's twins.

const magicV2 = "ORF2"

// writer appends fixed 8-byte little-endian fields to buf.
type writer struct{ buf []byte }

func (w *writer) u64(v uint64)  { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) i64(v int64)   { w.u64(uint64(v)) }
func (w *writer) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *writer) b(v bool)      { w.u64(boolU64(v)) }
func boolU64(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// reader takes fixed 8-byte little-endian fields off the front of buf.
// A read past its end returns zero and sets err, which stays set: a
// caller checks it once after a run of reads.
type reader struct {
	buf []byte
	err error
}

func (r *reader) u64() uint64 {
	if len(r.buf) < 8 {
		r.buf, r.err = nil, io.ErrUnexpectedEOF
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

func (r *reader) i64() int64   { return int64(r.u64()) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *reader) b() bool      { return r.u64() != 0 }

// count reads a count of items of at least size bytes each and holds
// it to [lo, hi] and to the bytes left, so a damaged count fails here
// rather than sizing an allocation.
func (r *reader) count(what string, size, lo, hi int64) (int64, error) {
	n := r.i64()
	if r.err != nil {
		return 0, fmt.Errorf("core: reading %s: %w", what, r.err)
	}
	if n < lo || n > hi || n > int64(len(r.buf))/size {
		return 0, fmt.Errorf("core: corrupt snapshot (%s %d)", what, n)
	}
	return n, nil
}

// writeHeader serializes the forest-level counters and config (the
// header block's contents).
func (f *Forest) writeHeader(w *writer) {
	w.i64(int64(f.dim))
	w.i64(f.updates)
	w.i64(f.posSeen)
	w.i64(f.negSeen)
	w.i64(f.replaced.Load())
	w.i64(f.sinceReplace)

	c := f.cfg
	w.i64(int64(c.Trees))
	w.i64(int64(c.NumTests))
	w.f64(c.MinParentSize)
	w.f64(c.MinGain)
	w.f64(c.LambdaPos)
	w.f64(c.LambdaNeg)
	w.i64(int64(c.MaxDepth))
	w.f64(c.OOBEThreshold)
	w.i64(int64(c.AgeThreshold))
	w.f64(c.OOBEDecay)
	w.i64(int64(c.ReplaceCooldown))
	w.b(c.DisableReplacement)
	// Reserved, always zero: the slot held a worker count until forests
	// stopped owning goroutines. It stays so that the layout does: older
	// snapshots load here (readHeader skips the value) and ours load in
	// older binaries.
	w.i64(0)
	w.u64(c.Seed)
}

// readHeader parses the forest-level counters and config into f,
// returning the config once its dimension and tree count are sane.
func (f *Forest) readHeader(r *reader) (Config, error) {
	f.dim = int(r.i64())
	f.updates = r.i64()
	f.posSeen = r.i64()
	f.negSeen = r.i64()
	f.replaced.Store(r.i64())
	f.sinceReplace = r.i64()

	var c Config
	c.Trees = int(r.i64())
	c.NumTests = int(r.i64())
	c.MinParentSize = r.f64()
	c.MinGain = r.f64()
	c.LambdaPos = r.f64()
	c.LambdaNeg = r.f64()
	c.MaxDepth = int(r.i64())
	c.OOBEThreshold = r.f64()
	c.AgeThreshold = int(r.i64())
	c.OOBEDecay = r.f64()
	c.ReplaceCooldown = int(r.i64())
	c.DisableReplacement = r.b()
	r.i64() // reserved, see writeHeader
	c.Seed = r.u64()
	f.cfg = c

	if r.err != nil {
		return c, fmt.Errorf("core: reading snapshot: %w", r.err)
	}
	if f.dim <= 0 || c.Trees <= 0 || c.Trees > 1<<20 {
		return c, fmt.Errorf("core: corrupt snapshot (dim=%d trees=%d)", f.dim, c.Trees)
	}
	return c, nil
}

// AppendTo appends the forest's encoding under codec to dst and returns
// the extended slice. Each tree is encoded into its own framed block by
// forEachTree; flate at a fixed level is deterministic and each block
// starts from a fresh encoder state, so the concatenation in tree order
// is byte-identical however many goroutines forEachTree spreads it
// over. It must not run concurrently with Update.
func (f *Forest) AppendTo(dst []byte, codec frame.Codec) []byte {
	blocks := make([][]byte, len(f.trees))
	forEachTree(len(f.trees), func(i int) error {
		t := f.trees[i]
		w := writer{buf: make([]byte, 0, t.encodedSize())}
		writeTree(&w, t)
		blocks[i] = frame.AppendBlock(nil, w.buf, codec)
		return nil
	})
	hdr := writer{buf: make([]byte, 0, 8*headerWords)}
	f.writeHeader(&hdr)
	dst = append(dst, magicV2...)
	dst = frame.AppendBlock(append(dst, byte(codec)), hdr.buf, codec)
	size := 0
	for _, b := range blocks {
		size += len(b)
	}
	dst = slices.Grow(dst, size)
	for _, b := range blocks {
		dst = append(dst, b...)
	}
	return dst
}

// WriteTo writes AppendTo(nil, frame.Flate) to dst. It, WriteToRaw and
// ReadForest remain only for cmd/orfbench's twins.
func (f *Forest) WriteTo(dst io.Writer) (int64, error) {
	n, err := dst.Write(f.AppendTo(nil, frame.Flate))
	return int64(n), err
}

// WriteToRaw writes AppendTo(nil, frame.Raw) to dst.
func (f *Forest) WriteToRaw(dst io.Writer) (int64, error) {
	n, err := dst.Write(f.AppendTo(nil, frame.Raw))
	return int64(n), err
}

// ReadForest reads src to its end and decodes the forest at its front.
func ReadForest(src io.Reader) (*Forest, error) {
	b, err := io.ReadAll(src)
	if err != nil {
		return nil, fmt.Errorf("core: reading snapshot: %w", err)
	}
	f, _, err := DecodeForest(b)
	return f, err
}

// Words per encoded header, tree header, node and pooled test.
const headerWords, treeWords, nodeWords, testWords = 20, 10, 10, 6

// encodedSize is the length of writeTree's encoding of t.
func (t *onlineTree) encodedSize() int {
	words := treeWords + nodeWords*len(t.nodes)
	for i := range t.nodes {
		words += testWords * len(t.nodes[i].tests)
	}
	return 8 * words
}

func writeTree(w *writer, t *onlineTree) {
	w.i64(int64(t.age))
	w.f64(t.oobErrNeg)
	w.f64(t.oobErrPos)
	w.b(t.oobSeenNeg)
	w.b(t.oobSeenPos)
	s0, s1, s2, s3 := t.r.State()
	w.u64(s0)
	w.u64(s1)
	w.u64(s2)
	w.u64(s3)
	w.i64(int64(len(t.nodes)))
	for i := range t.nodes {
		n := &t.nodes[i]
		w.i64(int64(n.feature))
		w.f64(n.thresh)
		w.i64(int64(n.left))
		w.i64(int64(n.right))
		w.i64(int64(n.depth))
		w.f64(n.wNeg)
		w.f64(n.wPos)
		w.f64(n.splitGain)
		w.f64(n.splitMass)
		w.i64(int64(len(n.tests)))
		for j := range n.tests {
			s := &n.tests[j]
			w.i64(int64(s.feature))
			w.f64(s.thresh)
			w.f64(s.lNeg)
			w.f64(s.lPos)
			w.f64(s.rNeg)
			w.f64(s.rPos)
		}
	}
}

// DecodeForest decodes the forest AppendTo wrote at the front of b and
// returns it with the rest of b. The forest shares no memory with b.
// The tree blocks are split off b in order, then CRC-checked, inflated
// and parsed by forEachTree.
func DecodeForest(b []byte) (*Forest, []byte, error) {
	if len(b) < len(magicV2)+1 {
		return nil, b, fmt.Errorf("core: reading snapshot header: %w", io.ErrUnexpectedEOF)
	}
	if string(b[:len(magicV2)]) != magicV2 {
		return nil, b, fmt.Errorf("core: bad snapshot magic %q", b[:len(magicV2)])
	}
	if c := frame.Codec(b[len(magicV2)]); c != frame.Raw && c != frame.Flate {
		return nil, b, fmt.Errorf("core: unknown snapshot codec %d", c)
	}
	hdr, rest, err := frame.DecodeBlock(b[len(magicV2)+1:])
	if err != nil {
		return nil, b, fmt.Errorf("core: snapshot header block: %w", err)
	}
	f := &Forest{}
	c, err := f.readHeader(&reader{buf: hdr})
	if err != nil {
		return nil, b, err
	}
	// Grown by append: the header's tree count buys no allocation the
	// blocks after it do not back.
	var blocks [][]byte
	for i := 0; i < c.Trees; i++ {
		var blk []byte
		if blk, rest, err = frame.SplitBlock(rest); err != nil {
			return nil, b, fmt.Errorf("core: reading tree block %d: %w", i, err)
		}
		blocks = append(blocks, blk)
	}
	f.trees = make([]*onlineTree, c.Trees)
	err = forEachTree(c.Trees, func(i int) error {
		t, err := decodeTreeBlock(blocks[i], c, f.dim)
		if err != nil {
			return fmt.Errorf("core: tree block %d: %w", i, err)
		}
		f.trees[i] = t
		return nil
	})
	if err != nil {
		return nil, b, err
	}
	return f, rest, nil
}

// forEachTree runs fn(i) for every i in [0, n) and returns the error of
// the lowest i that failed. The work is cut into min(GOMAXPROCS, n)
// contiguous ranges; the caller runs the first and one goroutine each
// the rest, all of which have exited when forEachTree returns — so the
// parallelism is this host's at this call, nothing a forest carries or a
// snapshot records, and with one core it is a plain loop. A range stops
// at its first error, which makes the first error in range order the
// lowest failing i overall.
func forEachTree(n int, fn func(i int) error) error {
	workers := min(runtime.GOMAXPROCS(0), n)
	chunk := (n + workers - 1) / workers
	errs := make([]error, workers)
	run := func(w int) {
		for i := w * chunk; i < min((w+1)*chunk, n) && errs[w] == nil; i++ {
			errs[w] = fn(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// decodeTreeBlock verifies and parses one framed tree block.
func decodeTreeBlock(blk []byte, cfg Config, dim int) (*onlineTree, error) {
	raw, _, err := frame.DecodeBlock(blk)
	if err != nil {
		return nil, err
	}
	r := &reader{buf: raw}
	t, err := readTree(r, cfg, dim)
	if err != nil {
		return nil, err
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("core: corrupt snapshot (%d trailing bytes in tree block)", len(r.buf))
	}
	return t, nil
}

// readTree parses one tree and holds it to the shape split gives every
// tree: an internal node splits on a feature below dim and its children
// come after it, every node but the root is the child of exactly one
// node, and every pooled test reads a feature below dim. A tree of
// another shape would index past a sample or walk forever.
func readTree(r *reader, cfg Config, dim int) (*onlineTree, error) {
	// Restored structure has never been frozen by this Forest: dirty so
	// the first incremental Freeze re-flattens it.
	t := &onlineTree{cfg: cfg, dim: dim, dirty: true}
	t.age = int(r.i64())
	t.oobErrNeg = r.f64()
	t.oobErrPos = r.f64()
	t.oobSeenNeg = r.b()
	t.oobSeenPos = r.b()
	s0, s1, s2, s3 := r.u64(), r.u64(), r.u64(), r.u64()
	t.r = rng.FromState(s0, s1, s2, s3)
	nNodes, err := r.count("node count", 8*nodeWords, 1, 1<<28)
	if err != nil {
		return nil, err
	}
	t.nodes = make([]oNode, nNodes)
	parented := make([]bool, nNodes)
	for i := range t.nodes {
		n := &t.nodes[i]
		n.feature = int32(r.i64())
		n.thresh = r.f64()
		n.left = int32(r.i64())
		n.right = int32(r.i64())
		n.depth = int32(r.i64())
		n.wNeg = r.f64()
		n.wPos = r.f64()
		n.splitGain = r.f64()
		n.splitMass = r.f64()
		nTests, err := r.count("test count", 8*testWords, 0, 1<<20)
		if err != nil {
			return nil, err
		}
		if nTests > 0 {
			n.tests = make([]test, nTests)
			for j := range n.tests {
				s := &n.tests[j]
				s.feature = int32(r.i64())
				s.thresh = r.f64()
				s.lNeg = r.f64()
				s.lPos = r.f64()
				s.rNeg = r.f64()
				s.rPos = r.f64()
				if s.feature < 0 || int(s.feature) >= dim {
					return nil, fmt.Errorf("core: corrupt snapshot (node %d test %d feature %d, dim %d)",
						i, j, s.feature, dim)
				}
			}
		}
		if n.feature < 0 {
			continue
		}
		if int(n.feature) >= dim {
			return nil, fmt.Errorf("core: corrupt snapshot (node %d feature %d, dim %d)", i, n.feature, dim)
		}
		for _, c := range [2]int32{n.left, n.right} {
			if c <= int32(i) || int64(c) >= nNodes || parented[c] {
				return nil, fmt.Errorf("core: corrupt snapshot (node %d children %d/%d)",
					i, n.left, n.right)
			}
			parented[c] = true
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("core: reading snapshot: %w", r.err)
	}
	for i := 1; i < len(parented); i++ {
		if !parented[i] {
			return nil, fmt.Errorf("core: corrupt snapshot (node %d has no parent)", i)
		}
	}
	return t, nil
}
