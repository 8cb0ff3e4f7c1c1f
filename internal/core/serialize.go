package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
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

const magicV2 = "ORF2"

type writer struct {
	w   io.Writer
	err error
}

func (w *writer) u64(v uint64) {
	if w.err != nil {
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	_, w.err = w.w.Write(buf[:])
}

func (w *writer) i64(v int64)   { w.u64(uint64(v)) }
func (w *writer) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *writer) b(v bool)      { w.u64(boolU64(v)) }
func boolU64(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

type reader struct {
	r   io.Reader
	err error
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	var buf [8]byte
	_, r.err = io.ReadFull(r.r, buf[:])
	return binary.LittleEndian.Uint64(buf[:])
}

func (r *reader) i64() int64   { return int64(r.u64()) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *reader) b() bool      { return r.u64() != 0 }

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

// WriteTo serializes the forest in the current v2 format: per-tree
// blocks encoded by forEachTree, each flate-compressed and CRC-framed.
// It must not run concurrently with Update.
func (f *Forest) WriteTo(dst io.Writer) (int64, error) {
	return f.writeToV2(dst, frame.Flate)
}

// WriteToRaw serializes the forest in the v2 layout with the
// uncompressed passthrough codec: parallel and CRC-framed, but no
// flate. Useful when the destination already compresses, or to trade
// bytes for encode CPU.
func (f *Forest) WriteToRaw(dst io.Writer) (int64, error) {
	return f.writeToV2(dst, frame.Raw)
}

func (f *Forest) writeToV2(dst io.Writer, codec frame.Codec) (int64, error) {
	var hdr bytes.Buffer
	hw := &writer{w: &hdr}
	f.writeHeader(hw)
	if hw.err != nil {
		return 0, hw.err
	}

	// Encode every tree into its own framed block. Flate at a fixed
	// level is deterministic and each block starts from a fresh encoder
	// state, so the concatenation in tree order is byte-identical no
	// matter how many goroutines forEachTree spreads it over.
	blocks := make([][]byte, len(f.trees))
	err := forEachTree(len(f.trees), func(i int) error {
		var buf bytes.Buffer
		tw := &writer{w: &buf}
		writeTree(tw, f.trees[i])
		blocks[i] = frame.AppendBlock(nil, buf.Bytes(), codec)
		return tw.err
	})
	if err != nil {
		return 0, err
	}

	var total int64
	write := func(b []byte) error {
		n, err := dst.Write(b)
		total += int64(n)
		return err
	}
	if err := write([]byte(magicV2)); err != nil {
		return total, err
	}
	if err := write([]byte{byte(codec)}); err != nil {
		return total, err
	}
	if err := write(frame.AppendBlock(nil, hdr.Bytes(), codec)); err != nil {
		return total, err
	}
	for _, b := range blocks {
		if err := write(b); err != nil {
			return total, err
		}
	}
	return total, nil
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

// ReadForest deserializes a forest written by WriteTo or WriteToRaw.
func ReadForest(src io.Reader) (*Forest, error) {
	head := make([]byte, len(magicV2))
	if _, err := io.ReadFull(src, head); err != nil {
		return nil, fmt.Errorf("core: reading snapshot header: %w", err)
	}
	if string(head) != magicV2 {
		return nil, fmt.Errorf("core: bad snapshot magic %q", head)
	}
	var cb [1]byte
	if _, err := io.ReadFull(src, cb[:]); err != nil {
		return nil, fmt.Errorf("core: reading snapshot codec: %w", err)
	}
	if c := frame.Codec(cb[0]); c != frame.Raw && c != frame.Flate {
		return nil, fmt.Errorf("core: unknown snapshot codec %d", cb[0])
	}
	hdrBlk, err := frame.ReadBlockRaw(src, nil)
	if err != nil {
		return nil, fmt.Errorf("core: reading snapshot header block: %w", err)
	}
	hdrRaw, _, err := frame.DecodeBlock(hdrBlk)
	if err != nil {
		return nil, fmt.Errorf("core: decoding snapshot header block: %w", err)
	}
	f := &Forest{}
	c, err := f.readHeader(&reader{r: bytes.NewReader(hdrRaw)})
	if err != nil {
		return nil, err
	}

	// Pull every tree's framed block off the stream sequentially (cheap
	// I/O), then CRC-check, inflate, and parse them with forEachTree —
	// the expensive part of recovery, spread over this host's cores.
	blocks := make([][]byte, c.Trees)
	for i := range blocks {
		if blocks[i], err = frame.ReadBlockRaw(src, nil); err != nil {
			return nil, fmt.Errorf("core: reading tree block %d: %w", i, err)
		}
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
		return nil, err
	}
	return f, nil
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
	br := bytes.NewReader(raw)
	t, err := readTree(&reader{r: br}, cfg, dim)
	if err != nil {
		return nil, err
	}
	if br.Len() != 0 {
		return nil, fmt.Errorf("core: corrupt snapshot (%d trailing bytes in tree block)", br.Len())
	}
	return t, nil
}

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
	nNodes := r.i64()
	if r.err != nil {
		return nil, fmt.Errorf("core: reading tree header: %w", r.err)
	}
	if nNodes <= 0 || nNodes > 1<<28 {
		return nil, fmt.Errorf("core: corrupt snapshot (node count %d)", nNodes)
	}
	t.nodes = make([]oNode, nNodes)
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
		nTests := r.i64()
		if r.err != nil {
			return nil, fmt.Errorf("core: reading node %d: %w", i, r.err)
		}
		if nTests < 0 || nTests > 1<<20 {
			return nil, fmt.Errorf("core: corrupt snapshot (test count %d)", nTests)
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
			}
		}
		// Structural sanity: child pointers must stay in range.
		if n.feature >= 0 {
			if int64(n.left) >= nNodes || int64(n.right) >= nNodes ||
				n.left <= 0 && n.right <= 0 {
				return nil, fmt.Errorf("core: corrupt snapshot (node %d children %d/%d)",
					i, n.left, n.right)
			}
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("core: reading snapshot: %w", r.err)
	}
	return t, nil
}
