package core

import (
	"bytes"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"orfdisk/internal/frame"
	"orfdisk/internal/rng"
)

// trainForest builds a forest with some learned structure.
func trainForest(t testing.TB, seed uint64, n int) *Forest {
	t.Helper()
	cfg := Config{Trees: 8, NumTests: 15, MinParentSize: 30, MinGain: 0.03,
		LambdaPos: 1, LambdaNeg: 1, Seed: seed}
	f := New(3, cfg)
	r := rng.New(seed + 1)
	for i := 0; i < n; i++ {
		x, y := streamSample(r, 0.3, 0.5)
		f.Update(x, y)
	}
	return f
}

// decodeWhole decodes a forest that must take up all of b.
func decodeWhole(t testing.TB, b []byte) *Forest {
	t.Helper()
	f, rest, err := DecodeForest(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes after the forest", len(rest))
	}
	return f
}

func TestSnapshotRoundTripPredictions(t *testing.T) {
	f := trainForest(t, 1, 3000)
	g := decodeWhole(t, f.AppendTo(nil, frame.Flate))
	r := rng.New(99)
	for i := 0; i < 200; i++ {
		x, _ := streamSample(r, 0.3, 0.5)
		if f.PredictProba(x) != g.PredictProba(x) {
			t.Fatal("restored forest predicts differently")
		}
	}
	fs, gs := f.Stats(), g.Stats()
	if fs != gs {
		t.Fatalf("stats differ: %+v vs %+v", fs, gs)
	}
}

// TestDecodeForestLeavesRest: DecodeForest returns what follows the
// forest, and the forest shares no memory with its input.
func TestDecodeForestLeavesRest(t *testing.T) {
	f := trainForest(t, 4, 1500)
	for _, codec := range []frame.Codec{frame.Flate, frame.Raw} {
		enc := f.AppendTo([]byte("prefix"), codec)
		want := f.AppendTo(nil, codec)
		if !bytes.Equal(enc[len("prefix"):], want) {
			t.Fatalf("%v: AppendTo after a prefix wrote other bytes", codec)
		}
		in := append(bytes.Clone(want), "tail"...)
		g, rest, err := DecodeForest(in)
		if err != nil || string(rest) != "tail" {
			t.Fatalf("%v: rest %q, err %v", codec, rest, err)
		}
		for i := range in {
			in[i] ^= 0xff
		}
		if got := g.AppendTo(nil, codec); !bytes.Equal(got, want) {
			t.Fatalf("%v: decoded forest changed with its input", codec)
		}
	}
}

// TestWrappersMatchAppendTo: the io wrappers write and read what
// AppendTo and DecodeForest do.
func TestWrappersMatchAppendTo(t *testing.T) {
	f := trainForest(t, 5, 1500)
	for _, c := range []struct {
		codec frame.Codec
		write func(*Forest, io.Writer) (int64, error)
	}{{frame.Flate, (*Forest).WriteTo}, {frame.Raw, (*Forest).WriteToRaw}} {
		var buf bytes.Buffer
		n, err := c.write(f, &buf)
		if err != nil || n != int64(buf.Len()) {
			t.Fatalf("%v: wrote %d (%d buffered): %v", c.codec, n, buf.Len(), err)
		}
		want := f.AppendTo(nil, c.codec)
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%v: io writer bytes differ from AppendTo's", c.codec)
		}
		g, err := ReadForest(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.AppendTo(nil, c.codec), want) {
			t.Fatalf("%v: ReadForest round trip differs", c.codec)
		}
	}
}

func TestSnapshotResumesIdenticalStream(t *testing.T) {
	// A snapshot taken mid-stream and resumed must match a forest that
	// never stopped — RNG state included.
	mkStream := func(seed uint64) *rng.Source { return rng.New(seed) }

	full := trainForest(t, 2, 0)
	resumed := trainForest(t, 2, 0)
	stream1, stream2 := mkStream(7), mkStream(7)

	for i := 0; i < 1500; i++ {
		x, y := streamSample(stream1, 0.3, 0.5)
		full.Update(x, y)
	}
	// Run the twin to the same point, snapshot, restore, continue both.
	for i := 0; i < 700; i++ {
		x, y := streamSample(stream2, 0.3, 0.5)
		resumed.Update(x, y)
	}
	restored := decodeWhole(t, resumed.AppendTo(nil, frame.Flate))
	for i := 700; i < 1500; i++ {
		x, y := streamSample(stream2, 0.3, 0.5)
		restored.Update(x, y)
	}
	probe := rng.New(55)
	for i := 0; i < 100; i++ {
		x, _ := streamSample(probe, 0.3, 0.5)
		if full.PredictProba(x) != restored.PredictProba(x) {
			t.Fatal("resume-from-snapshot diverged from uninterrupted run")
		}
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	cases := map[string]struct {
		data []byte
		want string
	}{
		"empty":     {nil, "header"},
		"bad magic": {[]byte("NOPE1234567890"), "bad snapshot magic"},
		"truncated": {append([]byte(magicV2), 1, 2, 3), "header block"},
		// The layout before ORF2 is refused on its magic.
		"retired ORF1": {append([]byte("ORF1"), 1, 2, 3), "bad snapshot magic"},
	}
	for name, tc := range cases {
		if _, _, err := DecodeForest(tc.data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s snapshot: error %v, want one mentioning %q", name, err, tc.want)
		}
	}
}

func TestSnapshotRejectsCorruptCounts(t *testing.T) {
	f := trainForest(t, 3, 500)
	data := f.AppendTo(nil, frame.Flate)
	// Corrupt the tree count (config Trees field) to something absurd.
	// Offset: magic(4) + 6 counters (48) = 52 is the Trees field.
	for i := 52; i < 60; i++ {
		data[i] = 0xff
	}
	if _, _, err := DecodeForest(data); err == nil {
		t.Fatal("corrupt tree count accepted")
	}
}

// TestSnapshotV2Deterministic: parallel encode must be byte-identical
// across runs (worker scheduling cannot leak into the output), and a
// v2 round trip must re-serialize to the same bytes.
func TestSnapshotV2Deterministic(t *testing.T) {
	f := trainForest(t, 12, 2000)
	a, b := f.AppendTo(nil, frame.Flate), f.AppendTo(nil, frame.Flate)
	if !bytes.Equal(a, b) {
		t.Fatal("two encodes of the same forest differ")
	}
	if c := decodeWhole(t, a).AppendTo(nil, frame.Flate); !bytes.Equal(a, c) {
		t.Fatal("v2 round trip is not bit-identical")
	}
}

// setGOMAXPROCS sets GOMAXPROCS for the rest of the test: forEachTree
// reads it per call, so this is how a test picks the codec's parallel
// (n > 1) or sequential (n == 1) path whatever the host has.
func setGOMAXPROCS(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestSnapshotV2ParallelWorkers forces the codec's parallel path (a
// single-core machine would otherwise never take it) and requires the
// parallel encode to be deterministic, the parallel decode to
// round-trip bit-identically, and block corruption to surface through
// the per-range error path.
func TestSnapshotV2ParallelWorkers(t *testing.T) {
	setGOMAXPROCS(t, 4)
	cfg := Config{Trees: 8, NumTests: 15, MinParentSize: 30, MinGain: 0.03,
		LambdaPos: 1, LambdaNeg: 1, Seed: 14}
	f := New(3, cfg)
	r := rng.New(15)
	for i := 0; i < 2000; i++ {
		x, y := streamSample(r, 0.3, 0.5)
		f.Update(x, y)
	}

	a, b := f.AppendTo(nil, frame.Flate), f.AppendTo(nil, frame.Flate)
	if !bytes.Equal(a, b) {
		t.Fatal("two parallel encodes of the same forest differ")
	}
	if c := decodeWhole(t, a).AppendTo(nil, frame.Flate); !bytes.Equal(a, c) {
		t.Fatal("parallel round trip is not bit-identical")
	}

	// Corruption inside a tree block must surface through the parallel
	// decode's per-range error slice, not panic or pass.
	bad := append([]byte(nil), a...)
	bad[len(bad)-9] ^= 0x40
	if _, _, err := DecodeForest(bad); err == nil {
		t.Fatal("parallel decode accepted a corrupted tree block")
	}
}

// TestSnapshotBytesIgnoreHostCores: the same records must give the same
// snapshot bytes on a 1-core and a 4-core host, or a leader and a
// follower that was not seeded from it disagree on DumpModel. (They did
// while the header carried a worker count defaulted from GOMAXPROCS.)
func TestSnapshotBytesIgnoreHostCores(t *testing.T) {
	var got [2][]byte
	for i, procs := range []int{1, 4} {
		setGOMAXPROCS(t, procs)
		got[i] = trainForest(t, 16, 1500).AppendTo(nil, frame.Flate)
	}
	if !bytes.Equal(got[0], got[1]) {
		t.Fatal("snapshot bytes differ between GOMAXPROCS 1 and 4")
	}
}

// TestSnapshotFromBeforeReservedSlot loads testdata written by the last
// binary whose header carried a worker count (Workers: 4, PR 19; the
// forest is Trees 3, NumTests 4, seed 20 after 400 samples): it must
// score the recorded probe bit for bit and re-encode to the same bytes
// except inside the header block, where the slot is now zero.
func TestSnapshotFromBeforeReservedSlot(t *testing.T) {
	for _, c := range []struct {
		file  string
		codec frame.Codec
	}{
		{"testdata/pr19_workers4.orf2-flate", frame.Flate},
		{"testdata/pr19_workers4.orf2-raw", frame.Raw},
	} {
		old, err := os.ReadFile(c.file)
		if err != nil {
			t.Fatal(err)
		}
		f, rest, err := DecodeForest(old)
		if err != nil || len(rest) != 0 {
			t.Fatalf("%s: %v (%d bytes after the forest)", c.file, err, len(rest))
		}
		const wantBits = 0x3fe7c8bc8bc8bc8c
		if got := math.Float64bits(f.PredictProba([]float64{0.62, 0.58, 0.4})); got != wantBits {
			t.Fatalf("%s: probe scores %#x, recorded %#x", c.file, got, uint64(wantBits))
		}
		enc := f.AppendTo(nil, c.codec)
		// Layout: magic, codec byte, header block, tree blocks.
		afterHeader := func(snap []byte) []byte {
			_, rest, err := frame.SplitBlock(snap[len(magicV2)+1:])
			if err != nil {
				t.Fatalf("%s: header block: %v", c.file, err)
			}
			return rest
		}
		if !bytes.Equal(enc[:len(magicV2)+1], old[:len(magicV2)+1]) ||
			!bytes.Equal(afterHeader(enc), afterHeader(old)) {
			t.Fatalf("%s: re-encoded tree blocks differ from the fixture's", c.file)
		}
		if bytes.Equal(enc, old) {
			t.Fatalf("%s: header re-encoded unchanged; the fixture does not carry a worker count", c.file)
		}
	}
}

func TestSnapshotV2Compresses(t *testing.T) {
	f := trainForest(t, 13, 3000)
	raw, v2 := f.AppendTo(nil, frame.Raw), f.AppendTo(nil, frame.Flate)
	if len(v2)*2 > len(raw) {
		t.Fatalf("v2 snapshot %d bytes vs raw %d; want at least 2x smaller", len(v2), len(raw))
	}
}

func TestSnapshotV2RawCodec(t *testing.T) {
	f := trainForest(t, 14, 1500)
	g := decodeWhole(t, f.AppendTo(nil, frame.Raw))
	if fs, gs := f.Stats(), g.Stats(); fs != gs {
		t.Fatalf("stats differ after raw-codec round trip: %+v vs %+v", fs, gs)
	}
}

func TestSnapshotV2RejectsCorruption(t *testing.T) {
	f := trainForest(t, 15, 1500)
	enc := f.AppendTo(nil, frame.Flate)
	// Flip one byte inside the last tree block: the frame CRC must
	// catch it.
	mut := append([]byte(nil), enc...)
	mut[len(mut)-9] ^= 0x55
	if _, _, err := DecodeForest(mut); err == nil {
		t.Fatal("corrupt tree block accepted")
	}
	// Truncation anywhere must error, never hang or panic.
	for _, n := range []int{4, 5, 16, len(enc) / 2, len(enc) - 3} {
		if _, _, err := DecodeForest(enc[:n]); err == nil {
			t.Fatalf("truncated snapshot (%d/%d bytes) accepted", n, len(enc))
		}
	}
}

func TestSnapshotPreservesConfig(t *testing.T) {
	cfg := Config{Trees: 5, NumTests: 7, MinParentSize: 33, MinGain: 0.07,
		LambdaPos: 1.5, LambdaNeg: 0.04, MaxDepth: 9, Seed: 77}
	f := New(4, cfg)
	g := decodeWhole(t, f.AppendTo(nil, frame.Flate))
	want := cfg.withDefaults()
	if g.Config() != want {
		t.Fatalf("config not preserved:\n got %+v\nwant %+v", g.Config(), want)
	}
	if g.Dim() != 4 {
		t.Fatalf("dim = %d", g.Dim())
	}
}

// TestCodecAllocs bounds the allocations of AppendTo (into a reused
// buffer) and DecodeForest per tree, counters that repeat on any host
// (AllocsPerRun runs forEachTree on one goroutine). Measured on
// trainForest(1, 3000), 8 trees: AppendTo 3.9 (flate) and 2.8 (raw) per
// tree, DecodeForest 39.5 and 10.3, most of it the nodes' test pools
// and, under flate, compress/flate's Huffman tables. When the codec
// streamed 8-byte words through io.Writer and io.Reader, each word cost
// an allocation: over 600 per tree either way.
func TestCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	f := trainForest(t, 1, 3000)
	trees := float64(len(f.trees))
	for _, c := range []struct {
		codec          frame.Codec
		append, decode float64 // per tree
	}{
		{frame.Flate, 6, 50},
		{frame.Raw, 4, 14},
	} {
		enc := f.AppendTo(nil, c.codec)
		buf := f.AppendTo(nil, c.codec)
		if got := testing.AllocsPerRun(50, func() { buf = f.AppendTo(buf[:0], c.codec) }) / trees; got > c.append {
			t.Errorf("%v: AppendTo allocates %.1f times per tree, want <= %v", c.codec, got, c.append)
		}
		if got := testing.AllocsPerRun(50, func() {
			if _, _, err := DecodeForest(enc); err != nil {
				t.Fatal(err)
			}
		}) / trees; got > c.decode {
			t.Errorf("%v: DecodeForest allocates %.1f times per tree, want <= %v", c.codec, got, c.decode)
		}
	}
}

// misshapenTrees damage a trained tree into a shape split never makes.
// Each encodes to CRC-valid blocks, and each loaded before readTree
// checked the shape: scoring the first two panicked, the third never
// returned, and updates through a bad test index past the sample.
var misshapenTrees = []struct {
	name, want string
	damage     func(t *onlineTree)
}{
	{"split feature past dim", "node 0 feature 7", func(t *onlineTree) { t.nodes[0].feature = 7 }},
	{"left child -1", "node 0 children -1/", func(t *onlineTree) { t.nodes[0].left = -1 }},
	{"left child is the root", "node 0 children 0/", func(t *onlineTree) { t.nodes[0].left = 0 }},
	{"a child of two nodes", "children", func(t *onlineTree) { t.nodes[0].right = t.nodes[0].left }},
	{"test feature past dim", "feature 3, dim 3", func(t *onlineTree) { pooledTest(t).feature = 3 }},
	{"negative test feature", "feature -1, dim 3", func(t *onlineTree) { pooledTest(t).feature = -1 }},
}

// pooledTest is the first test in t's first leaf that holds any.
func pooledTest(t *onlineTree) *test {
	for i := range t.nodes {
		if len(t.nodes[i].tests) > 0 {
			return &t.nodes[i].tests[0]
		}
	}
	panic("no pooled test")
}

// misshapenForest is trainForest(6, 3000) with its first tree damaged.
func misshapenForest(tb testing.TB, damage func(*onlineTree)) *Forest {
	f := trainForest(tb, 6, 3000)
	if f.trees[0].nodes[0].feature < 0 {
		tb.Fatal("fixture: the first tree never split")
	}
	damage(f.trees[0])
	return f
}

// TestDecodeRefusesMisshapenTrees: a tree whose shape split never makes
// fails DecodeForest under either codec (the frame's CRC is valid; the
// damage is in what it carries).
func TestDecodeRefusesMisshapenTrees(t *testing.T) {
	for _, tc := range misshapenTrees {
		f := misshapenForest(t, tc.damage)
		for _, codec := range []frame.Codec{frame.Flate, frame.Raw} {
			_, _, err := DecodeForest(f.AppendTo(nil, codec))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s (%v): error %v, want one mentioning %q", tc.name, codec, err, tc.want)
			}
		}
	}
	if _, _, err := DecodeForest(trainForest(t, 6, 3000).AppendTo(nil, frame.Raw)); err != nil {
		t.Fatalf("the undamaged fixture: %v", err)
	}
}
