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

func TestSnapshotRoundTripPredictions(t *testing.T) {
	f := trainForest(t, 1, 3000)
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := ReadForest(&buf)
	if err != nil {
		t.Fatal(err)
	}
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
	var buf bytes.Buffer
	if _, err := resumed.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadForest(&buf)
	if err != nil {
		t.Fatal(err)
	}
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
		if _, err := ReadForest(bytes.NewReader(tc.data)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s snapshot: error %v, want one mentioning %q", name, err, tc.want)
		}
	}
}

func TestSnapshotRejectsCorruptCounts(t *testing.T) {
	f := trainForest(t, 3, 500)
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt the tree count (config Trees field) to something absurd.
	// Offset: magic(4) + 6 counters (48) = 52 is the Trees field.
	for i := 52; i < 60; i++ {
		data[i] = 0xff
	}
	if _, err := ReadForest(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupt tree count accepted")
	}
}

// TestSnapshotV2Deterministic: parallel encode must be byte-identical
// across runs (worker scheduling cannot leak into the output), and a
// v2 round trip must re-serialize to the same bytes.
func TestSnapshotV2Deterministic(t *testing.T) {
	f := trainForest(t, 12, 2000)
	var a, b bytes.Buffer
	if _, err := f.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two encodes of the same forest differ")
	}
	g, err := ReadForest(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if _, err := g.WriteTo(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
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

	var a, b bytes.Buffer
	if _, err := f.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two parallel encodes of the same forest differ")
	}

	g, err := ReadForest(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if _, err := g.WriteTo(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("parallel round trip is not bit-identical")
	}

	// Corruption inside a tree block must surface through the parallel
	// decode's per-range error slice, not panic or pass.
	bad := append([]byte(nil), a.Bytes()...)
	bad[len(bad)-9] ^= 0x40
	if _, err := ReadForest(bytes.NewReader(bad)); err == nil {
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
		var buf bytes.Buffer
		if _, err := trainForest(t, 16, 1500).WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		got[i] = buf.Bytes()
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
		write func(*Forest, io.Writer) (int64, error)
	}{
		{"testdata/pr19_workers4.orf2-flate", (*Forest).WriteTo},
		{"testdata/pr19_workers4.orf2-raw", (*Forest).WriteToRaw},
	} {
		old, err := os.ReadFile(c.file)
		if err != nil {
			t.Fatal(err)
		}
		f, err := ReadForest(bytes.NewReader(old))
		if err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		const wantBits = 0x3fe7c8bc8bc8bc8c
		if got := math.Float64bits(f.PredictProba([]float64{0.62, 0.58, 0.4})); got != wantBits {
			t.Fatalf("%s: probe scores %#x, recorded %#x", c.file, got, uint64(wantBits))
		}
		var buf bytes.Buffer
		if _, err := c.write(f, &buf); err != nil {
			t.Fatal(err)
		}
		// Layout: magic, codec byte, header block, tree blocks.
		afterHeader := func(snap []byte) []byte {
			r := bytes.NewReader(snap[len(magicV2)+1:])
			if _, err := frame.ReadBlockRaw(r, nil); err != nil {
				t.Fatalf("%s: header block: %v", c.file, err)
			}
			return snap[len(snap)-r.Len():]
		}
		if !bytes.Equal(buf.Bytes()[:len(magicV2)+1], old[:len(magicV2)+1]) ||
			!bytes.Equal(afterHeader(buf.Bytes()), afterHeader(old)) {
			t.Fatalf("%s: re-encoded tree blocks differ from the fixture's", c.file)
		}
		if bytes.Equal(buf.Bytes(), old) {
			t.Fatalf("%s: header re-encoded unchanged; the fixture does not carry a worker count", c.file)
		}
	}
}

func TestSnapshotV2Compresses(t *testing.T) {
	f := trainForest(t, 13, 3000)
	var raw, v2 bytes.Buffer
	if _, err := f.WriteToRaw(&raw); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteTo(&v2); err != nil {
		t.Fatal(err)
	}
	if v2.Len()*2 > raw.Len() {
		t.Fatalf("v2 snapshot %d bytes vs raw %d; want at least 2x smaller", v2.Len(), raw.Len())
	}
}

func TestSnapshotV2RawCodec(t *testing.T) {
	f := trainForest(t, 14, 1500)
	var raw bytes.Buffer
	if _, err := f.WriteToRaw(&raw); err != nil {
		t.Fatal(err)
	}
	g, err := ReadForest(bytes.NewReader(raw.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if fs, gs := f.Stats(), g.Stats(); fs != gs {
		t.Fatalf("stats differ after raw-codec round trip: %+v vs %+v", fs, gs)
	}
}

func TestSnapshotV2RejectsCorruption(t *testing.T) {
	f := trainForest(t, 15, 1500)
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	// Flip one byte inside the last tree block: the frame CRC must
	// catch it.
	mut := append([]byte(nil), enc...)
	mut[len(mut)-9] ^= 0x55
	if _, err := ReadForest(bytes.NewReader(mut)); err == nil {
		t.Fatal("corrupt tree block accepted")
	}
	// Truncation anywhere must error, never hang or panic.
	for _, n := range []int{4, 5, 16, len(enc) / 2, len(enc) - 3} {
		if _, err := ReadForest(bytes.NewReader(enc[:n])); err == nil {
			t.Fatalf("truncated snapshot (%d/%d bytes) accepted", n, len(enc))
		}
	}
}

func TestSnapshotPreservesConfig(t *testing.T) {
	cfg := Config{Trees: 5, NumTests: 7, MinParentSize: 33, MinGain: 0.07,
		LambdaPos: 1.5, LambdaNeg: 0.04, MaxDepth: 9, Seed: 77}
	f := New(4, cfg)
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := ReadForest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.withDefaults()
	if g.Config() != want {
		t.Fatalf("config not preserved:\n got %+v\nwant %+v", g.Config(), want)
	}
	if g.Dim() != 4 {
		t.Fatalf("dim = %d", g.Dim())
	}
}
