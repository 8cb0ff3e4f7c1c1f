package orfdisk

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"orfdisk/internal/core"
	"orfdisk/internal/frame"
	"orfdisk/internal/smart"
)

func TestSaveLoadStateRoundTrip(t *testing.T) {
	g := smallFleet(t, 5)
	p := NewPredictor(Config{Horizon: 4, ORF: ORFConfig{Trees: 8, MinParentSize: 50, Seed: 11}})
	// Reference predictor fed the identical stream, never serialized.
	ref := NewPredictor(Config{Horizon: 4, ORF: ORFConfig{Trees: 8, MinParentSize: 50, Seed: 11}})
	var stream []Observation
	err := g.Stream(func(s smart.Sample) error {
		stream = append(stream, Observation{
			Serial: s.Serial, Day: s.Day, Failed: s.Failure, Values: s.Values,
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cut := len(stream) / 2
	for _, o := range stream {
		if _, err := ref.Ingest(o); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range stream[:cut] {
		if _, err := p.Ingest(o); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := p.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := LoadPredictorState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.TrackedDisks() != p.TrackedDisks() || q.PendingSamples() != p.PendingSamples() {
		t.Fatalf("queues not restored: %d/%d disks, %d/%d pending",
			q.TrackedDisks(), p.TrackedDisks(), q.PendingSamples(), p.PendingSamples())
	}
	// Unlike the model alone (appendModel, queues dropped), SaveState must reproduce the
	// uninterrupted run exactly when fed the remaining stream.
	for _, o := range stream[cut:] {
		if _, err := q.Ingest(o); err != nil {
			t.Fatal(err)
		}
	}
	if q.Stats() != ref.Stats() {
		t.Fatalf("state round trip diverged from uninterrupted run:\n%+v\n%+v",
			q.Stats(), ref.Stats())
	}
}

// TestSaveStateBitIdenticalRoundTrip proves the ORF2 snapshot pipeline
// end to end at the SaveState level: restoring a saved state and saving
// it again must reproduce the exact same bytes — parallel per-tree
// compression included.
func TestSaveStateBitIdenticalRoundTrip(t *testing.T) {
	g := smallFleet(t, 7)
	p := NewPredictor(Config{Horizon: 4, ORF: ORFConfig{Trees: 8, MinParentSize: 50, Seed: 21}})
	err := g.Stream(func(s smart.Sample) error {
		_, err := p.Ingest(Observation{
			Serial: s.Serial, Day: s.Day, Failed: s.Failure, Values: s.Values,
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := p.SaveState(&first); err != nil {
		t.Fatal(err)
	}
	q, err := LoadPredictorState(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := q.SaveState(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("SaveState round trip not bit-identical: %d vs %d bytes",
			first.Len(), second.Len())
	}
}

func TestSaveLoadModelRoundTrip(t *testing.T) {
	g := smallFleet(t, 3)
	p := NewPredictor(Config{ORF: ORFConfig{Trees: 10, MinParentSize: 50, Seed: 4}})
	err := g.Stream(func(s smart.Sample) error {
		_, err := p.Ingest(Observation{
			Serial: s.Serial, Day: s.Day, Failed: s.Failure, Values: s.Values,
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	p.SetThreshold(0.62)

	q, rest, err := decodeModel(p.appendModel(nil))
	if err != nil || len(rest) != 0 {
		t.Fatalf("%v (%d bytes after the model)", err, len(rest))
	}
	if q.Threshold() != 0.62 || q.Horizon() != p.Horizon() {
		t.Fatalf("settings not restored: threshold %v horizon %d", q.Threshold(), q.Horizon())
	}
	if q.Stats() != p.Stats() {
		t.Fatalf("forest stats differ:\n%+v\n%+v", q.Stats(), p.Stats())
	}
	// Scores must be identical on fresh observations.
	for _, m := range g.Disks()[:20] {
		ss := g.DiskSamples(m)
		last := ss[len(ss)-1]
		sp, err1 := p.Score(last.Values)
		sq, err2 := q.Score(last.Values)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if sp != sq {
			t.Fatalf("scores differ after reload: %v vs %v", sp, sq)
		}
	}
}

func TestLoadedPredictorKeepsLearning(t *testing.T) {
	p := NewPredictor(Config{Horizon: 2, ORF: ORFConfig{Trees: 3, Seed: 1}})
	v := make([]float64, CatalogSize())
	for day := 0; day < 5; day++ {
		if _, err := p.Ingest(Observation{Serial: "d", Day: day, Values: v}); err != nil {
			t.Fatal(err)
		}
	}
	q, rest, err := decodeModel(p.appendModel(nil))
	if err != nil || len(rest) != 0 {
		t.Fatalf("%v (%d bytes after the model)", err, len(rest))
	}
	before := q.Stats().Updates
	// Queues are empty after load; two ingests fill the horizon-2 queue,
	// the third releases a negative into the forest.
	for day := 5; day < 8; day++ {
		if _, err := q.Ingest(Observation{Serial: "d", Day: day, Values: v}); err != nil {
			t.Fatal(err)
		}
	}
	if q.Stats().Updates != before+1 {
		t.Fatalf("loaded predictor did not resume learning: %d -> %d",
			before, q.Stats().Updates)
	}
}

// TestLoadPredictorRejectsGarbage: the model part of a state, which
// decodeModel reads after the state magic, fails on a damaged header or
// a forest under the retired ORF1 magic.
func TestLoadPredictorRejectsGarbage(t *testing.T) {
	// An intact model up to its forest, which starts with its magic.
	p := NewPredictor(Config{ORF: ORFConfig{Trees: 2, Seed: 1}})
	model, forest := p.appendModel(nil), p.forest.AppendTo(nil, frame.Flate)
	head := string(model[:len(model)-len(forest)])
	cases := map[string]struct{ data, want string }{
		"empty":               {"", "reading model header"},
		"bad magic":           {"WHAT????????????", "bad model magic"},
		"truncated":           {"ODP1\x01\x02", "reading model"},
		"retired ORF1 forest": {head + "ORF1\x01\x02\x03", "bad snapshot magic"},
	}
	for name, tc := range cases {
		if _, _, err := decodeModel([]byte(tc.data)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s model: error %v, want one mentioning %q", name, err, tc.want)
		}
	}
}

func TestLoadPredictorStateRejectsGarbage(t *testing.T) {
	cases := map[string]struct{ data, want string }{
		"empty":           {"", "reading state header"},
		"bad magic":       {"NOPE............", "bad state magic"},
		"no model":        {"ODS3", "reading model header"},
		"bad model magic": {"ODS3WHAT????????????", "bad model magic"},
		"truncated model": {"ODS3ODP1\x01\x02", "reading model"},
	}
	for name, tc := range cases {
		if _, err := LoadPredictorState(strings.NewReader(tc.data)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s state: error %v, want one mentioning %q", name, err, tc.want)
		}
	}
}

func saveState(t testing.TB, p *Predictor) []byte {
	t.Helper()
	b, err := p.appendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// statePredictor is a trained predictor with live queues, and the number
// of bytes the model part of its saved state takes (the queue section
// starts right after).
func statePredictor(t testing.TB, seed uint64, cfg Config) (p *Predictor, modelLen int) {
	t.Helper()
	p = NewPredictor(cfg)
	err := smallFleet(t, seed).Stream(func(s smart.Sample) error {
		// The fleet's last month stays queued: stop short of its end so
		// failed and live disks are both on file.
		if s.Day >= 200 {
			return nil
		}
		_, err := p.Ingest(Observation{Serial: s.Serial, Day: s.Day, Failed: s.Failure, Values: s.Values})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, queueOffset(t, p)
}

// queueOffset is where the queue section starts in p's saved state:
// after the magic and the model.
func queueOffset(t testing.TB, p *Predictor) int {
	t.Helper()
	return len(stateMagic) + len(p.appendModel(nil))
}

// allocatedBy reports the bytes fn allocates (process-wide: the tests of
// this package do not run in parallel).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLoadPredictorStateRejectsDamage: a damaged queue section fails
// the load with a corrupt-state error, and an intact state under the
// retired ODS1 or ODS2 magic with a refusal that names the remedy. It
// never panics, and no count or length in it buys an allocation: a
// damaged load allocates at most what the intact one does plus 16x the
// input (a packed value of half a byte decodes to 8).
func TestLoadPredictorStateRejectsDamage(t *testing.T) {
	p, q0 := statePredictor(t, 9, Config{ORF: ORFConfig{Trees: 5, MinParentSize: 50, Seed: 3}})
	// Damage is cut into the one layout this release writes; the retired
	// ones are refusal cases of it.
	t.Run("ODS3", func(t *testing.T) { checkStateDamage(t, p, q0, saveState(t, p)) })
}

// checkStateDamage runs TestLoadPredictorStateRejectsDamage's cases on
// good, p's saved state, whose queue section starts at q0.
func checkStateDamage(t *testing.T, p *Predictor, q0 int, good []byte) {
	// Offsets of the first disk's fields in the queue section.
	uvarint := func(off int) (v uint64, next int) {
		v, n := binary.Uvarint(good[off:])
		if n <= 0 {
			t.Fatalf("no uvarint at %d", off)
		}
		return v, off + n
	}
	disks, serialAt := uvarint(q0)
	serialLen, serial := uvarint(serialAt)
	nAt := serial + int(serialLen)
	n, sizeAt := uvarint(nAt)
	size, block := uvarint(sizeAt)
	_, dayLen := binary.Varint(good[block:])
	codes := block + dayLen
	if len(p.features)%2 != 1 || n < 2 || size == 0 {
		t.Fatalf("fixture: %d features, first queue %d samples in %d bytes", len(p.features), n, size)
	}

	splice := func(b []byte, from, to int, with []byte) []byte {
		return slices.Concat(b[:from], with, b[to:])
	}
	// seal gives a state cut before its checksum the checksum its queue
	// section deserves, so that the damage under test is what the loader
	// trips over, not the CRC.
	seal := func(b []byte) []byte {
		return binary.LittleEndian.AppendUint32(slices.Clip(b), crc32.ChecksumIEEE(b[q0:]))
	}
	body := good[:len(good)-4]
	set := func(off int, v byte) []byte {
		b := slices.Clone(body)
		b[off] = v
		return seal(b)
	}
	flip := func(off int) []byte {
		b := slices.Clone(good)
		b[off] ^= 1
		return b
	}
	u64 := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	cases := []struct {
		name, want string
		data       []byte
	}{
		{"disk count 2^62", "cut short", seal(splice(body, q0, serialAt, uv(1<<62)))},
		{"retired ODS1 magic", "ODS1 is retired", splice(good, 0, len(stateMagic), []byte("ODS1"))},
		{"retired ODS2 magic", "ODS2 is retired", splice(good, 0, len(stateMagic), []byte("ODS2"))},
		{"truncated file", "CRC", good[:block+int(size)/2]},
		{"truncated block", "cut short", seal(body[:block+int(size)/2])},
		{"block length 2^40", "-byte block for", seal(splice(body, sizeAt, block, uv(1<<40)))},
		{"block length one short", "packed value", seal(splice(body, sizeAt, block, uv(size-1)))},
		{"block length one over", "trailing bytes in a queue block", seal(splice(body, sizeAt, block, uv(size+1)))},
		{"queue longer than the horizon", "> horizon", seal(splice(body, nAt, sizeAt, uv(1<<20)))},
		{"empty queue", "empty queue", seal(splice(body, nAt, block+int(size), uv(0)))},
		{"a disk twice", "not in serial order", seal(slices.Concat(body[:q0], uv(disks+1), body[serialAt:block+int(size)], body[serialAt:]))},
		{"serial of 2^40 bytes", "cut short", seal(splice(body, serialAt, serial, uv(1<<40)))},
		{"code 15 in a disk's first sample", "code 15", set(codes, body[codes]|0x0F)},
		{"non-zero pad nibble", "pad", set(codes+len(p.features)/2, body[codes+len(p.features)/2]|0x10)},
		{"bytes after the last queue", "trailing bytes after", seal(append(slices.Clone(body), 0))},
		{"flipped payload bit", "CRC", flip(block + int(size) - 1)},
		{"flipped checksum bit", "CRC", flip(len(good) - 1)},
		{"checksum missing", "CRC", body},
		{"queue section missing", "no queue checksum", good[:q0+2]},
		{"horizon 2^40", "corrupt model (horizon", splice(good, 8, 16, u64(1<<40))},
	}
	load := func(data []byte) (err error) {
		_, err = LoadPredictorState(bytes.NewReader(data))
		return err
	}
	// Intact, it loads to the predictor that saved it.
	if q, err := LoadPredictorState(bytes.NewReader(good)); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(saveState(t, q), saveState(t, p)) {
		t.Fatal("the intact state loads to another predictor than the one that saved it")
	}
	intact := allocatedBy(func() { load(good) })
	for _, tc := range cases {
		var err error
		got := allocatedBy(func() { err = load(tc.data) })
		switch {
		case err == nil:
			t.Errorf("%s: accepted", tc.name)
		case !strings.HasPrefix(err.Error(), "orfdisk: corrupt ") && !strings.Contains(err.Error(), "is retired and this release does not read it"):
			t.Errorf("%s: error %q, want an \"orfdisk: corrupt state (...)\" one or a refusal naming the remedy", tc.name, err)
		case !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q, want one about %q", tc.name, err, tc.want)
		}
		if limit := intact + 16*uint64(len(tc.data)); got > limit {
			t.Errorf("%s: allocated %d bytes loading %d, limit %d", tc.name, got, len(tc.data), limit)
		}
	}
}

// TestLoadPredictorStateRefusesMisshapenTrees: a state whose forest
// carries a tree of a shape no forest writes, in a tree block with a
// valid CRC, fails to load (internal/core's
// TestDecodeRefusesMisshapenTrees has the same cases against
// DecodeForest). The damage is cut into the first tree block's 8-byte
// words: 10 of tree state, then per node 10 (feature, threshold, left,
// right, ... the pool's size last) and 6 per pooled test (feature
// first).
func TestLoadPredictorStateRefusesMisshapenTrees(t *testing.T) {
	p, _ := statePredictor(t, 9, Config{ORF: ORFConfig{Trees: 2, MinParentSize: 50, Seed: 3}})
	good := saveState(t, p)
	// The forest ends the model: magic, codec byte, header block, then
	// the tree blocks.
	forestAt := queueOffset(t, p) - len(p.forest.AppendTo(nil, frame.Flate))
	_, trees, err := frame.SplitBlock(good[forestAt+len("ORF2")+1:])
	if err != nil {
		t.Fatal(err)
	}
	blk, after, err := frame.SplitBlock(trees)
	if err != nil {
		t.Fatal(err)
	}
	raw, _, err := frame.DecodeBlock(blk)
	if err != nil {
		t.Fatal(err)
	}
	word := func(i int) uint64 { return binary.LittleEndian.Uint64(raw[8*i:]) }
	const root, feature, left, right, pool = 10, 0, 2, 3, 9
	if int64(word(root+feature)) < 0 {
		t.Fatal("fixture: the first tree never split")
	}
	firstTest := root
	for word(firstTest+pool) == 0 {
		firstTest += 10
	}
	firstTest += 10
	with := func(i int, v int64) []byte {
		b := slices.Clone(raw)
		binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
		return slices.Concat(good[:len(good)-len(trees)], frame.AppendBlock(nil, b, frame.Raw), after)
	}
	dim := int64(len(p.features))
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"split feature past dim", with(root+feature, dim)},
		{"left child -1", with(root+left, -1)},
		{"left child is the root", with(root+left, 0)},
		{"a child of two nodes", with(root+right, int64(word(root+left)))},
		{"test feature past dim", with(firstTest, dim)},
		{"negative test feature", with(firstTest, -1)},
	} {
		_, err := LoadPredictorState(bytes.NewReader(tc.data))
		if err == nil || !strings.Contains(err.Error(), "core: corrupt snapshot") {
			t.Errorf("%s: error %v, want a corrupt snapshot", tc.name, err)
		}
	}
	if _, err := LoadPredictorState(bytes.NewReader(with(root+feature, int64(word(root+feature))))); err != nil {
		t.Fatalf("the re-framed intact tree: %v", err)
	}
}

// TestStateCodecAllocs bounds the allocations of appendState (into a
// reused buffer) and decodeState on a small fleet, counters that repeat
// on any host. Measured on statePredictor(9), 164 disks and 5 trees:
// appendState 32, about 6 a tree; decodeState 761, about 3 a disk (its
// serial, its queue and the labeler's map) and 50 a tree (see
// internal/core's TestCodecAllocs). When the codec streamed the model
// through io.Writer and io.Reader 8 bytes at a time, each word cost an
// allocation: 14,263 to save this state and 14,922 to load it.
func TestStateCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const trees = 5
	p, _ := statePredictor(t, 9, Config{ORF: ORFConfig{Trees: trees, MinParentSize: 50, Seed: 3}})
	state := saveState(t, p)
	buf := slices.Clone(state)
	if got, limit := testing.AllocsPerRun(20, func() {
		var err error
		if buf, err = p.appendState(buf[:0]); err != nil {
			t.Fatal(err)
		}
	}), float64(10*trees); got > limit {
		t.Errorf("appendState allocates %v times, want <= %v", got, limit)
	}
	if got, limit := testing.AllocsPerRun(20, func() {
		if _, err := decodeState(state); err != nil {
			t.Fatal(err)
		}
	}), float64(4*p.TrackedDisks()+60*trees); got > limit {
		t.Errorf("decodeState allocates %v times, want <= %v", got, limit)
	}
}

// TestStateBytesPerDisk pins the other exact counter the packed codec
// was sized by: queue-section bytes per tracked disk of a saved state,
// paper configuration (19 features, 7-day queues), seeded fleet. The
// ODS1 layout took 1146.0 B/disk here, and ODS2 (every sample coded on
// its own, absolute days) 217.2.
func TestStateBytesPerDisk(t *testing.T) {
	const maxPerDisk = 152.0 // this implementation: 151.4
	p, modelLen := statePredictor(t, 11, Config{ORF: ORFConfig{Trees: 5, MinParentSize: 50, Seed: 3}})
	disks := float64(p.TrackedDisks())
	perDisk := float64(len(saveState(t, p))-modelLen) / disks
	t.Logf("%v disks: %.1f B/disk", disks, perDisk)
	if perDisk > maxPerDisk {
		t.Errorf("queue section is %.1f B per tracked disk, want <= %.1f", perDisk, maxPerDisk)
	}
}

// TestLabelerBytesPerDisk bounds the heap the labeling queues hold per
// tracked disk on BenchmarkStateCodec's fleet (labelerBytesPerDisk). A
// queue of one []float64 per sample held 1,477 B/disk there; packed,
// the samples take ~30 B each.
func TestLabelerBytesPerDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("absorbs a 2,050-disk month")
	}
	const maxPerDisk = 550.0
	perDisk := labelerBytesPerDisk(t, codecFleet(t))
	t.Logf("%.1f B/disk", perDisk)
	if perDisk > maxPerDisk {
		t.Errorf("labeling queues hold %.1f B per tracked disk, want <= %.1f", perDisk, maxPerDisk)
	}
}

// FuzzLoadPredictorState: no input makes the loader panic, and nothing
// loads that does not start with the ODS3 magic (seeds are an intact
// state under the retired ODS1 and ODS2 ones). An even mode feeds it the
// bytes as a whole file; an odd one puts them behind an intact model as
// the queue section, with the CRC the bytes deserve so the fuzzer gets
// past the checksum, where allocation must stay linear in the input: no
// count or length in it is believed before the bytes it stands for
// arrive.
func FuzzLoadPredictorState(f *testing.F) {
	// A few disks and two young trees: seeds of ~2 kB, which the fuzzer
	// mutates and minimizes a hundred times faster than a fleet's.
	p := NewPredictor(Config{Horizon: 3, ORF: ORFConfig{Trees: 2, Seed: 1}})
	for day := 0; day < 5; day++ {
		for d := 0; d < 4; d++ {
			v := make([]float64, CatalogSize())
			for i := range v {
				v[i] = float64((day*(d+3) + i*i) % 23 * (i%5 + d))
			}
			v[d] = 415.3
			if _, err := p.Ingest(Observation{Serial: fmt.Sprintf("d%d", d), Day: day, Failed: d == 3 && day == 3, Values: v}); err != nil {
				f.Fatal(err)
			}
		}
	}
	q0 := queueOffset(f, p)
	good := saveState(f, p)
	f.Add(good, uint8(0))
	f.Add(slices.Concat([]byte("ODS1"), good[len(stateMagic):]), uint8(0))
	f.Add(slices.Concat([]byte("ODS2"), good[len(stateMagic):]), uint8(0))
	f.Add(good[:q0], uint8(0))          // no queue section
	f.Add(good[:len(good)-4], uint8(0)) // no checksum
	f.Add(good[q0:len(good)-4], uint8(1))
	f.Add([]byte{}, uint8(1))
	intact := allocatedBy(func() { LoadPredictorState(bytes.NewReader(good)) })
	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		input := data
		if mode%2 == 1 {
			input = binary.LittleEndian.AppendUint32(slices.Concat(good[:q0], data), crc32.ChecksumIEEE(data))
		}
		var q *Predictor
		var err error
		got := allocatedBy(func() { q, err = LoadPredictorState(bytes.NewReader(input)) })
		if err == nil {
			if !bytes.HasPrefix(input, []byte(stateMagic)) {
				t.Fatalf("loaded a state that starts %q", input[:len(stateMagic)])
			}
			// What loads must be usable: it saves, and the save loads.
			if _, err := LoadPredictorState(bytes.NewReader(saveState(t, q))); err != nil {
				t.Fatalf("re-saved state: %v", err)
			}
		}
		// Linear with a generous factor: an empty queue of a disk with a
		// one-byte serial is 3 bytes on file and a ring, a map entry and a
		// string in memory.
		if limit := 2*intact + 1024*uint64(len(data)); mode%2 == 1 && got > limit {
			t.Fatalf("allocated %d bytes for a %d-byte queue section (limit %d)", got, len(data), limit)
		}
	})
}

// TestStateRefusesBadForestConfig: a forest header's config, under a
// valid CRC, that would have the model's next update fill every new
// leaf's test pool without limit, or run on a non-finite rate, fails
// both the forest decode and the whole state's load.
func TestStateRefusesBadForestConfig(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		orf        ORFConfig
	}{
		{"tests per leaf 2^40", "tests per leaf 1099511627776", ORFConfig{NumTests: 1 << 40}},
		{"max depth 2^40", "max depth 1099511627776", ORFConfig{MaxDepth: 1 << 40}},
		{"age threshold 2^40", "age threshold 1099511627776", ORFConfig{AgeThreshold: 1 << 40}},
		{"replace cooldown 2^40", "replace cooldown 1099511627776", ORFConfig{ReplaceCooldown: 1 << 40}},
		{"min parent size NaN", "min parent size NaN", ORFConfig{MinParentSize: math.NaN()}},
		{"positive rate +Inf", "positive rate +Inf", ORFConfig{LambdaPos: math.Inf(1)}},
		{"OOBE decay NaN", "OOBE decay NaN", ORFConfig{OOBEDecay: math.NaN()}},
	} {
		tc.orf.Trees, tc.orf.Seed = 2, 1
		if _, _, err := core.DecodeForest(core.New(3, tc.orf).AppendTo(nil, frame.Flate)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: DecodeForest: %v, want an error mentioning %q", tc.name, err, tc.want)
		}
		var state bytes.Buffer
		if err := NewPredictor(Config{ORF: tc.orf}).SaveState(&state); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadPredictorState(&state); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: LoadPredictorState: %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
}
