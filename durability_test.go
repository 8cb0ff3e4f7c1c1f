package orfdisk

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"orfdisk/internal/wal"
)

// copyTree copies the regular files under src into dst, keeping the
// layout (a data directory: snapshots and a wal/ subdirectory).
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAcknowledgedBatchIsFsynced pins the durability cadence from above
// the log: a batch of a few dozen rows or more is on stable storage when
// the call that made it returns — without waiting for the flusher, which
// here never runs — however many records the batch was framed as, while
// single rows still group (group commit is not fsync-per-write).
func TestAcknowledgedBatchIsFsynced(t *testing.T) {
	obs := engineStream(t, 5, 1)
	eng, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: t.TempDir(), SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	w := eng.WAL()

	for i, r := range eng.IngestBatch(obs[:256]) {
		if r.Err != nil {
			t.Fatalf("row %d: %v", i, r.Err)
		}
	}
	if slice, synced := w.NextSeq()-1, w.SyncedSeq(); synced < slice {
		t.Fatalf("IngestBatch of 256 rows returned with its slice at seq %d and the log fsynced through %d", slice, synced)
	}

	cur := BackfillCursor{Day: obs[1279].Day, Rows: 1024, Files: []BackfillFilePos{{Name: "a.csv", Rows: 1024, Off: 1 << 20}}}
	if err := eng.IngestBackfill(obs[256:1280], &cur); err != nil {
		t.Fatal(err)
	}
	if last, synced := w.NextSeq()-1, w.SyncedSeq(); synced < last {
		t.Fatalf("IngestBackfill of 1024 rows returned with its last record at seq %d and the log fsynced through %d", last, synced)
	}

	for _, o := range obs[1280:1320] {
		if _, err := eng.Ingest(o); err != nil {
			t.Fatal(err)
		}
	}
	if last, synced := w.NextSeq()-1, w.SyncedSeq(); synced >= last {
		t.Fatalf("40 single-row Ingests left no unsynced tail (seq %d, fsynced through %d): group commit no longer groups", last, synced)
	}
}

// readTree maps the path of every regular file under dir, relative to it,
// to the file's bytes.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		files[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestRefusesPR20Log: testdata/pr20_wal is the log a PR 20 binary left
// when it was killed — one-row observe records (kinds 6 and 7), which
// this release no longer reads. Starting on it must fail with the error
// that names the remedy (a clean stop of the previous release seals the
// log), and must leave the directory exactly as it found it — nothing
// truncated, sealed or snapshotted — so that remedy still works.
func TestRefusesPR20Log(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "pr20_wal"), dir)
	before := readTree(t, dir)
	eng, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: dir})
	if err == nil {
		eng.Close()
		t.Fatal("NewEngine recovered a log of retired one-row records")
	}
	if !strings.Contains(err.Error(), "kind 6 is a retired one-row observe layout") || !strings.Contains(err.Error(), "stop it cleanly") {
		t.Errorf("NewEngine: %v; want the retired-kind error naming the remedy", err)
	}
	if after := readTree(t, dir); !reflect.DeepEqual(after, before) {
		t.Errorf("the refused directory changed: %d files before, %d after", len(before), len(after))
	}
}

// TestRefusesRetiredLayouts: the layouts only releases older than the
// previous one wrote — ODS1 queues or an ORF1 forest in a snapshot, a
// whole-catalog run (kind 8) in the log — fail NewEngine with an error
// that names the file or the kind and the remedy, and leave the
// directory exactly as they found it, so that the remedy (the previous
// release, stopped cleanly) still works. Each case damages a copy of
// testdata/pr29_dir in one place.
func TestRefusesRetiredLayouts(t *testing.T) {
	snap := snapPrefix + hex.EncodeToString([]byte("MODEL-1")) + snapSuffix
	// retag rewrites the first magic at or after the state's start in the
	// snapshot file.
	retag := func(from, to string) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			path := filepath.Join(dir, snap)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			state := len(snapMagic) + 16 + len("MODEL-1")
			i := bytes.Index(b[state:], []byte(from))
			if i < 0 {
				t.Fatalf("%s holds no %s", snap, from)
			}
			copy(b[state+i:], to)
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, dir string)
		want   []string
	}{
		{"ODS1 snapshot", retag(stateMagic, "ODS1"), []string{snap, "ODS1 is retired", "load it with the previous release"}},
		{"ORF1 forest in a snapshot", retag("ORF2", "ORF1"), []string{snap, "ORF1 is retired", "load it with the previous release"}},
		{"kind-8 tail", func(t *testing.T, dir string) {
			w, err := wal.Open(wal.Options{Dir: filepath.Join(dir, walDirName)})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Append([]byte{recCatalogRun, 1, 'M', 0}); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}, []string{"kind 8 is a retired whole-catalog run observe layout", "stop it cleanly"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			copyTree(t, filepath.Join("testdata", "pr29_dir"), dir)
			tc.damage(t, dir)
			before := readTree(t, dir)
			cfg := engineTestConfig()
			cfg.ORF.MinParentSize = 10
			eng, err := NewEngine(EngineConfig{Predictor: cfg, DataDir: dir})
			if err == nil {
				eng.Close()
				t.Fatal("NewEngine recovered a retired layout")
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("NewEngine: %v; want it to mention %q", err, want)
				}
			}
			if after := readTree(t, dir); !reflect.DeepEqual(after, before) {
				t.Errorf("the refused directory changed: %d files before, %d after", len(before), len(after))
			}
		})
	}
}

// logKinds returns the record kinds dir's log holds, in log order, one
// entry per stretch of one kind.
func logKinds(t *testing.T, dir string) []byte {
	t.Helper()
	cur, err := wal.OpenCursor(filepath.Join(dir, walDirName), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var kinds []byte
	for {
		_, p, err := cur.Next()
		if err != nil {
			return kinds
		}
		if len(kinds) == 0 || kinds[len(kinds)-1] != p[0] {
			kinds = append(kinds, p[0])
		}
	}
}

// TestRecoversPR29Dir: testdata/pr29_dir is a leader directory the
// previous release's binary left when it was SIGKILLed, running the
// engineTestConfig forest at MinParentSize 10 so that its snapshots hold
// split trees. It took two models through an IngestBackfill with a
// cursor, 256-row IngestBatches and a snapshot pass (ORF2/ODS2 snapshots
// and the cursor file), then logged an IngestBackfill without a cursor,
// more batches with two failure rows among them and a retire (the kind
// 11/10/2 tail). This release must read all of it and recover the
// state, resume point and next sequence number that binary recovered
// from the same bytes.
func TestRecoversPR29Dir(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "pr29_dir"), dir)
	if got, want := logKinds(t, dir), []byte{recObserveBFRun, recObserveRun, recRetire}; !bytes.Equal(got, want) {
		t.Fatalf("fixture log holds record kinds %v, want %v", got, want)
	}
	cfg := engineTestConfig()
	cfg.ORF.MinParentSize = 10
	eng, err := NewEngine(EngineConfig{Predictor: cfg, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if n := eng.met.replaySkipped.Value(); n != 0 {
		t.Errorf("recovery skipped %d rows", n)
	}
	for model, want := range map[string]string{
		"MODEL-0": "96661640908eeaf6abdfde69a033bf542f23dbed92fd6f011c856611199da02c",
		"MODEL-1": "4c15ab3f9d5a32adec68e13f36ab2082de3e25a47b1ac543bb87a328090ae734",
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(dumpModel(t, eng, model))); got != want {
			t.Errorf("model %s state has SHA-256 %s, the previous release recovered %s", model, got, want)
		}
	}
	wantCur := BackfillCursor{Day: 24, Rows: 700, Files: []BackfillFilePos{{Name: "a.csv", Rows: 700, Off: 1 << 16}}}
	if cur, rowsAfter, ok := eng.BackfillState(); !ok || rowsAfter != 300 || !reflect.DeepEqual(cur, wantCur) {
		t.Errorf("BackfillState %+v, %d, %v; want %+v, 300, true", cur, rowsAfter, ok, wantCur)
	}
	// The previous release's files are gone once a pass holds their
	// state: its two state records and the pass record follow the 887
	// records the directory held.
	if got := eng.WAL().NextSeq(); got != 891 {
		t.Errorf("NextSeq %d, want 891", got)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 || ents[0].Name() != walDirName {
		t.Fatalf("the migrated directory holds %v (%v), want wal/ only", ents, err)
	}
	hashes := map[string][]byte{}
	for _, model := range eng.Models() {
		hashes[model] = dumpModel(t, eng, model)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := NewEngine(EngineConfig{Predictor: cfg, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	for model, want := range hashes {
		if !bytes.Equal(dumpModel(t, again, model), want) {
			t.Errorf("model %s reopened from the log unlike the migration left it", model)
		}
	}
	if cur, rowsAfter, ok := again.BackfillState(); !ok || rowsAfter != 300 || !reflect.DeepEqual(cur, wantCur) {
		t.Errorf("reopened BackfillState %+v, %d, %v; want %+v, 300, true", cur, rowsAfter, ok, wantCur)
	}
}

// TestBackfillTornBatchResumesExactly tears a backfill batch of two
// interleaved models between its records, as a power failure can, at
// every record boundary: what survives must be a prefix of the batch in
// the loader's order, exactly rowsAfter rows long — the loader resumes
// by discarding that many merged rows, so a surviving row beyond the
// prefix would be applied twice and a missing one inside it never.
func TestBackfillTornBatchResumesExactly(t *testing.T) {
	obs := engineStream(t, 9, 2)
	first, batch := obs[:100], obs[100:400]
	cur := BackfillCursor{Day: first[99].Day, Rows: 100, Files: []BackfillFilePos{{Name: "a.csv", Rows: 100, Off: 4096}}}
	dir := t.TempDir()
	eng, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: dir, SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.IngestBackfill(first, &cur); err != nil {
		t.Fatal(err)
	}
	keep := eng.WAL().NextSeq() // everything below is the first batch
	if err := eng.IngestBackfill(batch, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.WAL().Sync(); err != nil {
		t.Fatal(err)
	}
	// The byte offset each record of the second batch ends at, from the
	// log's framing: u32 payload length, u32 CRC, u64 seq, payload.
	seg := filepath.Join("wal", "00000000000000000001.wal")
	log, err := os.ReadFile(filepath.Join(dir, seg))
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64
	for off := 0; off < len(log); {
		seq := binary.LittleEndian.Uint64(log[off+8:])
		off += 16 + int(binary.LittleEndian.Uint32(log[off:]))
		if seq >= keep {
			ends = append(ends, int64(off))
		}
	}
	if len(ends) < 4 {
		t.Fatalf("the batch was framed as %d records; the test needs it torn between several", len(ends))
	}
	for k, end := range ends[:len(ends)-1] {
		torn := t.TempDir()
		copyTree(t, dir, torn)
		if err := os.Truncate(filepath.Join(torn, seg), end+7); err != nil { // 7 bytes into the next record
			t.Fatal(err)
		}
		rec, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: torn})
		if err != nil {
			t.Fatal(err)
		}
		gotCur, rowsAfter, ok := rec.BackfillState()
		if !ok || !reflect.DeepEqual(gotCur, cur) || rowsAfter == 0 || rowsAfter >= uint64(len(batch)) {
			t.Fatalf("torn after record %d: BackfillState %+v, %d, %v", k, gotCur, rowsAfter, ok)
		}
		ref, err := NewEngine(EngineConfig{Predictor: engineTestConfig()})
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.IngestBackfill(first, &cur); err != nil {
			t.Fatal(err)
		}
		if err := ref.IngestBackfill(batch[:rowsAfter], nil); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rec.Models(), ref.Models()) {
			t.Fatalf("torn after record %d: models %v, the first %d rows give %v", k, rec.Models(), rowsAfter, ref.Models())
		}
		for _, m := range ref.Models() {
			if !bytes.Equal(dumpModel(t, rec, m), dumpModel(t, ref, m)) {
				t.Fatalf("torn after record %d: model %s is not what the first %d rows of the batch leave", k, m, rowsAfter)
			}
		}
		rec.Close()
		ref.Close()
	}
}
