package orfdisk

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
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
// layout (a data directory and its wal/ subdirectory).
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

// ods2StateRecord is a state record for model whose state starts with
// the ODS2 magic of releases before the previous one; the rest of it is
// an ODS3 state.
func ods2StateRecord(t testing.TB, model string) []byte {
	t.Helper()
	rec, err := appendStateRecord(nil, model, NewPredictor(engineTestConfig()))
	if err != nil {
		t.Fatal(err)
	}
	copy(rec[2+len(model):], "ODS2") // after the kind and the model's name
	return rec
}

// TestRefusesRetiredLayouts: what only releases before the previous one
// wrote — a whole-catalog run (kind 8) or an ODS2 state in the log, or
// the PR 30 release's state files beside it — fails NewEngine, on a
// leader and on a follower alike, with an error that names the kind,
// the layout or the file and the remedy, and leaves the directory
// exactly as it found it, so that the remedy still works. Each case adds
// to a copy of testdata/pr42_dir in one place.
func TestRefusesRetiredLayouts(t *testing.T) {
	const pr30Remedy = "start the PR 33 release on it once, then this one"
	file := func(rel string) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) { writeRel(t, dir, rel, []byte("left by the PR 30 release")) }
	}
	record := func(payload []byte) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			w, err := wal.Open(wal.Options{Dir: filepath.Join(dir, walDirName)})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Append(payload); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, dir string)
		want   []string
	}{
		{"kind-8 tail", record([]byte{recCatalogRun, 1, 'M', 0}),
			[]string{"kind 8 is a retired whole-catalog run observe layout", "stop it cleanly"}},
		{"ODS2 state", record(ods2StateRecord(t, "MODEL-0")),
			[]string{"ODS2", "start the PR 42 release on this data directory and stop it cleanly"}},
		{"snapshot file", file("snap-4d4f44454c2d31.snap"), []string{"snap-4d4f44454c2d31.snap", pr30Remedy}},
		{"backfill cursor file", file("backfill-cursor"), []string{"backfill-cursor", pr30Remedy}},
		{"seed install", file("seed-commit"), []string{"seed-commit", pr30Remedy}},
		{"seed download", file("seed-staging/wal/00000000000000000001.wal"), []string{"seed-staging", pr30Remedy}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, role := range []string{"leader", "follower"} {
				t.Run(role, func(t *testing.T) {
					dir := t.TempDir()
					copyTree(t, filepath.Join("testdata", "pr42_dir"), dir)
					tc.damage(t, dir)
					before := readTree(t, dir)
					cfg := engineTestConfig()
					cfg.ORF.MinParentSize = 10
					eng, err := NewEngine(EngineConfig{Predictor: cfg, DataDir: dir, Follower: role == "follower"})
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

// TestRecoversPR42Dir: testdata/pr42_dir is a leader directory the
// previous release's binary (PR 42) wrote and left without Close, as a
// SIGKILL leaves it, running the engineTestConfig forest at
// MinParentSize 10 so that its state records hold split trees. On
// obs := engineStream(t, 33, 2) it ran
//
//   - IngestBackfill(obs[:700]) with the cursor {Day: obs[699].Day,
//     Rows: 700, Files: a.csv at 700 rows, offset 1<<16};
//   - IngestBatch over obs[700:2860] in 256-row batches, three failure
//     rows among them;
//   - Snapshot, which truncated all of that behind its state and pass
//     records;
//   - IngestBackfill(obs[2860:3160]) without a cursor;
//   - IngestBatch over obs[3160:4184] in 256-row batches, two failure
//     rows among them;
//   - Retire("STA-000054") and a WAL Sync;
//
// so its log holds the kinds 12/13/11/10/2. This release must read all
// of it, recover the state (each model's DumpModel SHA-256), resume
// point and next sequence number that binary recovered from the same
// bytes, and keep the directory to wal/ alone.
func TestRecoversPR42Dir(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "pr42_dir"), dir)
	if got, want := logKinds(t, dir), []byte{recState, recPass, recObserveBFRun, recObserveRun, recRetire}; !bytes.Equal(got, want) {
		t.Fatalf("fixture log holds record kinds %v, want %v", got, want)
	}
	walOnly := func(t *testing.T) {
		t.Helper()
		if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 || ents[0].Name() != walDirName {
			t.Fatalf("the directory holds %v (%v), want wal/ only", ents, err)
		}
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
		"MODEL-0": "0699f3d56e3e4c707d2fd799d246c7a53ad702820069066f17edf749d6518b48",
		"MODEL-1": "65ce177eb71fc51dbda46aa2ffeef56649f7d4b4f1a9cc8606a191190b5bbf45",
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(dumpModel(t, eng, model))); got != want {
			t.Errorf("model %s state has SHA-256 %s, the previous release recovered %s", model, got, want)
		}
	}
	wantCur := BackfillCursor{Day: 9, Rows: 700, Files: []BackfillFilePos{{Name: "a.csv", Rows: 700, Off: 1 << 16}}}
	if cur, rowsAfter, ok := eng.BackfillState(); !ok || rowsAfter != 300 || !reflect.DeepEqual(cur, wantCur) {
		t.Errorf("BackfillState %+v, %d, %v; want %+v, 300, true", cur, rowsAfter, ok, wantCur)
	}
	// The 861 records the directory held, from the pass's first.
	if got := eng.WAL().NextSeq(); got != 862 {
		t.Errorf("NextSeq %d, want 862", got)
	}
	walOnly(t)
	hashes := map[string][]byte{}
	for _, model := range eng.Models() {
		hashes[model] = dumpModel(t, eng, model)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	walOnly(t)
	again, err := NewEngine(EngineConfig{Predictor: cfg, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	for model, want := range hashes {
		if !bytes.Equal(dumpModel(t, again, model), want) {
			t.Errorf("model %s reopened from its closing pass unlike the recovery left it", model)
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
