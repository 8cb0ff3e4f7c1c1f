package orfdisk

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
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
