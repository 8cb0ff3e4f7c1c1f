package orfdisk

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
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

// TestRecoversPR20Log: testdata/pr20_wal is the log a PR 20 binary left
// when it was killed — one-row observe records (kinds 6 and 7): 300 live
// rows over two models, a failure row, the same serial observed again, a
// retire, a backfill batch with its cursor record and one without. The
// digests are each model's DumpModel as that binary recovered it. The
// current code must recover the same state, then append its own records
// on top, crash and recover both kinds from one log.
func TestRecoversPR20Log(t *testing.T) {
	want := map[string]string{
		"MODEL-0": "2db79a0a07dc8c70451855ecc1cb45dc7d960c3c68d50304b6c3bb8552864114",
		"MODEL-1": "3feb4ba010c274f84be7b8361ac4a4f3b71ae92f0e18c4ede51bcba7d27fc6f6",
	}
	wantCur := BackfillCursor{Day: 5, Rows: 64, Files: []BackfillFilePos{{Name: "fleet-q000-s00.csv", Rows: 64, Off: 12_345}}}
	const wantRowsAfter, wantNextSeq = 16, 385

	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "pr20_wal"), dir)
	cfg := EngineConfig{Predictor: engineTestConfig(), DataDir: dir}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Models(); !reflect.DeepEqual(got, []string{"MODEL-0", "MODEL-1"}) {
		t.Fatalf("models %v", got)
	}
	for m, digest := range want {
		if sum := sha256.Sum256(dumpModel(t, eng, m)); hex.EncodeToString(sum[:]) != digest {
			t.Errorf("model %s recovers to %x, the PR 20 binary recovered %s", m, sum, digest)
		}
	}
	cur, rowsAfter, ok := eng.BackfillState()
	if !ok || rowsAfter != wantRowsAfter || !reflect.DeepEqual(cur, wantCur) {
		t.Errorf("BackfillState %+v, %d, %v; want %+v, %d", cur, rowsAfter, ok, wantCur, wantRowsAfter)
	}
	if got := eng.WAL().NextSeq(); got != wantNextSeq {
		t.Errorf("NextSeq %d, want %d", got, wantNextSeq)
	}

	// The same rows on top of both: the recovered engine logs them as runs
	// after the one-row records, the reference never sees a log.
	ref, err := NewEngine(EngineConfig{Predictor: engineTestConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	obs := engineStream(t, 77, 2) // the stream the fixture was cut from
	for _, o := range obs[:300] {
		if _, err := ref.Ingest(o); err != nil {
			t.Fatal(err)
		}
	}
	fail, again := obs[10], obs[10]
	fail.Day, fail.Failed, again.Day = obs[299].Day+1, true, obs[299].Day+2
	for _, o := range []FleetObservation{fail, again} {
		if _, err := ref.Ingest(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Retire(obs[11].Serial); err != nil {
		t.Fatal(err)
	}
	if err := ref.IngestBackfill(obs[300:380], nil); err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Engine{eng, ref} {
		for i, r := range e.IngestBatch(obs[380:700]) {
			if r.Err != nil {
				t.Fatalf("row %d: %v", i, r.Err)
			}
		}
		if err := e.IngestBackfill(obs[700:900], nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.WAL().Sync(); err != nil { // crash: no Close, no snapshot
		t.Fatal(err)
	}
	mixed, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mixed.Close()
	for _, m := range ref.Models() {
		if !bytes.Equal(dumpModel(t, mixed, m), dumpModel(t, ref, m)) {
			t.Errorf("model %s: a log of one-row records and runs recovers to a different state than the rows applied live", m)
		}
	}
	if _, rowsAfter, _ := mixed.BackfillState(); rowsAfter != wantRowsAfter+200 {
		t.Errorf("rowsAfter %d over both kinds, want %d", rowsAfter, wantRowsAfter+200)
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
