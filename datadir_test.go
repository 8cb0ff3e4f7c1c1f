package orfdisk

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"orfdisk/internal/replica"
)

// TestCursorFileCorrupt: a backfill-cursor file that is not what a
// snapshot pass writes fails NewEngine with a corrupt-file error, never a
// panic, and one that is seeds BackfillState. The bytes are built by hand,
// the layout spelled out: OBC1, a u64 sequence number, a uvarint row
// count, then a WAL cursor record.
func TestCursorFileCorrupt(t *testing.T) {
	cur := BackfillCursor{Day: 40, Rows: 400, Files: []BackfillFilePos{{Name: "a.csv", Rows: 400, Off: 77_000}}}
	seq := binary.LittleEndian.AppendUint64([]byte("OBC1"), 7)
	header := binary.AppendUvarint(seq, 3)
	good := appendCursorRecord(append([]byte(nil), header...), cur)
	for _, c := range []struct {
		name string
		file []byte
	}{
		{"empty", nil},
		{"magic only", []byte("OBC1")},
		{"wrong magic", append([]byte("OBC2"), good[4:]...)},
		{"short sequence number", seq[:9]},
		{"no row count", seq},
		{"header only", header},
		{"another record kind", append(append([]byte(nil), header...), 0x7F)},
		{"truncated cursor record", good[:len(good)-1]},
		{"trailing byte", append(append([]byte(nil), good...), 0)},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "backfill-cursor"), c.file, 0o644); err != nil {
				t.Fatal(err)
			}
			eng, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: dir})
			if err == nil {
				eng.Close()
				t.Fatal("NewEngine accepted the file")
			}
			if !strings.Contains(err.Error(), "orfdisk: corrupt backfill cursor file") {
				t.Fatalf("NewEngine: %v; want a corrupt cursor file error", err)
			}
		})
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "backfill-cursor"), good, 0o644); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if got, rowsAfter, ok := eng.BackfillState(); !ok || rowsAfter != 3 || !reflect.DeepEqual(got, cur) {
		t.Fatalf("BackfillState %+v, %d, %v; want %+v, 3, true", got, rowsAfter, ok, cur)
	}
}

// FuzzBackfillCursorFile: no file makes the cursor decoder panic, every
// refusal is a corrupt-file error, and what decodes re-encodes to a file
// that decodes the same.
func FuzzBackfillCursorFile(f *testing.F) {
	f.Add(appendCursorFile(nil, bfResume{valid: true, seq: 7, rowsAfter: 3, cur: BackfillCursor{
		Day: 40, Rows: 400, Files: []BackfillFilePos{{Name: "a.csv", Rows: 400, Off: 77_000}, {Name: "b.csv.gz"}},
	}}))
	f.Add(appendCursorFile(nil, bfResume{valid: true}))
	f.Add(binary.AppendUvarint(binary.LittleEndian.AppendUint64([]byte(cursorMagic), 7), 3))
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := decodeCursorFile(b)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "orfdisk: corrupt backfill cursor file (") {
				t.Fatalf("refusal %q is not a corrupt-file error", err)
			}
			return
		}
		again, err := decodeCursorFile(appendCursorFile(nil, r))
		if err != nil || !reflect.DeepEqual(again, r) {
			t.Fatalf("%+v re-encodes to %+v (%v)", r, again, err)
		}
	})
}

// TestSeedMarkerNameRule: the seed-commit marker holds its names to the
// rule the follower stages files by, so the two cannot disagree.
func TestSeedMarkerNameRule(t *testing.T) {
	for _, name := range []string{"", "a//b", "./x", "x/.", "../x", "a/../b", "/abs", `a\b`, "a/"} {
		if replica.CheckSeedName(name) == nil {
			t.Errorf("CheckSeedName accepts %q", name)
		}
		if _, err := decodeSeedMarker(appendSeedMarker(nil, []string{name})); err == nil {
			t.Errorf("the marker accepts %q", name)
		}
	}
	// The marker holds a name per line; the follower refuses a name that
	// would read back as two before it is staged.
	if replica.CheckSeedName("a\nb") == nil {
		t.Error("CheckSeedName accepts a newline")
	}
	ok := []string{"backfill-cursor", "snap-4d4f44454c2d30.snap", "wal/00000000000000000001.wal"}
	for _, name := range ok {
		if err := replica.CheckSeedName(name); err != nil {
			t.Error(err)
		}
	}
	if got, err := decodeSeedMarker(appendSeedMarker(nil, ok)); err != nil || !reflect.DeepEqual(got, ok) {
		t.Fatalf("marker round trip: %q, %v", got, err)
	}
}

// FuzzSeedMarker: no marker makes the decoder panic; one that decodes
// names only paths inside the data directory and is exactly what the
// writer writes for those names.
func FuzzSeedMarker(f *testing.F) {
	f.Add(appendSeedMarker(nil, []string{"backfill-cursor", "snap-4d.snap", "wal/00000000000000000001.wal"}))
	for _, s := range []string{"OSC1\n", "OSC1\na//b\n", "OSC1\n./x\n", "OSC1\na\\b\n", "OSC1\nx\n\n", "OSC1\nx"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		names, err := decodeSeedMarker(b)
		if err != nil {
			return
		}
		for _, name := range names {
			if !filepath.IsLocal(filepath.FromSlash(name)) {
				t.Fatalf("marker names %q, outside the data directory", name)
			}
		}
		if again := appendSeedMarker(nil, names); !bytes.Equal(again, b) {
			t.Fatalf("%q decodes to %q, which encodes to %q", b, names, again)
		}
	})
}

// TestStateWriteFailureKeepsLog: a snapshot pass whose snapshot or
// cursor write fails returns the error and truncates nothing — the log
// still holds every row the files it failed to replace do not cover —
// and leaves the previous file as it was, so a restart recovers exactly
// the live state. The write is failed by a directory squatting on its
// temp path, which stops root as surely as anyone.
func TestStateWriteFailureKeepsLog(t *testing.T) {
	obs := engineStream(t, 61, 2)
	for _, blockCursor := range []bool{false, true} {
		name := "snapshot"
		if blockCursor {
			name = "cursor"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := EngineConfig{Predictor: engineTestConfig(), DataDir: dir, SegmentBytes: 4096}
			eng, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			cur := BackfillCursor{Day: obs[299].Day, Rows: 300, Files: []BackfillFilePos{{Name: "a.csv", Rows: 300, Off: 1 << 16}}}
			if err := eng.IngestBackfill(obs[:300], &cur); err != nil {
				t.Fatal(err)
			}
			if err := eng.Snapshot(); err != nil {
				t.Fatal(err)
			}
			// Rows only the log holds: a newer cursor, rows after it, live rows.
			cur.Day, cur.Rows, cur.Files[0].Rows = obs[599].Day, 600, 600
			if err := eng.IngestBackfill(obs[300:600], &cur); err != nil {
				t.Fatal(err)
			}
			if err := eng.IngestBackfill(obs[600:700], nil); err != nil {
				t.Fatal(err)
			}
			for _, o := range obs[700:800] {
				eng.Ingest(o) //nolint:errcheck // a rejected row is in the log all the same
			}

			models := eng.Models()
			target := snapName(models[len(models)-1]) // the pass rewrites the others first
			if blockCursor {
				target = cursorFileName
			}
			prev, err := os.ReadFile(filepath.Join(dir, target))
			if err != nil {
				t.Fatal(err)
			}
			blocker := filepath.Join(dir, target+".tmp")
			if err := os.MkdirAll(filepath.Join(blocker, "x"), 0o755); err != nil {
				t.Fatal(err)
			}
			walGlob := filepath.Join(dir, "wal", "*.wal")
			segs, _ := filepath.Glob(walGlob)
			if len(segs) < 3 {
				t.Fatalf("log of %d segments; the test needs several", len(segs))
			}
			if err := eng.Snapshot(); err == nil {
				t.Fatalf("Snapshot succeeded with %s blocked", blocker)
			}
			if got, _ := filepath.Glob(walGlob); !reflect.DeepEqual(got, segs) {
				t.Fatalf("failed pass changed the log: %v -> %v", segs, got)
			}
			if got, err := os.ReadFile(filepath.Join(dir, target)); err != nil || !bytes.Equal(got, prev) {
				t.Fatalf("failed pass changed %s (%v)", target, err)
			}

			// Crash here: a restart from the files recovers the live state.
			if err := eng.WAL().Sync(); err != nil {
				t.Fatal(err)
			}
			crash := t.TempDir()
			copyTree(t, dir, crash)
			if err := os.RemoveAll(filepath.Join(crash, target+".tmp")); err != nil {
				t.Fatal(err)
			}
			rec, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: crash})
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			if !reflect.DeepEqual(rec.Models(), models) {
				t.Fatalf("recovered models %v, live %v", rec.Models(), models)
			}
			for _, m := range models {
				if !bytes.Equal(dumpModel(t, rec, m), dumpModel(t, eng, m)) {
					t.Fatalf("model %s recovered unlike the live engine", m)
				}
			}
			wantCur, wantRows, _ := eng.BackfillState()
			if gotCur, rows, ok := rec.BackfillState(); !ok || rows != wantRows || !reflect.DeepEqual(gotCur, wantCur) {
				t.Fatalf("recovered BackfillState %+v, %d, %v; live %+v, %d", gotCur, rows, ok, wantCur, wantRows)
			}

			// Unblocked, the pass succeeds and truncates: the log above was
			// the pass's to cut.
			if err := os.RemoveAll(blocker); err != nil {
				t.Fatal(err)
			}
			if err := eng.Snapshot(); err != nil {
				t.Fatal(err)
			}
			if got, _ := filepath.Glob(walGlob); len(got) >= len(segs) {
				t.Fatalf("successful pass kept the log: %v -> %v", segs, got)
			}
		})
	}
}

// seededState is what a reopened data directory holds, as the engine
// reports it.
type seededState struct {
	models    map[string][]byte
	cur       BackfillCursor
	rowsAfter uint64
	bfOK      bool
	nextSeq   uint64
}

// reopen starts a follower on dir, records its state and stops it.
func reopen(t *testing.T, dir string) seededState {
	t.Helper()
	eng, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: dir, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	st := seededState{models: map[string][]byte{}, nextSeq: eng.WAL().NextSeq()}
	for _, m := range eng.Models() {
		st.models[m] = dumpModel(t, eng, m)
	}
	st.cur, st.rowsAfter, st.bfOK = eng.BackfillState()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSeedInstallCrashPoints stops a seed install at each of its
// boundaries — marker written; stale state deleted; k of the n staged
// files moved, for every k; marker removed with the staging directory
// left — by laying the directory out as a crash there would leave it,
// and reopens the engine on it. Every reopen must hold the seed's state,
// model for model, with the same backfill resume point and next sequence
// number. A staging directory with no marker (the marker's temp file at
// most) is a download that never committed: it goes, the old state stays.
func TestSeedInstallCrashPoints(t *testing.T) {
	// Leader: a backfill with a cursor, a truncating snapshot, then rows
	// only its log holds, pinned there by a retain floor, so the seed
	// carries several segments. 2560-byte segments hold about 30 live
	// rows each, so the seed is eleven files: eight segments, two
	// snapshots and the cursor.
	obs := engineStream(t, 77, 2)
	leader, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: t.TempDir(), SegmentBytes: 2560})
	if err != nil {
		t.Fatal(err)
	}
	cur := BackfillCursor{Day: obs[299].Day, Rows: 300, Files: []BackfillFilePos{{Name: "a.csv", Rows: 300, Off: 1 << 16}}}
	if err := leader.IngestBackfill(obs[:300], &cur); err != nil {
		t.Fatal(err)
	}
	if err := leader.Snapshot(); err != nil {
		t.Fatal(err)
	}
	leader.WAL().SetRetainFloor(1)
	if err := leader.IngestBackfill(obs[300:400], nil); err != nil {
		t.Fatal(err)
	}
	for _, o := range obs[400:600] {
		leader.Ingest(o) //nolint:errcheck // a rejected row is in the log all the same
	}
	files, head, err := leader.Seed()
	if err != nil {
		t.Fatal(err)
	}
	seed := map[string][]byte{}
	var manifest []string
	for _, sf := range files {
		b, err := io.ReadAll(io.LimitReader(sf.File, sf.Size))
		sf.File.Close()
		if err != nil {
			t.Fatal(err)
		}
		seed[sf.Name] = b
		manifest = append(manifest, sf.Name)
	}
	sort.Strings(manifest)
	seeded := seededState{models: map[string][]byte{}, nextSeq: head + 1}
	for _, m := range leader.Models() {
		seeded.models[m] = dumpModel(t, leader, m)
	}
	seeded.cur, seeded.rowsAfter, seeded.bfOK = leader.BackfillState()
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	var segs int
	for _, name := range manifest {
		if strings.HasPrefix(name, walDirName+"/") {
			segs++
		}
	}
	if segs < 2 {
		t.Fatalf("seed of %v carries %d log segments; the test needs several", manifest, segs)
	}
	if len(manifest) != 11 {
		t.Fatalf("seed of %v is %d files, want 11: resize the segments so the crash points keep their names", manifest, len(manifest))
	}

	// check reopens dir and compares what it holds with wantState.
	check := func(t *testing.T, dir string, wantState seededState) {
		t.Helper()
		got := reopen(t, dir)
		if !reflect.DeepEqual(got, wantState) {
			t.Fatalf("reopened with %d models, backfill %+v/%d/%v, next seq %d; want %d models, %+v/%d/%v, %d",
				len(got.models), got.cur, got.rowsAfter, got.bfOK, got.nextSeq,
				len(wantState.models), wantState.cur, wantState.rowsAfter, wantState.bfOK, wantState.nextSeq)
		}
		for _, name := range []string{seedCommitName, seedStagingName} {
			if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
				t.Fatalf("%s survived the reopen (%v)", name, err)
			}
		}
	}

	// The seed alone recovers the leader's state.
	only := t.TempDir()
	for name, b := range seed {
		writeRel(t, only, name, b)
	}
	check(t, only, seeded)

	// The stale follower: a model the seed lacks, a cursor of its own,
	// stopped cleanly.
	staleDir := t.TempDir()
	stale, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: staleDir})
	if err != nil {
		t.Fatal(err)
	}
	staleObs := engineStream(t, 51, 3)
	staleCur := BackfillCursor{Day: staleObs[199].Day, Rows: 200, Files: []BackfillFilePos{{Name: "z.csv", Rows: 200, Off: 512}}}
	if err := stale.IngestBackfill(staleObs[:200], &staleCur); err != nil {
		t.Fatal(err)
	}
	if err := stale.Close(); err != nil {
		t.Fatal(err)
	}
	old := reopen(t, staleDir)
	if len(old.models) != 3 {
		t.Fatalf("stale node holds %d models, want 3", len(old.models))
	}

	// staged copies the stale directory and downloads the seed beside it.
	staged := func(t *testing.T) string {
		dir := t.TempDir()
		copyTree(t, staleDir, dir)
		for name, b := range seed {
			writeRel(t, dir, filepath.Join(seedStagingName, name), b)
		}
		return dir
	}
	marker := appendSeedMarker(nil, manifest)

	// install lays dir out as an install stopped after its deletions and
	// the first k renames.
	install := func(t *testing.T, dir string, k int) {
		inSet := map[string]bool{}
		for _, name := range manifest {
			inSet[name] = true
		}
		for _, sub := range []string{"", walDirName} {
			ents, err := os.ReadDir(filepath.Join(dir, sub))
			if err != nil {
				t.Fatal(err)
			}
			for _, ent := range ents {
				name := path.Join(sub, ent.Name())
				if ent.IsDir() || inSet[name] || sub == "" && !isStateFile(name) {
					continue
				}
				if err := os.Remove(filepath.Join(dir, name)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, name := range manifest[:k] {
			if err := os.Rename(filepath.Join(dir, seedStagingName, name), filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("no marker", func(t *testing.T) {
		check(t, staged(t), old)
	})
	t.Run("marker temp file only", func(t *testing.T) {
		dir := staged(t)
		writeRel(t, dir, seedCommitName+".tmp", marker)
		check(t, dir, old)
	})
	t.Run("marker written", func(t *testing.T) {
		dir := staged(t)
		writeRel(t, dir, seedCommitName, marker)
		check(t, dir, seeded)
	})
	for k := 0; k <= len(manifest); k++ {
		t.Run(fmt.Sprintf("stale deleted, %d of %d moved", k, len(manifest)), func(t *testing.T) {
			dir := staged(t)
			writeRel(t, dir, seedCommitName, marker)
			install(t, dir, k)
			check(t, dir, seeded)
		})
	}
	t.Run("marker removed, staging left", func(t *testing.T) {
		dir := staged(t)
		install(t, dir, len(manifest))
		check(t, dir, seeded)
	})
}

// writeRel writes b to dir/rel, rel a slash-separated path, creating the
// directories on the way.
func writeRel(t *testing.T, dir, rel string, b []byte) {
	t.Helper()
	p := filepath.Join(dir, filepath.FromSlash(rel))
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
}
