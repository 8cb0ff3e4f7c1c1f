package orfdisk

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// TestStateWriteFailureKeepsLog: a snapshot pass whose state record or
// pass record cannot be appended returns the error and truncates
// nothing — the log still holds every row the pass failed to cover —
// so a restart recovers exactly the live state, and the next pass
// succeeds and truncates. The append is failed by a directory squatting
// on the name of the segment it would rotate into, which stops root as
// surely as anyone.
func TestStateWriteFailureKeepsLog(t *testing.T) {
	obs := engineStream(t, 61, 2)
	for _, blockPass := range []bool{false, true} {
		name := "snapshot"
		if blockPass {
			name = "cursor" // the resume point is the pass record's
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

			// A state record is larger than a segment, so the pass rotates
			// before each record after its first: F+1 is the second state
			// record's segment, F+n the pass record's.
			models := eng.Models()
			target := eng.WAL().NextSeq() + 1
			if blockPass {
				target = eng.WAL().NextSeq() + uint64(len(models))
			}
			walGlob := filepath.Join(dir, "wal", "*.wal")
			segs, _ := filepath.Glob(walGlob)
			if len(segs) < 3 {
				t.Fatalf("log of %d segments; the test needs several", len(segs))
			}
			blocker := filepath.Join(dir, "wal", fmt.Sprintf("%020d.wal", target))
			if err := os.MkdirAll(filepath.Join(blocker, "x"), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := eng.Snapshot(); err == nil {
				t.Fatalf("Snapshot succeeded with %s blocked", blocker)
			}
			got, _ := filepath.Glob(walGlob)
			for _, seg := range segs {
				if !slices.Contains(got, seg) {
					t.Fatalf("failed pass truncated the log: %v -> %v", segs, got)
				}
			}

			// Crash here: a restart from the log recovers the live state.
			if err := eng.WAL().Sync(); err != nil {
				t.Fatal(err)
			}
			crash := t.TempDir()
			copyTree(t, dir, crash)
			if err := os.RemoveAll(filepath.Join(crash, "wal", filepath.Base(blocker))); err != nil {
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
			if got, _ := filepath.Glob(walGlob); slices.Contains(got, segs[0]) {
				t.Fatalf("successful pass kept the log: %v -> %v", segs, got)
			}
		})
	}
}

// dirState is what a reopened data directory holds, as the engine
// reports it.
type dirState struct {
	models    map[string][]byte
	cur       BackfillCursor
	rowsAfter uint64
	bfOK      bool
}

// openState opens dir as a leader or a follower, records its state and
// stops it. A follower's resume position must be what its log holds.
func openState(t *testing.T, dir string, follower bool) dirState {
	t.Helper()
	eng, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: dir, Follower: follower})
	if err != nil {
		t.Fatal(err)
	}
	st := dirState{models: map[string][]byte{}}
	for _, m := range eng.Models() {
		st.models[m] = dumpModel(t, eng, m)
	}
	st.cur, st.rowsAfter, st.bfOK = eng.BackfillState()
	if follower {
		var last uint64
		if err := eng.WAL().Replay(func(seq uint64, _ []byte) error { last = seq; return nil }); err != nil {
			t.Fatal(err)
		}
		if resume := eng.ReplicationResume(); resume > max(last, eng.WAL().NextSeq()-1) {
			t.Fatalf("follower resumes after %d, past its log (last record %d, next %d)", resume, last, eng.WAL().NextSeq())
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	return st
}

// logRecord is one record of a log as it sits in a segment file.
type logRecord struct {
	seq   uint64
	frame []byte // header and payload
}

// readLog returns every record of dir's log, in order.
func readLog(t *testing.T, dir string) []logRecord {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	var out []logRecord
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for len(b) > 0 {
			n := 16 + int(binary.LittleEndian.Uint32(b))
			out = append(out, logRecord{binary.LittleEndian.Uint64(b[8:]), b[:n]})
			b = b[n:]
		}
	}
	return out
}

// writeSegment writes recs as one segment named first in dir's log.
func writeSegment(t *testing.T, dir string, first uint64, recs []logRecord) {
	t.Helper()
	var b []byte
	for _, r := range recs {
		b = append(b, r.frame...)
	}
	writeRel(t, dir, fmt.Sprintf("wal/%020d.wal", first), b)
}

// TestPassAndResetCrashPoints stops a snapshot pass and a follower
// reset at each of their boundaries, by laying the data directory out as
// a crash there would leave it, and reopens it as a leader and as a
// follower. Every reopen must hold the state before or after the step,
// never a mix: a pass changes no state, so each of its crash points
// holds the live state; a reset's hold the old state or none.
//
// Pass: after the rotation, after k of the n state records for every k,
// after the pass record, after the truncation. Reset: after the rename, after the directory
// fsync (the same layout), after the removal, after the new first
// segment.
func TestPassAndResetCrashPoints(t *testing.T) {
	obs := engineStream(t, 77, 3)
	dir := t.TempDir()
	leader, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: dir, SegmentBytes: 2560})
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
	if err := leader.IngestBackfill(obs[300:400], nil); err != nil {
		t.Fatal(err)
	}
	for _, o := range obs[400:600] {
		leader.Ingest(o) //nolint:errcheck // a rejected row is in the log all the same
	}
	if err := leader.Retire(obs[450].Serial); err != nil {
		t.Fatal(err)
	}
	if err := leader.WAL().Sync(); err != nil {
		t.Fatal(err)
	}
	before := t.TempDir()
	copyTree(t, dir, before)
	first := leader.WAL().NextSeq()
	if err := leader.Snapshot(); err != nil {
		t.Fatal(err)
	}
	live := dirState{models: map[string][]byte{}}
	for _, m := range leader.Models() {
		live.models[m] = dumpModel(t, leader, m)
	}
	live.cur, live.rowsAfter, live.bfOK = leader.BackfillState()
	n := len(live.models)
	if err := leader.Close(); err != nil { // nothing appended since the pass: writes nothing
		t.Fatal(err)
	}
	pass := readLog(t, dir)
	if len(pass) != n+1 || pass[0].seq != first {
		t.Fatalf("pass of %d records from %d, want %d from %d", len(pass), pass[0].seq, n+1, first)
	}
	if len(readLog(t, before)) < 2*n {
		t.Fatal("the log before the pass is too short to tell a truncation")
	}

	check := func(t *testing.T, dir string, wants ...dirState) {
		t.Helper()
		for _, follower := range []bool{false, true} {
			work := t.TempDir()
			copyTree(t, dir, work)
			got := openState(t, work, follower)
			if !slices.ContainsFunc(wants, func(w dirState) bool { return reflect.DeepEqual(got, w) }) {
				t.Fatalf("follower %v: reopened with %d models, backfill %+v/%d/%v; want one of %d states",
					follower, len(got.models), got.cur, got.rowsAfter, got.bfOK, len(wants))
			}
		}
	}
	partial := func(t *testing.T, k int) string {
		d := t.TempDir()
		copyTree(t, before, d)
		writeSegment(t, d, first, pass[:k])
		return d
	}
	t.Run("pass: after the rotation", func(t *testing.T) { check(t, partial(t, 0), live) })
	for k := 1; k <= n; k++ {
		t.Run(fmt.Sprintf("pass: %d of %d state records", k, n), func(t *testing.T) { check(t, partial(t, k), live) })
	}
	t.Run("pass: after the pass record", func(t *testing.T) { check(t, partial(t, n+1), live) })
	t.Run("pass: after the truncation", func(t *testing.T) { check(t, dir, live) })

	empty := dirState{models: map[string][]byte{}}
	resetLayout := func(t *testing.T, renamed, created bool) string {
		d := t.TempDir()
		copyTree(t, dir, d)
		if renamed {
			if err := os.Rename(filepath.Join(d, walDirName), filepath.Join(d, droppedDirName)); err != nil {
				t.Fatal(err)
			}
		} else if err := os.RemoveAll(filepath.Join(d, walDirName)); err != nil {
			t.Fatal(err)
		}
		if created {
			writeRel(t, d, fmt.Sprintf("wal/%020d.wal", first+100), nil)
		}
		return d
	}
	t.Run("reset: after the rename", func(t *testing.T) { check(t, resetLayout(t, true, false), live, empty) })
	t.Run("reset: after the removal", func(t *testing.T) { check(t, resetLayout(t, false, false), live, empty) })
	t.Run("reset: after the new first segment", func(t *testing.T) { check(t, resetLayout(t, false, true), live, empty) })
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
