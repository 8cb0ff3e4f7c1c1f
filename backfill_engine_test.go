package orfdisk

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestCursorRecordRoundTrip pins the cursor codec: day/row watermarks
// and per-file positions must survive exactly, and torn frames must be
// rejected rather than mis-parsed.
func TestCursorRecordRoundTrip(t *testing.T) {
	cur := BackfillCursor{
		Day:  1277,
		Rows: 9_876_543_210,
		Files: []BackfillFilePos{
			{Name: "fleet-q000-s00.csv", Rows: 120_000, Off: 34_567_890},
			{Name: "fleet-q013-s03.csv", Rows: 1, Off: 512},
			{Name: "x", Rows: 0, Off: 0},
		},
	}
	buf := appendCursorRecord(nil, cur)
	rec, err := decodeRecord(buf)
	if err != nil {
		t.Fatal(err)
	}
	if rec.kind != recCursor || rec.cur == nil {
		t.Fatalf("decoded kind %d, cur %v", rec.kind, rec.cur)
	}
	if !reflect.DeepEqual(*rec.cur, cur) {
		t.Fatalf("cursor round-trip:\ngot  %+v\nwant %+v", *rec.cur, cur)
	}
	for cut := 1; cut < len(buf); cut++ {
		if _, err := decodeRecord(buf[:cut]); err == nil {
			t.Errorf("decode of %d-byte prefix succeeded", cut)
		}
	}
	if _, err := decodeRecord(append(append([]byte(nil), buf...), 0x7)); err == nil {
		t.Error("decode with trailing garbage succeeded")
	}

	// Empty cursor (start of all files) is legal.
	rec, err = decodeRecord(appendCursorRecord(nil, BackfillCursor{}))
	if err != nil || rec.cur.Day != 0 || len(rec.cur.Files) != 0 {
		t.Fatalf("empty cursor: %+v, %v", rec.cur, err)
	}
}

// TestBackfillObserveRecordKind: backfill rows share the live run body
// under their own kind byte, so recovery can count them against the
// cursor without confusing them with live traffic.
func TestBackfillObserveRecordKind(t *testing.T) {
	obs := FleetObservation{
		Model: "ST4000DM000",
		Observation: Observation{
			Serial: "Z30", Day: 99, Failed: true,
			Values: []float64{1, math.NaN(), -7.5},
		},
	}
	rec, err := decodeRecord(appendRunRecord(nil, recObserveBFRun, []int{5, 12, 30}, []FleetObservation{obs}))
	if err != nil {
		t.Fatal(err)
	}
	if rec.kind != recObserveBFRun {
		t.Fatalf("kind = %d, want %d", rec.kind, recObserveBFRun)
	}
	if got := rec.run[0]; got.Serial != obs.Serial || got.Day != obs.Day || !got.Failed {
		t.Fatalf("body round-trip: %+v", got)
	}
}

// TestAbsorbMatchesIngestState is the lever the whole backfill path
// rests on: Absorb must leave the predictor in exactly the state Ingest
// would (scoring is a pure read), byte-for-byte in the saved state.
func TestAbsorbMatchesIngestState(t *testing.T) {
	obs := engineStream(t, 31, 1)
	cfg := engineTestConfig()
	pi, pa := NewPredictor(cfg), NewPredictor(cfg)
	for _, o := range obs {
		if _, err := pi.Ingest(o.Observation); err != nil {
			t.Fatal(err)
		}
		if err := pa.Absorb(o.Observation); err != nil {
			t.Fatal(err)
		}
	}
	var bi, ba bytes.Buffer
	if err := pi.SaveState(&bi); err != nil {
		t.Fatal(err)
	}
	if err := pa.SaveState(&ba); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bi.Bytes(), ba.Bytes()) {
		t.Fatalf("Absorb state diverged from Ingest state (%d vs %d bytes)", bi.Len(), ba.Len())
	}
}

// TestBackfillCursorSurvivesSnapshotAndCrash: the WAL suffix carrying
// the newest cursor gets truncated by a snapshot pass; the cursor file
// must carry the resume point across a crash anyway, with rows applied
// after the cursor still counted from the surviving WAL suffix.
func TestBackfillCursorSurvivesSnapshotAndCrash(t *testing.T) {
	obs := engineStream(t, 44, 2)
	if len(obs) < 600 {
		t.Fatalf("stream too short: %d", len(obs))
	}
	dir := t.TempDir()
	eng, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}

	cur := BackfillCursor{Day: 40, Rows: 400, Files: []BackfillFilePos{{Name: "a.csv", Rows: 400, Off: 77_000}}}
	if err := eng.IngestBackfill(obs[:400], &cur); err != nil {
		t.Fatal(err)
	}
	// Snapshot truncates the WAL past the cursor record and persists
	// the cursor file in its place.
	if err := eng.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Rows after the cursor, durable only in the WAL.
	if err := eng.IngestBackfill(obs[400:600], nil); err != nil {
		t.Fatal(err)
	}

	// Crash without Close; recover a fresh engine from the directory.
	eng2, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	got, rowsAfter, ok := eng2.BackfillState()
	if !ok {
		t.Fatal("recovered engine lost the backfill state")
	}
	if !reflect.DeepEqual(got, cur) {
		t.Fatalf("recovered cursor:\ngot  %+v\nwant %+v", got, cur)
	}
	if rowsAfter != 200 {
		t.Fatalf("rowsAfter = %d, want 200", rowsAfter)
	}

	// And the model state matches the live engine's.
	for _, m := range eng.Models() {
		var live, rec bytes.Buffer
		if err := eng.DumpModel(m, &live); err != nil {
			t.Fatal(err)
		}
		if err := eng2.DumpModel(m, &rec); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(live.Bytes(), rec.Bytes()) {
			t.Fatalf("model %s state diverged after crash recovery", m)
		}
	}
}

// TestBackfillReplicates: backfill records (rows and cursors) ship over
// the replication stream like any other WAL record; a follower tracks
// both the model state and the resume point, so a promoted follower
// could continue an interrupted backfill.
func TestBackfillReplicates(t *testing.T) {
	obs := engineStream(t, 55, 2)
	n := 500
	if len(obs) < n {
		t.Fatalf("stream too short: %d", len(obs))
	}

	dirL, dirF := t.TempDir(), t.TempDir()
	leader, src := newLeader(t, dirL)
	defer leader.Close()
	defer src.Close()
	follower, fl := newFollower(t, dirF, src.Addr())
	defer follower.Close()
	defer fl.Close()

	cur := BackfillCursor{Day: 33, Rows: 300, Files: []BackfillFilePos{{Name: "q0.csv", Rows: 300, Off: 61_234}}}
	if err := leader.IngestBackfill(obs[:300], &cur); err != nil {
		t.Fatal(err)
	}
	if err := leader.IngestBackfill(obs[300:n], nil); err != nil {
		t.Fatal(err)
	}

	leaderLast := leader.WAL().NextSeq() - 1
	waitUntil(t, 30*time.Second, "follower catch-up", func() bool {
		return follower.ReplicationResume() == leaderLast
	})

	got, rowsAfter, ok := follower.BackfillState()
	if !ok {
		t.Fatal("follower has no backfill state")
	}
	if !reflect.DeepEqual(got, cur) {
		t.Fatalf("follower cursor:\ngot  %+v\nwant %+v", got, cur)
	}
	if rowsAfter != uint64(n-300) {
		t.Fatalf("follower rowsAfter = %d, want %d", rowsAfter, n-300)
	}
	for _, m := range leader.Models() {
		var l, f bytes.Buffer
		if err := leader.DumpModel(m, &l); err != nil {
			t.Fatal(err)
		}
		if err := follower.DumpModel(m, &f); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(l.Bytes(), f.Bytes()) {
			t.Fatalf("model %s: follower state diverged from leader", m)
		}
	}
}

// TestBackfillRefusesModelChange: a disk that changes model fails its
// backfill batch whole, before anything is appended, as Ingest and
// IngestBatch refuse the row — whether the earlier model comes from the
// same batch or from routing memory. Accepting it left the disk tracked
// by both models' labelers, with a route that depended on which shard
// won the race. After its failure row a disk is free to come back under
// another model in a later batch.
func TestBackfillRefusesModelChange(t *testing.T) {
	row := func(serial, model string, day int, failed bool) FleetObservation {
		return FleetObservation{Model: model, Observation: Observation{
			Serial: serial, Day: day, Failed: failed, Values: make([]float64, CatalogSize()),
		}}
	}
	open := func(t *testing.T) *Engine {
		t.Helper()
		eng, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		return eng
	}
	backfill := func(t *testing.T, eng *Engine, batch ...FleetObservation) {
		t.Helper()
		if err := eng.IngestBackfill(batch, nil); err != nil {
			t.Fatal(err)
		}
	}
	refused := func(t *testing.T, eng *Engine, batch ...FleetObservation) {
		t.Helper()
		next := eng.WAL().NextSeq()
		if err := eng.IngestBackfill(batch, nil); err == nil || !strings.Contains(err.Error(), `disk "X" changed model`) {
			t.Fatalf("IngestBackfill: %v, want disk X's model change refused", err)
		}
		if got := eng.WAL().NextSeq(); got != next {
			t.Fatalf("a refused batch reached the log: NextSeq %d -> %d", next, got)
		}
	}
	routed := func(t *testing.T, eng *Engine, want string) {
		t.Helper()
		if got, ok := eng.ModelOf("X"); !ok || got != want {
			t.Fatalf("X routed to %q (known %v), want %q", got, ok, want)
		}
	}

	t.Run("inside one batch", func(t *testing.T) {
		eng := open(t)
		refused(t, eng, row("X", "M", 1, false), row("Y", "N", 1, false), row("X", "N", 2, false))
		if models := eng.Models(); len(models) != 0 {
			t.Fatalf("a refused batch reached shards %v", models)
		}
	})
	t.Run("across two batches", func(t *testing.T) {
		eng := open(t)
		backfill(t, eng, row("X", "M", 1, false))
		refused(t, eng, row("Y", "N", 2, false), row("X", "N", 2, false))
		routed(t, eng, "M")
	})
	t.Run("new model after a failure row", func(t *testing.T) {
		eng := open(t)
		backfill(t, eng, row("X", "M", 1, false), row("X", "M", 2, true))
		backfill(t, eng, row("X", "N", 3, false))
		routed(t, eng, "N")
	})
}
