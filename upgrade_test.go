package orfdisk

import (
	"bytes"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"orfdisk/internal/replica"
	"orfdisk/internal/wal"
)

// The run layouts across an upgrade: the previous release logged every
// row's whole catalog (kinds 8 and 9); this one logs the features its
// model reads under the list of their catalog indexes (kinds 10 and 11).
// Both go through one apply rule, so a log that holds both — a restarted
// node's, or what a follower of this release receives from an older
// leader during a rolling upgrade — rebuilds the state one release alone
// would have built.

// upgradeStream is a backfill batch under a cursor, then live batches:
// the two ways rows reach a log.
type upgradeStream struct {
	bf   []FleetObservation
	cur  *BackfillCursor
	live []FleetObservation
}

func newUpgradeStream(obs []FleetObservation) upgradeStream {
	return upgradeStream{bf: obs[:300], live: obs[300:], cur: &BackfillCursor{
		Day: obs[299].Day, Rows: 300, Files: []BackfillFilePos{{Name: "a.csv", Rows: 300, Off: 1 << 16}}}}
}

// eachDay calls fn with each day's rows of obs, in order.
func eachDay(obs []FleetObservation, fn func([]FleetObservation)) {
	for lo, hi := 0, 0; lo < len(obs); lo = hi {
		for hi = lo + 1; hi < len(obs) && obs[hi].Day == obs[lo].Day; hi++ {
		}
		fn(obs[lo:hi])
	}
}

// feed sends the stream through this release's doors: one IngestBackfill,
// then one IngestBatch a day.
func (u upgradeStream) feed(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.IngestBackfill(slices.Clone(u.bf), u.cur); err != nil {
		t.Fatal(err)
	}
	eachDay(u.live, func(day []FleetObservation) {
		for _, r := range e.IngestBatch(slices.Clone(day)) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	})
}

// previousRelease returns the payloads the previous release's leader
// logged for the same calls: catalog runs of kind 9 (stretches of
// consecutive same-model rows) and the cursor record, then a kind 8 run
// per model per day.
func (u upgradeStream) previousRelease() (payloads [][]byte) {
	for lo, hi := 0, 0; lo < len(u.bf); lo = hi {
		for hi = lo + 1; hi < len(u.bf) && u.bf[hi].Model == u.bf[lo].Model; hi++ {
		}
		payloads = append(payloads, appendCatalogRunRecord(nil, recCatalogBFRun, u.bf[lo:hi]))
	}
	payloads = append(payloads, appendCursorRecord(nil, *u.cur))
	eachDay(u.live, func(day []FleetObservation) {
		var models []string
		byModel := map[string][]FleetObservation{}
		for _, o := range day {
			if byModel[o.Model] == nil {
				models = append(models, o.Model)
			}
			byModel[o.Model] = append(byModel[o.Model], o)
		}
		for _, m := range models {
			payloads = append(payloads, appendCatalogRunRecord(nil, recCatalogRun, byModel[m]))
		}
	})
	return payloads
}

// sameEngineState fails unless got holds want's models with byte-equal
// state and the same backfill resume point.
func sameEngineState(t *testing.T, name string, got, want *Engine) {
	t.Helper()
	if !reflect.DeepEqual(got.Models(), want.Models()) {
		t.Fatalf("%s: models %v, want %v", name, got.Models(), want.Models())
	}
	for _, m := range want.Models() {
		if !bytes.Equal(dumpModel(t, got, m), dumpModel(t, want, m)) {
			t.Errorf("%s: model %s state differs", name, m)
		}
	}
	gc, gr, gok := got.BackfillState()
	wc, wr, wok := want.BackfillState()
	if gr != wr || gok != wok || !reflect.DeepEqual(gc, wc) {
		t.Errorf("%s: BackfillState %+v, %d, %v; want %+v, %d, %v", name, gc, gr, gok, wc, wr, wok)
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

// TestCatalogRunsThenProjectedRunsRecover: a node upgraded in place finds
// the previous release's catalog runs in its log, applies them, and logs
// this release's runs after them. A crash then leaves a log of both, and
// its recovery must rebuild what an engine that never crashed, fed every
// row through this release's doors, holds.
func TestCatalogRunsThenProjectedRunsRecover(t *testing.T) {
	obs := engineStream(t, 83, 2)
	old, now := newUpgradeStream(obs[:900]), newUpgradeStream(obs[900:1800])
	now.cur.Day, now.cur.Rows = obs[1199].Day, 1200

	ref, err := NewEngine(EngineConfig{Predictor: engineTestConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	old.feed(t, ref)
	now.feed(t, ref)

	dir := t.TempDir()
	w, err := wal.Open(wal.Options{Dir: filepath.Join(dir, walDirName)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendBatch(old.previousRelease()); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	upgraded, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer upgraded.Close()
	now.feed(t, upgraded)
	if err := upgraded.WAL().Sync(); err != nil {
		t.Fatal(err)
	}
	crash := t.TempDir()
	copyTree(t, dir, crash)
	want := []byte{recCatalogBFRun, recCursor, recCatalogRun, recObserveBFRun, recCursor, recObserveRun}
	if got := logKinds(t, crash); !bytes.Equal(got, want) {
		t.Fatalf("log holds record kinds %v, want %v", got, want)
	}
	rec, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: crash})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if n := rec.met.replaySkipped.Value(); n != 0 {
		t.Fatalf("recovery skipped %d rows", n)
	}
	sameEngineState(t, "upgraded", upgraded, ref)
	sameEngineState(t, "recovered", rec, ref)
}

// TestFollowerAppliesEitherRunLayout: during a rolling upgrade a follower
// of this release receives an older leader's catalog runs. Fed those, it
// must end byte-equal to a follower fed this release's leader's log of
// the same calls, and to that leader.
func TestFollowerAppliesEitherRunLayout(t *testing.T) {
	u := newUpgradeStream(engineStream(t, 84, 2)[:1200])
	leader, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	u.feed(t, leader)
	var older []replica.Record
	for i, p := range u.previousRelease() {
		older = append(older, replica.Record{Seq: uint64(i + 1), Payload: p})
	}
	follow := func(recs []replica.Record) *Engine {
		t.Helper()
		f, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: t.TempDir(), Follower: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		if err := f.ApplyReplicated(recs); err != nil {
			t.Fatal(err)
		}
		return f
	}
	ofOlder, ofLeader := follow(older), follow(leaderRecords(t, leader, nil))
	sameEngineState(t, "follower of the previous release", ofOlder, ofLeader)
	sameEngineState(t, "follower of this release", ofLeader, leader)
	if !reflect.DeepEqual(ofOlder.Stats(), ofLeader.Stats()) {
		t.Errorf("Stats %+v, want %+v", ofOlder.Stats(), ofLeader.Stats())
	}
}

// TestRunWithoutAFeatureIsPoison: the apply rule gathers the features a
// model reads from the indexes a run lists, in whatever order it lists
// them. A list that lacks one of them — shorter, or as long with another
// index in its place — cannot serve the model: each of its rows is a
// counted poison pill, on recovery and on a follower alike, never applied
// and never routed.
func TestRunWithoutAFeatureIsPoison(t *testing.T) {
	feats := DefaultFeatures()
	unread := slices.IndexFunc(catalogIndexes, func(j int) bool { return !slices.Contains(feats, j) })
	swapped := slices.Clone(feats)
	swapped[3] = unread
	reversed := slices.Clone(feats)
	slices.Reverse(reversed)
	row := func(serial string, day int) FleetObservation {
		v := make([]float64, CatalogSize())
		for i := range v {
			v[i] = float64(day*31 + i)
		}
		return FleetObservation{Model: "M", Observation: Observation{Serial: serial, Day: day, Values: v}}
	}

	writer, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewEngine(EngineConfig{Predictor: engineTestConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ingest := func(rows ...FleetObservation) {
		t.Helper()
		for _, o := range rows {
			for _, e := range []*Engine{writer, ref} {
				if _, err := e.Ingest(o); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	plant := func(kind byte, index []int, rows ...FleetObservation) {
		t.Helper()
		if _, err := writer.wal.Append(appendRunRecord(nil, kind, index, projectRows(rows, index))); err != nil {
			t.Fatal(err)
		}
	}
	ingest(row("a", 1), row("b", 1))
	plant(recObserveRun, feats[:len(feats)-1], row("p1", 2), row("p2", 2))
	plant(recObserveRun, swapped, row("p3", 2), row("a", 2), row("p4", 2))
	plant(recObserveBFRun, swapped, row("p5", 2))
	// The same features listed in another order serve the model: the
	// planted row is applied as if Ingest had logged it.
	plant(recObserveRun, reversed, row("b", 2))
	if _, err := ref.Ingest(row("b", 2)); err != nil {
		t.Fatal(err)
	}
	ingest(row("a", 3), row("b", 3))
	const poison = 6

	follower, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: t.TempDir(), Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	if err := follower.ApplyReplicated(leaderRecords(t, writer, nil)); err != nil {
		t.Fatal(err)
	}
	recovered, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: writer.cfg.DataDir})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	for name, e := range map[string]*Engine{"recovered": recovered, "follower": follower} {
		if got := e.met.replaySkipped.Value(); got != poison {
			t.Errorf("%s: %d rows skipped as poison pills, want %d", name, got, poison)
		}
		if !bytes.Equal(dumpModel(t, e, "M"), dumpModel(t, ref, "M")) {
			t.Errorf("%s: model state differs from the engine that never saw the poison rows", name)
		}
		for _, serial := range []string{"p1", "p2", "p3", "p4", "p5"} {
			if m, ok := e.ModelOf(serial); ok {
				t.Errorf("%s: poison serial %s routed to %s", name, serial, m)
			}
		}
	}
}
