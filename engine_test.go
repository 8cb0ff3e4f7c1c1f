package orfdisk

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"orfdisk/internal/dataset"
	"orfdisk/internal/packed"
	"orfdisk/internal/smart"
	"orfdisk/internal/wal"
)

// engineStream builds a chronological FleetObservation stream from a
// small simulated fleet, routing disks to nModels drive models by a
// deterministic serial hash.
func engineStream(t testing.TB, seed uint64, nModels int) []FleetObservation {
	t.Helper()
	p := dataset.STA(1)
	p.GoodDisks, p.FailedDisks, p.Months = 60, 20, 6
	g, err := dataset.New(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	var obs []FleetObservation
	err = g.Stream(func(s smart.Sample) error {
		obs = append(obs, FleetObservation{
			Model: modelForSerial(s.Serial, nModels),
			Observation: Observation{
				Serial: s.Serial, Day: s.Day, Failed: s.Failure, Values: s.Values,
			},
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return obs
}

func modelForSerial(serial string, nModels int) string {
	h := fnv.New32a()
	h.Write([]byte(serial))
	return fmt.Sprintf("MODEL-%d", h.Sum32()%uint32(nModels))
}

func engineTestConfig() Config {
	return Config{Horizon: 4, ORF: ORFConfig{Trees: 5, MinParentSize: 50, Seed: 9}}
}

// encodeObserveRecord frames obs as a live run of one (kind 10) under the
// first len(obs.Values) catalog indexes, for tests that plant or decode
// raw WAL records. Planted rows are narrower than the 19 features a model
// reads, so the list lacks one of them and the apply rule takes the row
// for a poison pill.
func encodeObserveRecord(obs FleetObservation) []byte {
	index := make([]int, len(obs.Values))
	for i := range index {
		index[i] = i
	}
	return appendRunRecord(nil, recObserveRun, index, []FleetObservation{obs})
}

func samePrediction(a, b Prediction) bool {
	return a.Serial == b.Serial && a.Day == b.Day && a.Risky == b.Risky &&
		a.Final == b.Final &&
		math.Float64bits(a.Score) == math.Float64bits(b.Score)
}

func TestEngineMatchesFleet(t *testing.T) {
	obs := engineStream(t, 21, 3)
	cfg := engineTestConfig()
	fleet := NewFleet(cfg)
	eng, err := NewEngine(EngineConfig{Predictor: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, o := range obs {
		want, werr := fleet.Ingest(o)
		got, gerr := eng.Ingest(o)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("error divergence: fleet %v engine %v", werr, gerr)
		}
		if werr == nil && !samePrediction(want, got) {
			t.Fatalf("prediction divergence for %s day %d:\nfleet  %+v\nengine %+v",
				o.Serial, o.Day, want, got)
		}
	}
	models := eng.Models()
	if len(models) != len(fleet.Models()) {
		t.Fatalf("models %v vs fleet %v", models, fleet.Models())
	}
	for _, ms := range eng.Stats() {
		p := fleet.Predictor(ms.Model)
		st := p.Stats()
		if ms.Updates != st.Updates || ms.PosSeen != st.PosSeen || ms.NegSeen != st.NegSeen ||
			ms.Tracked != p.TrackedDisks() {
			t.Fatalf("stats divergence for %s: %+v vs %+v", ms.Model, ms, st)
		}
	}
}

func TestEngineConcurrentIngest(t *testing.T) {
	const (
		nModels    = 6
		goroutines = 4 // per model
		days       = 40
	)
	eng, err := NewEngine(EngineConfig{
		Predictor: engineTestConfig(),
		DataDir:   t.TempDir(), // WAL in the loop for race coverage
	})
	if err != nil {
		t.Fatal(err)
	}
	values := make([]float64, CatalogSize())
	for i := range values {
		values[i] = float64(i)
	}
	var wg sync.WaitGroup
	errs := make(chan error, nModels*goroutines)
	for m := 0; m < nModels; m++ {
		for g := 0; g < goroutines; g++ {
			m, g := m, g
			wg.Add(1)
			go func() {
				defer wg.Done()
				serial := fmt.Sprintf("disk-%d-%d", m, g)
				model := fmt.Sprintf("MODEL-%d", m)
				for day := 0; day < days; day++ {
					_, err := eng.Ingest(FleetObservation{
						Model: model,
						Observation: Observation{
							Serial: serial, Day: day, Values: values,
						},
					})
					if err != nil {
						errs <- fmt.Errorf("%s day %d: %w", serial, day, err)
						return
					}
				}
				// Exercise the concurrent read paths too.
				eng.Models()
				eng.Stats()
				eng.Importance(model)
				if g == 0 {
					if err := eng.Retire(serial); err != nil {
						errs <- err
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	stats := eng.Stats()
	if len(stats) != nModels {
		t.Fatalf("%d models, want %d", len(stats), nModels)
	}
	var updates int64
	for _, ms := range stats {
		updates += ms.Updates
	}
	// Every goroutine's stream releases days-horizon negatives, except
	// the retired disks lose their queued window.
	if updates == 0 {
		t.Fatal("no online updates happened")
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineCrashRecovery is the headline durability test: run a stream
// through a durable engine, snapshot mid-way, keep streaming, "crash"
// (abandon the engine without closing), damage the WAL tail with a torn
// partial record, recover, and require the recovered engine to be
// bit-identical to an uninterrupted run — same predictions for the rest
// of the stream, same forest statistics, same scores.
func TestEngineCrashRecovery(t *testing.T) {
	obs := engineStream(t, 22, 3)
	cfg := engineTestConfig()
	cut1, cut2 := len(obs)/3, 2*len(obs)/3

	// Reference: uninterrupted single-threaded run over the full stream.
	fleet := NewFleet(cfg)
	refPred := make([]Prediction, len(obs))
	for i, o := range obs {
		p, err := fleet.Ingest(o)
		if err != nil {
			t.Fatal(err)
		}
		refPred[i] = p
	}

	dir := t.TempDir()
	eng1, err := NewEngine(EngineConfig{Predictor: cfg, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range obs[:cut1] {
		if _, err := eng1.Ingest(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for _, o := range obs[cut1:cut2] {
		if _, err := eng1.Ingest(o); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: no Close, no final snapshot. The WAL covers [cut1, cut2).
	// Simulate a torn final write on top.
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments (err=%v)", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF, 0x01, 0x00, 0x00, 0xDE, 0xAD}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	eng2, err := NewEngine(EngineConfig{Predictor: cfg, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	// The recovered engine must continue the exact stream.
	for i, o := range obs[cut2:] {
		got, err := eng2.Ingest(o)
		if err != nil {
			t.Fatal(err)
		}
		if want := refPred[cut2+i]; !samePrediction(want, got) {
			t.Fatalf("post-recovery divergence at obs %d (%s day %d):\nwant %+v\ngot  %+v",
				cut2+i, o.Serial, o.Day, want, got)
		}
	}
	for _, ms := range eng2.Stats() {
		p := fleet.Predictor(ms.Model)
		if p == nil {
			t.Fatalf("recovered unknown model %s", ms.Model)
		}
		st := p.Stats()
		if ms.Updates != st.Updates || ms.PosSeen != st.PosSeen ||
			ms.NegSeen != st.NegSeen || ms.Nodes != st.Nodes ||
			ms.Tracked != p.TrackedDisks() {
			t.Fatalf("stats divergence for %s after recovery:\n%+v\n%+v", ms.Model, ms, st)
		}
	}
	// Scores on held-out vectors must match bit for bit.
	probe := make([]float64, CatalogSize())
	for i := range probe {
		probe[i] = float64(i) * 1.5
	}
	for _, model := range eng2.Models() {
		var got float64
		if err := eng2.pool.Query(model, func(s *shardState) {
			got, _ = s.p.Score(probe)
		}); err != nil {
			t.Fatal(err)
		}
		want, err := fleet.Predictor(model).Score(probe)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("score divergence for %s: %v vs %v", model, want, got)
		}
	}
}

func TestEngineRestartAfterCleanClose(t *testing.T) {
	obs := engineStream(t, 23, 2)
	cfg := engineTestConfig()
	cut := len(obs) / 2
	dir := t.TempDir()

	fleet := NewFleet(cfg)
	refPred := make([]Prediction, len(obs))
	for i, o := range obs {
		refPred[i], _ = fleet.Ingest(o)
	}

	eng1, err := NewEngine(EngineConfig{Predictor: cfg, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range obs[:cut] {
		if _, err := eng1.Ingest(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng1.Close(); err != nil {
		t.Fatal(err)
	}
	// A clean close snapshots everything: the WAL prefix is truncated
	// and recovery must come purely from snapshots.
	eng2, err := NewEngine(EngineConfig{Predictor: cfg, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	for i, o := range obs[cut:] {
		got, err := eng2.Ingest(o)
		if err != nil {
			t.Fatal(err)
		}
		if want := refPred[cut+i]; !samePrediction(want, got) {
			t.Fatalf("post-restart divergence at obs %d:\nwant %+v\ngot  %+v", cut+i, want, got)
		}
	}
}

func TestEngineRetireDurable(t *testing.T) {
	cfg := engineTestConfig()
	dir := t.TempDir()
	values := make([]float64, CatalogSize())
	eng1, err := NewEngine(EngineConfig{Predictor: cfg, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 3; day++ {
		if _, err := eng1.Ingest(FleetObservation{
			Model:       "M",
			Observation: Observation{Serial: "d1", Day: day, Values: values},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng1.Retire("d1"); err != nil {
		t.Fatal(err)
	}
	// Crash without snapshot: the retire must be replayed from the WAL.
	eng2, err := NewEngine(EngineConfig{Predictor: cfg, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	stats := eng2.Stats()
	if len(stats) != 1 || stats[0].Tracked != 0 {
		t.Fatalf("retired disk resurrected: %+v", stats)
	}
	// And its routing memory must be gone: an observation without a
	// model can no longer resolve.
	if _, err := eng2.Ingest(FleetObservation{
		Observation: Observation{Serial: "d1", Day: 9, Values: values},
	}); err == nil {
		t.Fatal("observation without model resolved after retire")
	}
}

func TestEngineSnapshotTruncatesWAL(t *testing.T) {
	cfg := engineTestConfig()
	dir := t.TempDir()
	eng, err := NewEngine(EngineConfig{
		Predictor:    cfg,
		DataDir:      dir,
		SegmentBytes: 4096, // force frequent rotation
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	values := make([]float64, CatalogSize())
	for day := 0; day < 200; day++ {
		if _, err := eng.Ingest(FleetObservation{
			Model:       "M",
			Observation: Observation{Serial: "d1", Day: day, Values: values},
		}); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
	if len(before) < 3 {
		t.Fatalf("expected several segments before snapshot, got %d", len(before))
	}
	if err := eng.Snapshot(); err != nil {
		t.Fatal(err)
	}
	after, _ := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
	if len(after) >= len(before) {
		t.Fatalf("snapshot truncated nothing: %d -> %d segments", len(before), len(after))
	}
	if got := len(snapFiles(t, dir)); got != 1 {
		t.Fatalf("%d models in state records, want 1", got)
	}
}

func TestEngineBatch(t *testing.T) {
	eng, err := NewEngine(EngineConfig{Predictor: engineTestConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	values := make([]float64, CatalogSize())
	batch := []FleetObservation{
		{Model: "A", Observation: Observation{Serial: "a1", Day: 0, Values: values}},
		{Model: "B", Observation: Observation{Serial: "b1", Day: 0, Values: values}},
		{Observation: Observation{Serial: "", Day: 0, Values: values}},      // invalid: no serial
		{Observation: Observation{Serial: "ghost", Day: 0, Values: values}}, // invalid: unknown model
		{Model: "A", Observation: Observation{Serial: "a1", Day: 1, Values: values}},
	}
	res := eng.IngestBatch(batch)
	if len(res) != len(batch) {
		t.Fatalf("%d results for %d observations", len(res), len(batch))
	}
	for _, i := range []int{0, 1, 4} {
		if res[i].Err != nil {
			t.Fatalf("item %d failed: %v", i, res[i].Err)
		}
		if res[i].Prediction.Serial != batch[i].Serial || res[i].Prediction.Day != batch[i].Day {
			t.Fatalf("item %d misrouted: %+v", i, res[i].Prediction)
		}
	}
	for _, i := range []int{2, 3} {
		if res[i].Err == nil {
			t.Fatalf("invalid item %d accepted", i)
		}
	}
	if got := eng.Models(); len(got) != 2 {
		t.Fatalf("models after batch: %v", got)
	}
}

// TestRecoveryPublishesOncePerModel: replay advances the applied count
// but publishes nothing — refreezeAll republishes every shard the moment
// replay ends, so a snapshot frozen mid-replay is thrown away unread. A
// recovered engine has therefore published twice per model (shard
// construction, post-replay), whatever the suffix length, and serves the
// scores of an engine that never crashed.
func TestRecoveryPublishesOncePerModel(t *testing.T) {
	obs := engineStream(t, 61, 2)
	if len(obs) > 3000 {
		obs = obs[:3000]
	}
	cfg := engineTestConfig()
	dir := t.TempDir()
	crashed, err := NewEngine(EngineConfig{Predictor: cfg, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewEngine(EngineConfig{Predictor: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for i := 0; i < len(obs); i += 256 {
		batch := obs[i:min(i+256, len(obs))]
		for _, e := range []*Engine{crashed, ref} {
			for _, r := range e.IngestBatch(append([]FleetObservation(nil), batch...)) {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
			}
		}
	}
	if err := crashed.wal.Sync(); err != nil { // crash: no Close, no snapshot
		t.Fatal(err)
	}
	if err := ref.refreezeAll(); err != nil {
		t.Fatal(err)
	}

	rec, err := NewEngine(EngineConfig{Predictor: cfg, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	models := rec.Models()
	if len(models) != 2 || rec.met.replayed.Value() < 2000 {
		t.Fatalf("recovered %d models from %d replayed records; want 2 models, >= 2000 records",
			len(models), rec.met.replayed.Value())
	}
	if got := rec.met.freezes.Value(); got > uint64(2*len(models)) {
		t.Fatalf("engine_frozen_publishes_total = %d after recovering %d models, want at most two each", got, len(models))
	}
	if got := rec.met.recoverySeconds.Value(); got <= 0 {
		t.Fatalf("engine_recovery_seconds = %v, want the recovery's wall time", got)
	}

	scores := func(e *Engine, model string) []uint64 {
		ts := httptest.NewServer(NewServerWithEngine(e).Handler())
		defer ts.Close()
		req := PredictBatchRequest{Model: model}
		for _, o := range obs[len(obs)-64:] {
			req.Items = append(req.Items, PredictItem{Values: o.Values})
		}
		var out PredictBatchResponse
		resp := postJSON(t, ts.URL+"/v1/predict/batch", req)
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || len(out.Results) != len(req.Items) {
			t.Fatalf("predict/batch on %s: status %d, %d results, err %v", model, resp.StatusCode, len(out.Results), err)
		}
		if out.UpdatesBehind != 0 {
			t.Fatalf("%s: published snapshot is %d updates behind", model, out.UpdatesBehind)
		}
		bits := make([]uint64, len(out.Results))
		for i, r := range out.Results {
			bits[i] = math.Float64bits(r.Score)
		}
		return bits
	}
	for _, model := range models {
		if got, want := scores(rec, model), scores(ref, model); !slices.Equal(got, want) {
			t.Fatalf("%s: recovered engine's scores differ from the never-crashed engine's", model)
		}
	}
}

// TestEngineRecoverySkipsPoisonPill is the regression test for the
// poison-pill replay bug: apply appends the WAL record before
// Predictor.Ingest, so a record the predictor rejects persists in the
// log. Recovery used to abort on that record — the process could never
// start again. It must instead skip it (the live path already surfaced
// the error to the client) and count it.
func TestEngineRecoverySkipsPoisonPill(t *testing.T) {
	cfg := engineTestConfig()
	dir := t.TempDir()
	values := make([]float64, CatalogSize())
	eng1, err := NewEngine(EngineConfig{Predictor: cfg, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 3; day++ {
		if _, err := eng1.Ingest(FleetObservation{
			Model:       "M",
			Observation: Observation{Serial: "d1", Day: day, Values: values},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Plant a poison pill: a durable record the predictor will reject
	// (a run whose index list lacks features the model reads — e.g.
	// written by a binary with another feature list). Engine.validate
	// guards the live path, but the record type is shared, so replay sees
	// it raw.
	w, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal")})
	if err != nil {
		t.Fatal(err)
	}
	poison := FleetObservation{
		Model:       "M",
		Observation: Observation{Serial: "px", Day: 9, Values: []float64{1, 2, 3}},
	}
	if _, err := w.Append(encodeObserveRecord(poison)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	eng2, err := NewEngine(EngineConfig{Predictor: cfg, DataDir: dir})
	if err != nil {
		t.Fatalf("recovery aborted on a poison-pill record: %v", err)
	}
	defer eng2.Close()
	if got := eng2.met.replaySkipped.Value(); got != 1 {
		t.Fatalf("replay skipped %d records, want 1", got)
	}
	if got := eng2.met.replayed.Value(); got != 3 {
		t.Fatalf("replayed %d records, want 3", got)
	}
	// The engine must be fully serviceable afterwards.
	if _, err := eng2.Ingest(FleetObservation{
		Model:       "M",
		Observation: Observation{Serial: "d1", Day: 3, Values: values},
	}); err != nil {
		t.Fatal(err)
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
	unread := 0 // the first catalog index the model does not read
	for slices.Contains(feats, unread) {
		unread++
	}
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

// TestEngineIdleShardDoesNotPinWAL is the regression test for the
// truncation-pinning bug: the cutoff used to be the min lastSeq across
// all shards, so one idle model recovered at a low sequence pinned
// TruncateBefore forever and the WAL grew without bound.
func TestEngineIdleShardDoesNotPinWAL(t *testing.T) {
	cfg := engineTestConfig()
	dir := t.TempDir()
	values := make([]float64, CatalogSize())
	eng1, err := NewEngine(EngineConfig{
		Predictor:    cfg,
		DataDir:      dir,
		SegmentBytes: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The idle model: one observation, snapshotted at a low sequence.
	if _, err := eng1.Ingest(FleetObservation{
		Model:       "IDLE",
		Observation: Observation{Serial: "i1", Day: 0, Values: values},
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng1.Close(); err != nil { // snapshots IDLE at seq 1
		t.Fatal(err)
	}
	// Restart: IDLE recovers from its snapshot at lastSeq 1 and never
	// sees traffic again, while BUSY churns the log.
	eng2, err := NewEngine(EngineConfig{
		Predictor:    cfg,
		DataDir:      dir,
		SegmentBytes: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	for day := 0; day < 200; day++ {
		if _, err := eng2.Ingest(FleetObservation{
			Model:       "BUSY",
			Observation: Observation{Serial: "b1", Day: day, Values: values},
		}); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
	if len(before) < 3 {
		t.Fatalf("expected several segments before snapshot, got %d", len(before))
	}
	if err := eng2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	after, _ := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
	if len(after) != 1 {
		t.Fatalf("idle shard pinned WAL truncation: %d -> %d segments, want 1 (the active segment)",
			len(before), len(after))
	}
	// Durability must survive the aggressive truncation: crash now and
	// recover purely from snapshots + remaining suffix.
	eng3, err := NewEngine(EngineConfig{Predictor: cfg, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer eng3.Close()
	models := eng3.Models()
	if len(models) != 2 {
		t.Fatalf("recovered models %v, want BUSY and IDLE", models)
	}
	for _, ms := range eng3.Stats() {
		if ms.Tracked != 1 {
			t.Fatalf("model %s recovered %d tracked disks, want 1", ms.Model, ms.Tracked)
		}
	}
}

// TestEngineShedRequestLeavesNoRoute is the regression test for the
// phantom-routing bug: resolveModel used to record the serial->model
// route before enqueue, so an observation shed with ErrBusy still
// mutated routing memory that recovery would never reconstruct.
func TestEngineShedRequestLeavesNoRoute(t *testing.T) {
	eng, err := NewEngine(EngineConfig{
		Predictor:      engineTestConfig(),
		Mailbox:        1,
		EnqueueTimeout: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	values := make([]float64, CatalogSize())

	// Wedge model M's shard worker and fill its 1-slot mailbox so the
	// next ingest sheds.
	release := make(chan struct{})
	stalled := make(chan struct{})
	if err := eng.pool.Submit("M", func(*shardState) {
		close(stalled)
		<-release
	}); err != nil {
		t.Fatal(err)
	}
	<-stalled
	if err := eng.pool.Submit("M", func(*shardState) {}); err != nil {
		t.Fatal(err)
	}
	_, err = eng.Ingest(FleetObservation{
		Model:       "M",
		Observation: Observation{Serial: "s1", Day: 0, Values: values},
	})
	if err != ErrBusy {
		t.Fatalf("ingest on a wedged shard: %v, want ErrBusy", err)
	}
	close(release)

	// The shed observation never reached the shard: no route may exist.
	if _, err := eng.Ingest(FleetObservation{
		Observation: Observation{Serial: "s1", Day: 1, Values: values},
	}); err == nil {
		t.Fatal("shed request left a phantom serial->model route behind")
	}
	// And a successfully applied observation must still create one.
	if _, err := eng.Ingest(FleetObservation{
		Model:       "M",
		Observation: Observation{Serial: "s1", Day: 1, Values: values},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Ingest(FleetObservation{
		Observation: Observation{Serial: "s1", Day: 2, Values: values},
	}); err != nil {
		t.Fatalf("route missing after applied observation: %v", err)
	}
}

// TestEngineCloseLeavesNoGoroutines: everything an engine starts — shard
// workers, the WAL syncer, and on a multi-core host the goroutines that
// encode and decode a snapshot's tree blocks — is gone once Close
// returns, without waiting for a garbage collection. (Forests used to
// park one worker per core, per model and per snapshot or restore, until
// a finalizer ran: 12 goroutines after this sequence on two cores.)
func TestEngineCloseLeavesNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	obs := engineStream(t, 31, 3)[:200]
	dir := t.TempDir()
	before := runtime.NumGoroutine()
	for pass := 0; pass < 2; pass++ { // the second pass recovers from the first's snapshots
		eng, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if pass == 0 {
			for _, r := range eng.IngestBatch(obs) {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
			}
			if err := eng.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		if len(eng.Models()) != 3 {
			t.Fatalf("pass %d: models %v, want 3", pass, eng.Models())
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Close waits for its goroutines' loops to return; their teardown is
	// asynchronous, so poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines before, %d after two open/close cycles:\n%s",
			before, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestEngineBatchResolvesWithinBatch guards the batch-local routing
// rule: a later entry may omit the model because an earlier entry of
// the same batch names it, without committing routes before apply.
func TestEngineBatchResolvesWithinBatch(t *testing.T) {
	eng, err := NewEngine(EngineConfig{Predictor: engineTestConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	values := make([]float64, CatalogSize())
	res := eng.IngestBatch([]FleetObservation{
		{Model: "A", Observation: Observation{Serial: "x", Day: 0, Values: values}},
		{Observation: Observation{Serial: "x", Day: 1, Values: values}},             // resolves via batch
		{Model: "B", Observation: Observation{Serial: "x", Day: 2, Values: values}}, // conflicts
	})
	if res[0].Err != nil || res[1].Err != nil {
		t.Fatalf("batch-local resolution failed: %v, %v", res[0].Err, res[1].Err)
	}
	if res[2].Err == nil {
		t.Fatal("model conflict within batch went undetected")
	}
}

// TestEngineBatchCrashRecovery is the crash-recovery test with
// wal.AppendBatch in the durability path: feed the whole stream through
// IngestBatch (so every multi-record shard group is framed as one
// vectorized append), snapshot mid-way, crash with a torn WAL tail,
// recover, and require bit-identical predictions/stats/scores against an
// uninterrupted reference run.
func TestEngineBatchCrashRecovery(t *testing.T) {
	obs := engineStream(t, 24, 3)
	cfg := engineTestConfig()
	cut1, cut2 := len(obs)/3, 2*len(obs)/3

	fleet := NewFleet(cfg)
	refPred := make([]Prediction, len(obs))
	for i, o := range obs {
		p, err := fleet.Ingest(o)
		if err != nil {
			t.Fatal(err)
		}
		refPred[i] = p
	}

	dir := t.TempDir()
	eng1, err := NewEngine(EngineConfig{Predictor: cfg, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Varying batch sizes so shard groups of 1 (plain Append) and >1
	// (AppendBatch) both land in the log.
	ingestBatches := func(lo, hi int) {
		t.Helper()
		for i := lo; i < hi; {
			n := 1 + (i % 64)
			if i+n > hi {
				n = hi - i
			}
			for j, r := range eng1.IngestBatch(obs[i : i+n]) {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
				if want := refPred[i+j]; !samePrediction(want, r.Prediction) {
					t.Fatalf("batch divergence at obs %d (%s day %d):\nwant %+v\ngot  %+v",
						i+j, obs[i+j].Serial, obs[i+j].Day, want, r.Prediction)
				}
			}
			i += n
		}
	}
	ingestBatches(0, cut1)
	if err := eng1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	ingestBatches(cut1, cut2)
	// Crash without Close; tear the WAL tail.
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments (err=%v)", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF, 0x01, 0x00, 0x00, 0xDE, 0xAD}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	eng2, err := NewEngine(EngineConfig{Predictor: cfg, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	for i, o := range obs[cut2:] {
		got, err := eng2.Ingest(o)
		if err != nil {
			t.Fatal(err)
		}
		if want := refPred[cut2+i]; !samePrediction(want, got) {
			t.Fatalf("post-recovery divergence at obs %d (%s day %d):\nwant %+v\ngot  %+v",
				cut2+i, o.Serial, o.Day, want, got)
		}
	}
	for _, ms := range eng2.Stats() {
		p := fleet.Predictor(ms.Model)
		if p == nil {
			t.Fatalf("recovered unknown model %s", ms.Model)
		}
		st := p.Stats()
		if ms.Updates != st.Updates || ms.PosSeen != st.PosSeen ||
			ms.NegSeen != st.NegSeen || ms.Nodes != st.Nodes ||
			ms.Tracked != p.TrackedDisks() {
			t.Fatalf("stats divergence for %s after recovery:\n%+v\n%+v", ms.Model, ms, st)
		}
	}
	probe := make([]float64, CatalogSize())
	for i := range probe {
		probe[i] = float64(i) * 1.5
	}
	for _, model := range eng2.Models() {
		var got float64
		if err := eng2.pool.Query(model, func(s *shardState) {
			got, _ = s.p.Score(probe)
		}); err != nil {
			t.Fatal(err)
		}
		want, err := fleet.Predictor(model).Score(probe)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("score divergence for %s: %v vs %v", model, want, got)
		}
	}
}

// TestEngineConcurrentIngestStatsSnapshot is the race-targeted test:
// writers hammer Ingest/IngestBatch while other goroutines read Stats
// and force snapshots. Run under -race it guards the shard scratch,
// routing map and snapshot bookkeeping against data races.
func TestEngineConcurrentIngestStatsSnapshot(t *testing.T) {
	const (
		nModels = 4
		writers = 4
		days    = 30
	)
	eng, err := NewEngine(EngineConfig{
		Predictor: engineTestConfig(),
		DataDir:   t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	values := make([]float64, CatalogSize())
	for i := range values {
		values[i] = float64(i)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(2)
	go func() { // snapshotter
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := eng.Snapshot(); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	go func() { // stats reader
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			eng.Stats()
			eng.Models()
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([]FleetObservation, 0, nModels)
			for day := 0; day < days; day++ {
				batch = batch[:0]
				for m := 0; m < nModels; m++ {
					batch = append(batch, FleetObservation{
						Model: fmt.Sprintf("MODEL-%d", m),
						Observation: Observation{
							Serial: fmt.Sprintf("disk-%d-%d", m, w),
							Day:    day, Values: values,
						},
					})
				}
				if day%2 == 0 {
					for _, r := range eng.IngestBatch(batch) {
						if r.Err != nil {
							errs <- r.Err
							return
						}
					}
					continue
				}
				for _, o := range batch {
					if _, err := eng.Ingest(o); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestObserveRecordRoundTrip pins the observe record codec: every
// float bit pattern the fleet can produce must round-trip exactly
// (bit-identical recovery depends on it), including the awkward ones.
func TestObserveRecordRoundTrip(t *testing.T) {
	obs := FleetObservation{
		Model: "ST4000DM000",
		Observation: Observation{
			Serial: "Z302T4N9",
			Day:    812,
			Failed: true,
			Values: []float64{
				0, 1, 100, 253, 19512, -4, 0.5, 3.1415926535,
				math.NaN(), math.Inf(1), math.Inf(-1),
				math.MaxFloat64, math.SmallestNonzeroFloat64, -0.0,
				1e300, -1e-300, 4294967296,
			},
		},
	}
	rec, err := decodeRecord(encodeObserveRecord(obs))
	if err != nil {
		t.Fatal(err)
	}
	if rec.kind != recObserveRun || rec.model != obs.Model || len(rec.run) != 1 {
		t.Fatalf("kind %d, model %q, %d rows; want kind %d, %q, 1 row", rec.kind, rec.model, len(rec.run), recObserveRun, obs.Model)
	}
	got := rec.run[0]
	if got.Model != obs.Model || got.Serial != obs.Serial ||
		got.Day != obs.Day || got.Failed != obs.Failed {
		t.Fatalf("header round-trip: got %+v", got)
	}
	if len(got.Values) != len(obs.Values) {
		t.Fatalf("got %d values, want %d", len(got.Values), len(obs.Values))
	}
	for i, v := range obs.Values {
		if math.Float64bits(got.Values[i]) != math.Float64bits(v) {
			t.Errorf("value %d: bits %x -> %x", i,
				math.Float64bits(v), math.Float64bits(got.Values[i]))
		}
	}
	// Negative days must survive the zig-zag encoding too.
	neg := obs
	neg.Day = -3
	if rec, err = decodeRecord(encodeObserveRecord(neg)); err != nil || rec.run[0].Day != -3 {
		t.Fatalf("negative day: %+v, %v", rec.run, err)
	}
}

// TestObserveRecordRejectsLegacyV1 pins what happens to the retired
// observe layouts now that their decoders are gone: the one-row kinds
// and the whole-catalog runs (8 and 9) are refused on their kind byte,
// before anything after it is parsed, with an error that names the
// remedy, instead of being misread as some other kind.
func TestObserveRecordRejectsLegacyV1(t *testing.T) {
	for _, tc := range []struct {
		kind   byte
		layout string
	}{
		{recObserveV1, "one-row"}, {recObserveV2, "one-row"}, {recObserveBFV2, "one-row"},
		{recObserve, "one-row"}, {recObserveBF, "one-row"},
		{recCatalogRun, "whole-catalog run"}, {recCatalogBFRun, "whole-catalog run"},
	} {
		_, err := decodeRecord([]byte{tc.kind, 1, 'M', 0})
		want := fmt.Sprintf("kind %d is a retired %s observe layout", tc.kind, tc.layout)
		if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "stop it cleanly") {
			t.Errorf("kind %d: err = %v, want %q and the remedy", tc.kind, err, want)
		}
	}
	if _, err := decodeRecord([]byte{0x7F, 1, 2, 3}); err == nil {
		t.Fatal("decode of an unknown record kind succeeded")
	}
}

// TestObserveRecordRejectsCorruptV2 exercises the truncation guards so
// a torn or bit-flipped observe record fails decode instead of
// panicking.
func TestObserveRecordRejectsCorruptV2(t *testing.T) {
	obs := FleetObservation{
		Model: "m", Observation: Observation{
			Serial: "s", Day: 5, Values: []float64{1, 2, 3}},
	}
	good := encodeObserveRecord(obs)
	for cut := 1; cut < len(good); cut++ {
		if _, err := decodeRecord(good[:cut]); err == nil {
			t.Errorf("decode of %d-byte prefix succeeded", cut)
		}
	}
	if _, err := decodeRecord(append(append([]byte(nil), good...), 0xAA)); err == nil {
		t.Error("decode with trailing garbage succeeded")
	}
}

// pathStep is one step of a TestApplyPathsAgree sequence: an observation
// (poison marks one the predictor rejects; refused one that Ingest and
// IngestBatch turn away for its routing, so it never reaches a log), a
// retire, or a backfill cursor record planted raw in the log doors 4 and
// 5 read (it carries no model state, so the other doors have nothing to
// do for it).
type pathStep struct {
	obs     FleetObservation
	retire  string
	poison  bool
	refused bool
	cursor  *BackfillCursor
}

// pathRuns cuts steps into the maximal runs of observations between
// retires — what a batching client would send as one call each. A retire
// is a nil run with its serial at the same index of retires.
func pathRuns(steps []pathStep, keepPoison bool) (runs [][]FleetObservation, retires []string) {
	var run []FleetObservation
	flush := func() {
		if len(run) > 0 {
			runs, retires = append(runs, run), append(retires, "")
			run = nil
		}
	}
	for _, st := range steps {
		switch {
		case st.cursor != nil:
		case st.retire != "":
			flush()
			runs, retires = append(runs, nil), append(retires, st.retire)
		case !st.poison && !st.refused || keepPoison:
			run = append(run, st.obs)
		}
	}
	flush()
	return runs, retires
}

// routesAndQueues returns the engine's routing memory next to the
// serial->model map its shards' labeling queues imply.
func routesAndQueues(t *testing.T, e *Engine) (routes, queues map[string]string) {
	t.Helper()
	routes, queues = map[string]string{}, map[string]string{}
	e.mu.RLock()
	for serial, model := range e.modelOf {
		routes[serial] = model
	}
	e.mu.RUnlock()
	for _, model := range e.Models() {
		if err := e.pool.Query(model, func(s *shardState) {
			for _, serial := range s.p.TrackedSerials() {
				queues[serial] = model
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	return routes, queues
}

// TestApplyPathsAgree drives short hostile sequences through every door
// a record can reach a shard by — Ingest, IngestBatch, IngestBackfill,
// crash recovery of the WAL and a follower's ApplyReplicated — and
// demands one outcome: the same routes, the same Stats and byte-equal
// model state, with a serial routed exactly when its shard's labeler
// tracks it (the property recovery rebuilds routes from). Before the
// doors shared applyRow/applyRecords the batch doors committed every
// route up front and only deleted afterwards, so a disk observed again
// after its failure inside one batch ended up unroutable, and replay
// routed poison-pill serials no queue ever held.
func TestApplyPathsAgree(t *testing.T) {
	row := func(serial, model string, day int, failed bool) pathStep {
		v := make([]float64, CatalogSize())
		for i := range v {
			v[i] = float64((day*7 + i) % 11)
		}
		return pathStep{obs: FleetObservation{Model: model,
			Observation: Observation{Serial: serial, Day: day, Failed: failed, Values: v}}}
	}
	// A row the predictor rejects (wrong vector width — e.g. written by a
	// binary with a different feature catalog). The validating doors
	// refuse it before the WAL; replay and replication meet it raw.
	poison := func(serial, model string, day int) pathStep {
		return pathStep{poison: true, obs: FleetObservation{Model: model,
			Observation: Observation{Serial: serial, Day: day, Values: []float64{1, 2, 3}}}}
	}
	retire := func(serial string) pathStep { return pathStep{retire: serial} }
	// rows is n rows of one model over 40 of its disks, days advancing:
	// what one shard's slice of the log looks like. interleaved alternates
	// such blocks between two models, so that replay and follower apply
	// (which cross to a shard once per run of same-model records, at most
	// applyRunCap at a time) meet run boundaries at every k.
	rows := func(model string, from, n int) []pathStep {
		out := make([]pathStep, n)
		for i := range out {
			j := from + i
			out[i] = row(fmt.Sprintf("%s-%d", model, j%40), model, j/40, false)
		}
		return out
	}
	interleaved := func(k, blocks int) []pathStep {
		var out []pathStep
		for b := 0; b < blocks; b++ {
			out = append(out, rows([]string{"M", "N"}[b%2], b/2*k, k)...)
		}
		return out
	}
	join := func(parts ...[]pathStep) []pathStep { return slices.Concat(parts...) }
	const runCap = applyRunCap

	cases := []struct {
		name  string
		steps []pathStep
	}{
		{"observed, failed, observed again in one batch", []pathStep{
			row("X", "M", 1, false), row("Y", "N", 1, false),
			row("X", "M", 2, true), row("X", "M", 3, false), row("Y", "N", 2, false),
		}},
		{"model omitted after a failure row", []pathStep{
			row("X", "M", 1, false), row("Y", "N", 1, false), row("X", "M", 2, true),
			{refused: true, obs: row("X", "", 3, false).obs}, row("Y", "", 2, false),
			row("Z", "M", 3, false), row("Z", "M", 4, true), row("Z", "M", 5, false), row("Z", "", 6, false),
		}},
		{"failed row last", []pathStep{
			row("X", "M", 1, false), row("Y", "M", 1, false), row("Z", "N", 1, false),
			row("Y", "M", 2, false), row("X", "M", 2, true),
		}},
		{"retire between observes", []pathStep{
			row("X", "M", 1, false), row("Y", "N", 1, false), retire("X"),
			row("X", "M", 2, false), row("Y", "N", 2, false), retire("Y"), retire("ghost"),
		}},
		{"poison pills", []pathStep{
			row("X", "M", 1, false), poison("px", "M", 1), poison("X", "M", 2),
			row("X", "M", 3, false), poison("py", "M", 3),
		}},
		{"two models interleaved every row", interleaved(1, 12)},
		{"two models interleaved every 3 rows", interleaved(3, 8)},
		{"two models interleaved every cap-1 rows", interleaved(runCap-1, 4)},
		{"two models interleaved every cap rows", interleaved(runCap, 4)},
		{"two models interleaved every cap+1 rows", interleaved(runCap+1, 4)},
		{"more rows of one model than the cap", rows("M", 0, 2*runCap+10)},
		{"retire in the middle of a run", join(
			rows("M", 0, 90), []pathStep{retire("M-7")}, rows("M", 90, 90))},
		{"poison pill in the middle of a run", join(
			rows("M", 0, 90), []pathStep{poison("M-7", "M", 3), poison("pz", "M", 3)}, rows("M", 90, 90))},
		{"cursor record between rows of one model", join(
			rows("M", 0, 50), []pathStep{{cursor: &BackfillCursor{Day: 2, Rows: 50,
				Files: []BackfillFilePos{{Name: "a.csv", Rows: 50, Off: 4096}}}}}, rows("M", 50, 50))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := engineTestConfig()
			open := func(ec EngineConfig) *Engine {
				t.Helper()
				ec.Predictor = cfg
				e, err := NewEngine(ec)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			// byRuns replays the sequence as one call per run of
			// observations, retires in between.
			byRuns := func(e *Engine, keepPoison bool, send func([]FleetObservation)) {
				t.Helper()
				runs, retires := pathRuns(tc.steps, keepPoison)
				for k, run := range runs {
					if run == nil {
						if err := e.Retire(retires[k]); err != nil {
							t.Fatal(err)
						}
						continue
					}
					send(run)
				}
			}

			doors := map[string]*Engine{}

			// Door 1: one Ingest per row. The writer is durable and its
			// WAL — with the poison rows planted raw, as a binary with
			// another catalog would have logged them — feeds doors 4 and 5.
			writer := open(EngineConfig{DataDir: t.TempDir()})
			doors["Ingest"] = writer
			var ingestErrs, batchErrs []string // per observation, "" = accepted
			for _, st := range tc.steps {
				switch {
				case st.cursor != nil:
					if _, err := writer.wal.Append(appendCursorRecord(nil, *st.cursor)); err != nil {
						t.Fatal(err)
					}
				case st.retire != "":
					if err := writer.Retire(st.retire); err != nil {
						t.Fatal(err)
					}
				default:
					_, err := writer.Ingest(st.obs)
					if want := st.poison || st.refused; (err != nil) != want {
						t.Fatalf("Ingest of %q day %d: err = %v, want failure = %v",
							st.obs.Serial, st.obs.Day, err, want)
					}
					ingestErrs = append(ingestErrs, fmt.Sprint(err))
					if st.poison {
						if _, err := writer.wal.Append(encodeObserveRecord(st.obs)); err != nil {
							t.Fatal(err)
						}
					}
				}
			}

			// Door 2: IngestBatch, durable so the slice's WAL bookkeeping
			// runs too. Row by row it must say what Ingest said.
			batch := open(EngineConfig{DataDir: t.TempDir()})
			defer batch.Close()
			doors["IngestBatch"] = batch
			byRuns(batch, true, func(run []FleetObservation) {
				for _, r := range batch.IngestBatch(append([]FleetObservation(nil), run...)) {
					batchErrs = append(batchErrs, fmt.Sprint(r.Err))
				}
			})
			if !reflect.DeepEqual(batchErrs, ingestErrs) {
				t.Errorf("per-row errors\nIngestBatch %q\nIngest      %q", batchErrs, ingestErrs)
			}

			// Door 3: IngestBackfill. The loader only ever hands over
			// full-width rows (one bad row fails the whole call), so the
			// poison rows are dropped the way the CSV decoder would.
			backfill := open(EngineConfig{DataDir: t.TempDir()})
			defer backfill.Close()
			doors["IngestBackfill"] = backfill
			byRuns(backfill, false, func(run []FleetObservation) {
				for i := range run {
					if run[i].Model == "" { // the loader names every row's model
						run[i].Model, _ = writer.ModelOf(run[i].Serial)
					}
				}
				if err := backfill.IngestBackfill(run, nil); err != nil {
					t.Fatal(err)
				}
			})

			// Door 5 (before 4: it reads the writer's WAL through a cursor).
			follower := open(EngineConfig{DataDir: t.TempDir(), Follower: true})
			defer follower.Close()
			doors["ApplyReplicated"] = follower
			if err := follower.ApplyReplicated(leaderRecords(t, writer, nil)); err != nil {
				t.Fatal(err)
			}

			// Door 4: kill the writer (no Close, no snapshot) and recover
			// its directory.
			recovered := open(EngineConfig{DataDir: writer.cfg.DataDir})
			defer recovered.Close()
			doors["recover"] = recovered

			serials := map[string]bool{}
			for _, st := range tc.steps {
				serials[st.obs.Serial+st.retire] = true
				if st.cursor == nil {
					continue
				}
				// The planted cursor is the resume point on both doors that
				// read the log; the live rows after it are not backfill rows.
				for _, name := range []string{"recover", "ApplyReplicated"} {
					cur, rowsAfter, ok := doors[name].BackfillState()
					if !ok || rowsAfter != 0 || !reflect.DeepEqual(cur, *st.cursor) {
						t.Errorf("%s: BackfillState = %+v, %d, %v; want the planted cursor, 0, true",
							name, cur, rowsAfter, ok)
					}
				}
			}
			dump := func(e *Engine, model string) []byte {
				var buf bytes.Buffer
				if err := e.DumpModel(model, &buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			for name, e := range doors {
				routes, queues := routesAndQueues(t, e)
				if !reflect.DeepEqual(routes, queues) {
					t.Errorf("%s: routes %v, labeling queues %v", name, routes, queues)
				}
				for serial := range serials {
					wm, wok := writer.ModelOf(serial)
					if gm, gok := e.ModelOf(serial); gm != wm || gok != wok {
						t.Errorf("%s: ModelOf(%q) = %q, %v; Ingest door has %q, %v",
							name, serial, gm, gok, wm, wok)
					}
				}
				if got, want := e.Stats(), writer.Stats(); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: Stats\ngot  %+v\nwant %+v", name, got, want)
				}
				for _, model := range writer.Models() {
					if !bytes.Equal(dump(e, model), dump(writer, model)) {
						t.Errorf("%s: model %s state differs from the Ingest door's", name, model)
					}
				}
			}
		})
	}
}

// checkPackedRoundTrip packs vals against prev (nil: on their own),
// checks the size is the codes plus each value's own payload — none for
// a non-zero value with prev's bits — and requires the decode against
// the same prev to be Float64bits-exact with the trailing bytes handed
// back untouched.
func checkPackedRoundTrip(t *testing.T, vals, prev []float64) {
	t.Helper()
	tail := []byte{0xA5, 0x5A}
	enc := packed.Append([]byte{0xEE}, vals, prev)
	if enc[0] != 0xEE {
		t.Fatalf("packed.Append overwrote the buffer it appends to")
	}
	enc = enc[1:]
	want := (len(vals) + 1) / 2
	for i, v := range vals {
		if u := math.Float64bits(v); u != 0 && prev != nil && math.Float64bits(prev[i]) == u {
			continue
		}
		want += len(packed.Append(nil, []float64{v}, nil)) - 1
	}
	if len(enc) != want {
		t.Fatalf("%d values packed into %d bytes, want codes + payloads = %d", len(vals), len(enc), want)
	}
	got, rest, err := packed.Decode(append(enc[:len(enc):len(enc)], tail...), uint64(len(vals)), prev)
	if err != nil {
		t.Fatalf("packed.Decode(%v): %v", vals, err)
	}
	if !bytes.Equal(rest, tail) {
		t.Fatalf("packed.Decode left % x, want the % x that followed the values", rest, tail)
	}
	for i, v := range vals {
		if math.Float64bits(got[i]) != math.Float64bits(v) {
			t.Fatalf("value %d: bits %016x -> %016x", i, math.Float64bits(v), math.Float64bits(got[i]))
		}
	}
}

// TestPackedValuesRoundTrip pins the packed value codec: every bit
// pattern survives, and the boundaries of the integer form (1, 2^48)
// fall on the right side.
func TestPackedValuesRoundTrip(t *testing.T) {
	special := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 255, 256, 65535, 65536,
		1 << 47, 1<<48 - 1, 1 << 48, 1 << 52, 1<<53 + 2,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7FF8_0000_0000_0001), math.Float64frombits(0xFFF0_0000_DEAD_BEEF),
		math.MaxFloat64, math.SmallestNonzeroFloat64, 415.3,
	}
	checkPackedRoundTrip(t, special, nil)
	for _, v := range special {
		checkPackedRoundTrip(t, []float64{v}, nil)
	}
	// The code each form gets, and that the encoder is canonical: the
	// integer form only where strictly shorter.
	for _, tc := range []struct {
		v    float64
		code byte
	}{
		{0, 0}, {1, 9}, {255, 9}, {256, 2}, {257, 10}, {65535, 10}, {65536, 2},
		{1 << 47, 2}, {1<<48 - 1, 14}, {1 << 48, 2}, {0.5, 2}, {-1, 2},
		{math.Copysign(0, -1), 1}, {415.3, 8}, {math.SmallestNonzeroFloat64, 8},
	} {
		if got := packed.Append(nil, []float64{tc.v}, nil)[0]; got != tc.code {
			t.Errorf("code of %v = %d, want %d", tc.v, got, tc.code)
		}
	}

	r := rand.New(rand.NewSource(19))
	for n := 0; n < 20000; n++ {
		vals := make([]float64, r.Intn(60))
		for i := range vals {
			switch r.Intn(4) {
			case 0:
				vals[i] = float64(r.Int63n(1<<56) >> uint(r.Intn(56)))
			case 1:
				vals[i] = math.Float64frombits(r.Uint64())
			case 2:
				vals[i] = r.NormFloat64() * 100
			}
		}
		checkPackedRoundTrip(t, vals, nil)
		// Against a previous vector that shares some of the bits.
		prev := make([]float64, len(vals))
		for i := range prev {
			if r.Intn(2) == 0 {
				prev[i] = vals[i]
			} else {
				prev[i] = math.Float64frombits(r.Uint64() >> uint(r.Intn(64)))
			}
		}
		checkPackedRoundTrip(t, vals, prev)
	}
}

// TestPackedValuesRepeat pins code 15, "the previous vector's bits": a
// repeated value costs its code alone whatever its bits (−0, NaN
// payloads, ±Inf, subnormals, the largest integer), +0 keeps code 0, and
// a value that differs from the previous one in any bit — −0 after +0, a
// NaN of another payload — is coded as without a previous vector.
func TestPackedValuesRepeat(t *testing.T) {
	negZero, nan1 := math.Copysign(0, -1), math.Float64frombits(0x7FF8_0000_0000_0001)
	for _, tc := range []struct {
		name       string
		v, prev    float64
		code       byte
		payloadLen int
	}{
		{"repeated -0", negZero, negZero, 15, 0},
		{"repeated NaN payload", nan1, nan1, 15, 0},
		{"repeated other NaN", math.Float64frombits(0xFFF0_0000_DEAD_BEEF), math.Float64frombits(0xFFF0_0000_DEAD_BEEF), 15, 0},
		{"repeated +Inf", math.Inf(1), math.Inf(1), 15, 0},
		{"repeated -Inf", math.Inf(-1), math.Inf(-1), 15, 0},
		{"repeated subnormal", math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64, 15, 0},
		{"repeated 2^48-1", 1<<48 - 1, 1<<48 - 1, 15, 0},
		{"repeated 415.3", 415.3, 415.3, 15, 0},
		{"repeated +0", 0, 0, 0, 0},
		{"-0 after +0", negZero, 0, 1, 1},
		{"+0 after -0", 0, negZero, 0, 0},
		{"NaN after another NaN", nan1, math.Float64frombits(0x7FF8_0000_0000_0002), 8, 8},
		{"+Inf after -Inf", math.Inf(1), math.Inf(-1), 2, 2},
		{"2^48-1 after 2^48-2", 1<<48 - 1, 1<<48 - 2, 14, 6},
	} {
		enc := packed.Append(nil, []float64{tc.v}, []float64{tc.prev})
		if enc[0] != tc.code || len(enc)-1 != tc.payloadLen {
			t.Errorf("%s: code %d with %d payload bytes, want %d with %d", tc.name, enc[0], len(enc)-1, tc.code, tc.payloadLen)
		}
		checkPackedRoundTrip(t, []float64{tc.v, tc.v, 7}, []float64{tc.prev, tc.prev, 7})
	}
	// A whole vector of repeats is its codes alone.
	special := []float64{negZero, nan1, math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, 1<<48 - 1, 415.3}
	if enc := packed.Append(nil, special, special); len(enc) != (len(special)+1)/2 {
		t.Errorf("%d repeated values packed into %d bytes, want their %d code bytes", len(special), len(enc), (len(special)+1)/2)
	}
	checkPackedRoundTrip(t, special, slices.Clone(special))
}

// TestUnpackValuesRejectsCorrupt: damaged packed values are an error,
// and a count the bytes cannot back is refused before it is allocated.
func TestUnpackValuesRejectsCorrupt(t *testing.T) {
	good := packed.Append(nil, []float64{1, 415.3, 70000}, nil)
	if _, _, err := packed.Decode(good, 3, nil); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		b  []byte
		nv uint64
	}{
		"code 15 without a previous vector":      {[]byte{0x0F}, 1},
		"code 15 high without a previous vector": {[]byte{0xF0}, 2},
		"non-zero pad nibble":                    {[]byte{0x10}, 1},
		"truncated payload":                      {good[:len(good)-1], 3},
		"codes cut short":                        {good[:1], 3},
		"count beyond bytes":                     {good, 2*uint64(len(good)) + 1},
		"count 2^62":                             {good, 1 << 62},
		"empty":                                  {nil, 1},
	} {
		if _, _, err := packed.Decode(tc.b, tc.nv, nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if vals, rest, err := packed.Decode(nil, 0, nil); err != nil || len(vals) != 0 || len(rest) != 0 {
		t.Errorf("zero values: %v, %v, %v", vals, rest, err)
	}
	if vals, _, err := packed.Decode([]byte{0xF0}, 2, []float64{3, 4}); err != nil || vals[0] != 0 || vals[1] != 4 {
		t.Errorf("code 15 against a previous vector: %v, %v", vals, err)
	}
}

// code15Run is a well-formed one-row run record whose first value, a
// zero, is recoded as code 15 (no payload, so every length still adds
// up): the one thing wrong with it is a code a run's first row never
// carries.
func code15Run() []byte {
	vals := []float64{0, 1, 100, 19512, 0.5}
	rec := appendRowsRecord(nil, recObserveRun, []int{3, 0, 47, 5, 9}, []FleetObservation{
		{Model: "ST4000DM000", Observation: Observation{Serial: "Z302T4N9", Day: 812, Values: vals}},
	})
	rec[len(rec)-len(packed.Append(nil, vals, nil))] |= 0x0F
	return rec
}

// TestRunRecordRefusesCode15: a run's first row is packed without a
// previous vector, so code 15 in it is corruption.
func TestRunRecordRefusesCode15(t *testing.T) {
	if _, err := decodeRecord(code15Run()); err == nil || !strings.Contains(err.Error(), "code 15") {
		t.Fatalf("run record with code 15: %v, want a code 15 error", err)
	}
}

// TestRecordCodecAllocs: framing and coding a run into warmed batch
// scratch allocates nothing; decoding one, inflating it included,
// allocates its rows, one values slab,
// the model, the index list and a serial per row — not a values slice
// per row.
func TestRecordCodecAllocs(t *testing.T) {
	feats := DefaultFeatures()
	obs := projectRows(engineStream(t, 3, 1)[:256], feats)
	var enc recordBatch
	round := func() {
		enc.reset()
		enc.beginRun(recObserveRun, &obs[0], feats, len(obs))
		for i := range obs {
			enc.addRow(&obs[i], obs[i].Values)
		}
		enc.payloads()
	}
	round()
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Errorf("framing a %d-row run allocates %v times in steady state", len(obs), allocs)
	}
	payload := enc.payloads()[0]
	if payload[0] != recObserveCodedRun {
		t.Fatalf("a %d-row run framed as kind %d, want the coded kind %d", len(obs), payload[0], recObserveCodedRun)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := decodeRecord(payload); err != nil {
			t.Fatal(err)
		}
	}); allocs != float64(len(obs)+4) {
		t.Errorf("decodeRecord of a %d-row run allocates %v times, want %d", len(obs), allocs, len(obs)+4)
	}
}

// TestRecordBytesPerRow pins the exact counter the record format was
// sized by where go test sees it on any host: mean payload per row over
// a seeded fleet framed the way IngestBatch frames it (a day's rows of
// one model to a run, each row the model's 19 features). The log adds
// one 16-byte frame header per record. The retired layouts took 40.11
// B/row (runs whose rows were each coded on their own), 107.22
// (whole-catalog runs), 118.48 (one-row records) and 194.71 (the v2
// layout) on this stream.
//
// Most of the saving over rows coded on their own is the serial's (the
// entropy stage, kinds 14/15, takes ~15 % more off the rows), and
// orfgen's serials (STA-000123, reaching each run in sequence) are the
// kindest case for it, so the stream is framed again with each run's
// rows shuffled, and with every disk renamed to a serial shaped like a
// real drive's (Z305B2QN: a fixed model prefix, a batch digit, then four
// random characters) in shuffled and in sorted order. Each shape is
// framed as this release writes it, uncoded (kinds 10/11 always) and
// row by row; each must be shorter than the next under every shape, and
// no shape's mean may creep up unseen.
func TestRecordBytesPerRow(t *testing.T) {
	obs := engineStream(t, 7, 2)
	rng := rand.New(rand.NewSource(45))
	const alnum = "0123456789ABCDEFGHJKLMNPQRSTVWXYZ"
	renamed := map[string]string{}
	driveShaped := slices.Clone(obs)
	for i := range driveShaped {
		o := &driveShaped[i]
		if renamed[o.Serial] == "" {
			b := []byte{'Z', '3', '0', byte('0' + rng.Intn(6))}
			for range 4 {
				b = append(b, alnum[rng.Intn(len(alnum))])
			}
			renamed[o.Serial] = string(b)
		}
		o.Serial = renamed[o.Serial]
	}
	shuffle := func(rows []FleetObservation) {
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	}
	bySerial := func(rows []FleetObservation) {
		slices.SortFunc(rows, func(a, b FleetObservation) int { return strings.Compare(a.Serial, b.Serial) })
	}
	for _, tc := range []struct {
		name    string
		obs     []FleetObservation
		order   func([]FleetObservation)
		maxMean float64
	}{
		{"generated serials, in sequence", obs, nil, 26},         // this implementation: 24.02 (28.78 uncoded, 40.11 row by row)
		{"generated serials, shuffled", obs, shuffle, 26},        // 24.72 (29.46, 40.11)
		{"Z305B2QN serials, shuffled", driveShaped, shuffle, 29}, // 27.53 (32.30, 38.11)
		{"Z305B2QN serials, sorted", driveShaped, bySerial, 29},  // 26.94 (31.58, 38.11)
	} {
		// The same draws shuffle for every coding, so all see one order.
		state := rng.Int63()
		rng.Seed(state)
		coded, records := runBytesPerRow(tc.obs, appendRunRecord, tc.order)
		rng.Seed(state)
		uncoded, _ := runBytesPerRow(tc.obs, appendRowsRecord, tc.order)
		rng.Seed(state)
		plain, _ := runBytesPerRow(tc.obs, appendPlainRunRecord, tc.order)
		t.Logf("%-31s %.2f B/row (+%.2f of frame headers), %.2f uncoded (-%.1f %%), %.2f coded row by row (-%.1f %%)",
			tc.name, coded, 16*float64(records)/float64(len(obs)), uncoded, 100*(1-coded/uncoded), plain, 100*(1-coded/plain))
		if coded >= uncoded || uncoded >= plain || coded > tc.maxMean {
			t.Errorf("%s: %.2f B/row, %.2f uncoded, %.2f coded row by row; want each less than the next, and <= %.0f",
				tc.name, coded, uncoded, plain, tc.maxMean)
		}
	}
}

// runBytesPerRow frames obs as IngestBatch frames a day's rows, one run
// per model under its features, through write, and returns the mean
// payload per row and the number of records. order, if not nil, reorders
// each run's rows first.
func runBytesPerRow(obs []FleetObservation, write func([]byte, byte, []int, []FleetObservation) []byte,
	order func([]FleetObservation)) (mean float64, records int) {
	feats := DefaultFeatures()
	runs := 0
	byModel := map[string][]FleetObservation{}
	flush := func() {
		for _, rows := range byModel {
			if order != nil {
				order(rows)
			}
			runs += len(write(nil, recObserveRun, feats, projectRows(rows, feats)))
			records++
		}
		clear(byModel)
	}
	for i, o := range obs {
		if i > 0 && o.Day != obs[i-1].Day {
			flush()
		}
		byModel[o.Model] = append(byModel[o.Model], o)
	}
	flush()
	return float64(runs) / float64(len(obs)), records
}

// FuzzUnpackValues: arbitrary bytes under any claimed count decode or
// fail, never panic, with or without a previous vector (withPrev; its
// values are prevBits' little-endian words, zero past their end). What
// decodes is as long as packed.Len reads from its codes. What
// decodes re-encodes against the same previous vector to values that
// decode bit-equal, and nothing with code 15 among its codes decodes
// without one.
func FuzzUnpackValues(f *testing.F) {
	vals := []float64{0, 1, 255, 256, 415.3, math.Inf(-1), 1<<48 - 1}
	bitsOf := func(v []float64) (b []byte) {
		for _, x := range v {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	prev := []float64{0, 1, 7, 256, 415.3, math.NaN(), 1<<48 - 1}
	f.Add(packed.Append(nil, vals, nil), uint64(7), false, []byte(nil))
	f.Add(packed.Append(nil, vals, prev), uint64(7), true, bitsOf(prev))
	f.Add(packed.Append(nil, vals, prev), uint64(7), false, []byte(nil))
	f.Add([]byte{0x0F}, uint64(1), false, []byte(nil))
	f.Add([]byte{0xFF}, uint64(2), true, bitsOf([]float64{math.Copysign(0, -1)}))
	f.Add([]byte{0x10}, uint64(1), false, []byte(nil))
	f.Add([]byte(nil), uint64(1)<<62, true, []byte(nil))
	f.Fuzz(func(t *testing.T, data []byte, nv uint64, withPrev bool, prevBits []byte) {
		var prev []float64
		if withPrev && nv <= 2*uint64(len(data)) {
			prev = make([]float64, nv)
			for i := range prev {
				if 8*i+8 <= len(prevBits) {
					prev[i] = math.Float64frombits(binary.LittleEndian.Uint64(prevBits[8*i:]))
				}
			}
		}
		vals, rest, err := packed.Decode(data, nv, prev)
		if err != nil {
			return
		}
		if uint64(len(vals)) != nv || len(rest) > len(data) {
			t.Fatalf("%d values and %d bytes left from %d bytes claiming %d", len(vals), len(rest), len(data), nv)
		}
		if n := packed.Len(data, int(nv)); n != len(data)-len(rest) {
			t.Fatalf("packed.Len says %d bytes, the decode took %d", n, len(data)-len(rest))
		}
		if prev == nil {
			for i := uint64(0); i < nv; i++ {
				if data[i/2]>>(4*(i&1))&15 == 15 {
					t.Fatalf("value %d has code 15 and decoded without a previous vector", i)
				}
			}
		}
		again, tail, err := packed.Decode(packed.Append(nil, vals, prev), nv, prev)
		if err != nil || len(tail) != 0 {
			t.Fatalf("re-encoded values: %v, %d bytes left", err, len(tail))
		}
		for i := range vals {
			if math.Float64bits(again[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("value %d: %016x re-encodes to %016x", i, math.Float64bits(vals[i]), math.Float64bits(again[i]))
			}
		}
	})
}

// FuzzDecodeRecord: no payload makes decodeRecord panic or allocate more
// than its bytes back, none under a retired kind decodes (seeds put each
// retired kind byte over a well-formed run body), and a record that
// decodes re-encodes, through the writer of its kind, to one that decodes
// to the same record with bit-equal values.
func FuzzDecodeRecord(f *testing.F) {
	obs := FleetObservation{Model: "ST4000DM000", Observation: Observation{
		Serial: "Z302T4N9", Day: 812, Failed: true,
		Values: []float64{0, 1, 100, 19512, 0.5, math.NaN(), math.Inf(-1), 1<<48 - 1, -0.0},
	}}
	f.Add(appendCursorRecord(nil, BackfillCursor{Day: 3, Rows: 9,
		Files: []BackfillFilePos{{Name: "a.csv", Rows: 9, Off: 4096}}}))
	f.Add(encodeRetireRecord(obs.Model, obs.Serial))
	// Runs, which list their catalog indexes: one row, and three rows of
	// another list with a failure row on another day, serials sharing
	// bytes and values repeating the previous row's, in both row codings.
	index := []int{3, 0, 47, 5, 9, 200, 1, 2, 8}
	one := appendRunRecord(nil, recObserveRun, index, []FleetObservation{obs})
	f.Add(one)
	three := []FleetObservation{
		{Model: obs.Model, Observation: Observation{Serial: "Z1", Day: 900, Values: obs.Values[1:]}},
		{Model: obs.Model, Observation: Observation{Serial: "Z2", Day: 901, Failed: true, Values: obs.Values[:8]}},
		{Model: obs.Model, Observation: Observation{Serial: "Z1", Day: 900, Values: obs.Values[:8]}},
	}
	for _, w := range runWriters {
		f.Add(w.write(nil, recObserveBFRun, index[1:], three))
	}
	// Coded runs of both kinds, then damaged ones: a row-byte count one
	// short and one long of what the stream inflates to, a cut stream,
	// another block type, and a stream whose rows break the row rules.
	coded := appendCodedRunRecord(nil, recObserveRun, index, []FleetObservation{obs})
	f.Add(coded)
	f.Add(appendCodedRunRecord(nil, recObserveBFRun, index[1:], three))
	for _, damaged := range codedRunDamage(coded) {
		f.Add(damaged.b)
	}
	f.Add(codeRun(code15Run(), 0))
	for _, kind := range []byte{recObserveV1, recObserveV2, recObserveBFV2, recObserve, recObserveBF, recCatalogRun, recCatalogBFRun} {
		f.Add(append([]byte{kind}, one[1:]...))
	}
	// A run whose first row carries code 15, which only later rows may.
	f.Add(code15Run())
	// A state record of a young model, and pass records with and without
	// a backfill resume point.
	p := NewPredictor(Config{Horizon: 2, ORF: ORFConfig{Trees: 2, Seed: 1}})
	if _, err := p.Ingest(Observation{Serial: obs.Serial, Day: obs.Day, Values: make([]float64, CatalogSize())}); err != nil {
		f.Fatal(err)
	}
	state, err := appendStateRecord(nil, obs.Model, p)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(state)
	f.Add(appendPassRecord(nil, passRecord{first: 812}))
	f.Add(appendPassRecord(nil, passRecord{first: 1 << 40, bf: bfResume{valid: true, rowsAfter: 300,
		cur: BackfillCursor{Day: 9, Rows: 700, Files: []BackfillFilePos{{Name: "a.csv", Rows: 700, Off: 1 << 16}}}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var rec walRecord
		var err error
		// Linear in the input, with slack for what the fuzzing engine
		// allocates on its own goroutines meanwhile.
		if got, limit := allocatedBy(func() { rec, err = decodeRecord(data) }), 64<<10+128*uint64(len(data)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
		if err != nil {
			return
		}
		var again []byte
		switch rec.kind {
		case recObserveRun, recObserveBFRun:
			again = appendRowsRecord(nil, rec.kind, rec.index, rec.run)
		case recObserveCodedRun, recObserveBFCodedRun:
			again = appendCodedRunRecord(nil, rec.kind-codedRunDelta, rec.index, rec.run)
		case recCursor:
			again = appendCursorRecord(nil, *rec.cur)
		case recRetire:
			again = encodeRetireRecord(rec.model, rec.serial)
		case recState:
			again = binary.AppendUvarint([]byte{recState}, uint64(len(rec.model)))
			again = append(append(again, rec.model...), rec.state...)
		case recPass:
			again = appendPassRecord(nil, *rec.pass)
		default:
			t.Fatalf("decoded kind %d from kind byte %d", rec.kind, data[0])
		}
		rec2, err := decodeRecord(again)
		if err != nil {
			t.Fatalf("re-encoded record: %v", err)
		}
		// Values compare by bits (NaN != NaN), the rest structurally.
		if len(rec2.run) != len(rec.run) {
			t.Fatalf("record %+v re-encodes to %+v", rec, rec2)
		}
		for i := range rec.run {
			if !sameObservation(rec.run[i], rec2.run[i]) {
				t.Fatalf("row %d: %+v re-encodes to %+v", i, rec.run[i], rec2.run[i])
			}
		}
		rec.run, rec2.run = nil, nil
		if !reflect.DeepEqual(rec, rec2) {
			t.Fatalf("record %+v re-encodes to %+v", rec, rec2)
		}
	})
}
