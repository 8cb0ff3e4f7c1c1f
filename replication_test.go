package orfdisk

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"orfdisk/internal/metrics"
	"orfdisk/internal/replica"
	"orfdisk/internal/wal"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func newLeader(t *testing.T, dir string) (*Engine, *replica.Source) {
	t.Helper()
	eng, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	src, err := replica.NewSource("127.0.0.1:0", replica.SourceConfig{WAL: eng.WAL()})
	if err != nil {
		t.Fatal(err)
	}
	return eng, src
}

func newFollower(t *testing.T, dir, leaderAddr string) (*Engine, *replica.Follower) {
	t.Helper()
	eng, err := NewEngine(EngineConfig{
		Predictor: engineTestConfig(), DataDir: dir, Follower: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	fl, err := replica.StartFollower(leaderAddr, replica.FollowerConfig{
		Applier: eng, RetryInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, fl
}

// snapFiles returns each model's newest state record from the log of a
// closed data directory: the model's name and state, without the
// record's sequence number, which depends on where in the log the pass
// that wrote it ran.
func snapFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	w, err := wal.Open(wal.Options{Dir: filepath.Join(dir, walDirName)})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	out := make(map[string][]byte)
	if err := w.Replay(func(_ uint64, payload []byte) error {
		rec, err := decodeRecord(payload)
		if err == nil && rec.kind == recState {
			out[rec.model] = bytes.Clone(payload)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReplicationBitIdenticalPromotion is the harness the subsystem is
// accepted against: a leader dies mid-ingest, its follower is promoted,
// the remaining stream continues on the promoted node — and both the
// live predictions and the final saved state are BYTE-identical to a
// reference run that never failed over. Replication + promotion are
// exactly invisible.
func TestReplicationBitIdenticalPromotion(t *testing.T) {
	obs := engineStream(t, 77, 3)
	cut := 2 * len(obs) / 3

	// Reference: one engine ingests the full stream uninterrupted.
	dirRef := t.TempDir()
	ref, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: dirRef})
	if err != nil {
		t.Fatal(err)
	}
	refPred := make([]Prediction, len(obs))
	refErr := make([]error, len(obs))
	for i, o := range obs {
		refPred[i], refErr[i] = ref.Ingest(o)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	// The cluster: a leader shipping its WAL to one follower.
	dirL, dirF := t.TempDir(), t.TempDir()
	leader, src := newLeader(t, dirL)
	follower, fl := newFollower(t, dirF, src.Addr())

	// Ingest the prefix on the leader; the leader's live predictions
	// already must match the reference (same deterministic stream).
	for i, o := range obs[:cut] {
		pred, err := leader.Ingest(o)
		if (err == nil) != (refErr[i] == nil) {
			t.Fatalf("obs %d: error divergence: leader %v ref %v", i, err, refErr[i])
		}
		if err == nil && !samePrediction(pred, refPred[i]) {
			t.Fatalf("obs %d: leader prediction diverged from reference", i)
		}
	}
	leaderLast := leader.WAL().NextSeq() - 1
	waitUntil(t, 30*time.Second, "follower catch-up", func() bool {
		return follower.ReplicationResume() == leaderLast
	})

	// The follower is read-only until promoted.
	if _, err := follower.Ingest(obs[cut]); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("follower accepted a write: %v", err)
	}

	// Kill the leader mid-deployment: tear down its replication source
	// and abandon the engine without the final snapshot a clean Close
	// would take — from the follower's view the process just died.
	src.Close()
	fl.Close()
	follower.Promote()
	if follower.IsFollower() {
		t.Fatal("promotion did not take")
	}

	// The promoted follower finishes the stream. Every live prediction
	// must be bit-identical to the uninterrupted reference run: same
	// scores (down to float bits), same alarms, same RNG streams.
	for i := cut; i < len(obs); i++ {
		pred, err := follower.Ingest(obs[i])
		if (err == nil) != (refErr[i] == nil) {
			t.Fatalf("obs %d: error divergence after promotion: %v vs %v", i, err, refErr[i])
		}
		if err == nil && !samePrediction(pred, refPred[i]) {
			t.Fatalf("obs %d: post-promotion prediction diverged from reference:\ngot  %+v\nwant %+v",
				i, pred, refPred[i])
		}
	}
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}

	// The promoted node's saved state is byte-identical to the reference
	// run's: the follower mirrored the leader's WAL sequence numbers, so
	// snapshots carry the same positions, and predictor serialization is
	// deterministic.
	want := snapFiles(t, dirRef)
	got := snapFiles(t, dirF)
	if len(want) == 0 {
		t.Fatal("reference run produced no snapshots")
	}
	if len(got) != len(want) {
		t.Fatalf("snapshot sets differ: %d files vs %d", len(got), len(want))
	}
	for name, wb := range want {
		gb, ok := got[name]
		if !ok {
			t.Fatalf("promoted follower is missing snapshot %s", name)
		}
		if !bytes.Equal(gb, wb) {
			t.Fatalf("snapshot %s differs from the uninterrupted run (%d vs %d bytes)",
				name, len(gb), len(wb))
		}
	}
}

// TestFollowerResumeAfterRestart restarts a follower and checks that it
// reconnects from its own durable position — no re-seed, no duplicate
// application — and converges with the leader.
func TestFollowerResumeAfterRestart(t *testing.T) {
	obs := engineStream(t, 31, 2)
	half := len(obs) / 2

	dirL, dirF := t.TempDir(), t.TempDir()
	leader, src := newLeader(t, dirL)
	defer src.Close()
	defer leader.Close()

	follower, fl := newFollower(t, dirF, src.Addr())
	for _, o := range obs[:half] {
		if _, err := leader.Ingest(o); err != nil {
			t.Fatal(err)
		}
	}
	leaderLast := leader.WAL().NextSeq() - 1
	waitUntil(t, 30*time.Second, "first catch-up", func() bool {
		return follower.ReplicationResume() == leaderLast
	})

	// Stop the follower (client first, then a clean engine shutdown that
	// persists snapshots) and keep writing on the leader meanwhile.
	fl.Close()
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	for _, o := range obs[half:] {
		if _, err := leader.Ingest(o); err != nil {
			t.Fatal(err)
		}
	}

	// Restart: recovery must put the resume position exactly where the
	// stream stopped, and the new client picks up from there.
	follower2, fl2 := newFollower(t, dirF, src.Addr())
	defer fl2.Close()
	defer follower2.Close()
	if got := follower2.ReplicationResume(); got != leaderLast {
		t.Fatalf("recovered resume position %d, want %d", got, leaderLast)
	}
	leaderLast = leader.WAL().NextSeq() - 1
	waitUntil(t, 30*time.Second, "post-restart catch-up", func() bool {
		return follower2.ReplicationResume() == leaderLast
	})

	// Converged: identical per-model forest statistics.
	wantStats := fmt.Sprintf("%+v", leader.Stats())
	gotStats := fmt.Sprintf("%+v", follower2.Stats())
	if wantStats != gotStats {
		t.Fatalf("stats diverged after resume:\nleader   %s\nfollower %s", wantStats, gotStats)
	}
}

// TestFollowerGatesWritesAndReadiness needs no network: role gating and
// readiness are engine-local.
func TestFollowerGatesWritesAndReadiness(t *testing.T) {
	eng, err := NewEngine(EngineConfig{
		Predictor: engineTestConfig(), DataDir: t.TempDir(),
		Follower: true, ReadyMaxLag: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	obs := engineStream(t, 5, 1)[0]
	if _, err := eng.Ingest(obs); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("Ingest on follower: %v, want ErrNotLeader", err)
	}
	for _, res := range eng.IngestBatch([]FleetObservation{obs}) {
		if !errors.Is(res.Err, ErrNotLeader) {
			t.Fatalf("IngestBatch on follower: %v, want ErrNotLeader", res.Err)
		}
	}
	if err := eng.Retire("X"); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("Retire on follower: %v, want ErrNotLeader", err)
	}
	if ok, reason := eng.Ready(); ok || reason == "" {
		t.Fatalf("follower ready before hearing from a leader (reason %q)", reason)
	}
	// Caught up within the lag bound -> ready; too far behind -> not.
	eng.ObserveLeaderHead(8, time.Now())
	if ok, _ := eng.Ready(); !ok {
		t.Fatal("follower not ready at lag <= bound")
	}
	eng.ObserveLeaderHead(100, time.Now())
	if ok, _ := eng.Ready(); ok {
		t.Fatal("follower ready at lag > bound")
	}
	st := eng.Replication()
	if st.Role != "follower" || st.LagRecords != 100 {
		t.Fatalf("replication status: %+v", st)
	}

	// Promotion lifts the gate; a second one changes nothing.
	eng.Promote()
	promoted := eng.Replication()
	eng.Promote() // idempotent
	if st := eng.Replication(); st != promoted {
		t.Fatalf("second promotion changed the status: %+v, then %+v", promoted, st)
	}
	if _, err := eng.Ingest(obs); err != nil {
		t.Fatalf("Ingest after promotion: %v", err)
	}
	if ok, _ := eng.Ready(); !ok {
		t.Fatal("leader not ready")
	}
	if st := eng.Replication(); st.Role != "leader" {
		t.Fatalf("role after promotion: %+v", st)
	}
}

// leaderRecords ingests obs on a fresh leader engine and returns the
// WAL records it produced, payloads copied (cursor buffers alias).
func leaderRecords(t *testing.T, eng *Engine, obs []FleetObservation) []replica.Record {
	t.Helper()
	for _, o := range obs {
		if _, err := eng.Ingest(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.WAL().Sync(); err != nil {
		t.Fatal(err)
	}
	cur, err := wal.OpenCursor(eng.WAL().Dir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var recs []replica.Record
	for {
		seq, p, err := cur.Next()
		if errors.Is(err, wal.ErrNoMore) {
			return recs
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, replica.Record{Seq: seq, Payload: append([]byte(nil), p...)})
	}
}

// dumpModel returns the named model's complete predictor state.
func dumpModel(t *testing.T, e *Engine, model string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.DumpModel(model, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFollowerRefusesRetiredRun: a whole-catalog run (kind 8), as only
// leaders older than the previous release log it, fails ApplyReplicated
// with the retired-layout error before it reaches the follower's log or
// shards.
func TestFollowerRefusesRetiredRun(t *testing.T) {
	leader, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	recs := leaderRecords(t, leader, engineStream(t, 31, 1)[:200])
	follower, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: t.TempDir(), Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	if err := follower.ApplyReplicated(recs); err != nil {
		t.Fatal(err)
	}
	model := follower.Models()[0]
	next, state := follower.WAL().NextSeq(), dumpModel(t, follower, model)
	err = follower.ApplyReplicated([]replica.Record{{Seq: next, Payload: []byte{recCatalogRun, 1, 'M', 0}}})
	if err == nil || !strings.Contains(err.Error(), "kind 8 is a retired whole-catalog run observe layout") {
		t.Fatalf("ApplyReplicated of a kind-8 record: %v; want the retired-layout error", err)
	}
	if got := follower.WAL().NextSeq(); got != next {
		t.Errorf("NextSeq %d after the refusal, want %d", got, next)
	}
	if !bytes.Equal(dumpModel(t, follower, model), state) {
		t.Error("the refused record changed the follower's model state")
	}
}

// TestFollowerNotReadyOnSilence: a dead stream freezes the observed
// leader head, so lag reads zero exactly when the replica is stalest —
// silence is what flips readiness off.
func TestFollowerNotReadyOnSilence(t *testing.T) {
	eng, err := NewEngine(EngineConfig{
		Predictor: engineTestConfig(), DataDir: t.TempDir(),
		Follower: true, ReadyMaxLag: 100, ReadyMaxSilence: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	eng.ObserveLeaderHead(0, time.Now())
	if ok, reason := eng.Ready(); !ok {
		t.Fatalf("fresh frame but not ready: %s", reason)
	}
	time.Sleep(80 * time.Millisecond)
	ok, reason := eng.Ready()
	if ok {
		t.Fatal("ready despite silence past the limit")
	}
	if reason == "" {
		t.Fatal("silence rejection carries no reason")
	}
	if st := eng.Replication(); st.SilenceSeconds <= 0 {
		t.Fatalf("SilenceSeconds = %v, want > 0", st.SilenceSeconds)
	}
	// A new frame restores readiness.
	eng.ObserveLeaderHead(0, time.Now())
	if ok, reason := eng.Ready(); !ok {
		t.Fatalf("not ready after stream resumed: %s", reason)
	}
}

// TestFollowerReadyOnAttach: the leader sends its status as a follower
// attaches, so a caught-up replica is ready at once — with the heartbeat
// ticker out of the picture (1 h) nothing else could tell it — and one
// that attaches behind says it lags, not that it has heard nothing.
func TestFollowerReadyOnAttach(t *testing.T) {
	leader, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	src, err := replica.NewSource("127.0.0.1:0", replica.SourceConfig{WAL: leader.WAL(), Heartbeat: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	obs := engineStream(t, 5, 1)[:40]
	recs := leaderRecords(t, leader, obs)

	follow := func(a replica.Applier) *replica.Follower {
		t.Helper()
		fl, err := replica.StartFollower(src.Addr(), replica.FollowerConfig{Applier: a})
		if err != nil {
			t.Fatal(err)
		}
		return fl
	}
	newReplica := func() *Engine {
		t.Helper()
		e, err := NewEngine(EngineConfig{
			Predictor: engineTestConfig(), DataDir: t.TempDir(), Follower: true, ReadyMaxLag: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	// Caught up before it attaches: only the attach-time status can make
	// it ready.
	current := newReplica()
	defer current.Close()
	if err := current.ApplyReplicated(recs); err != nil {
		t.Fatal(err)
	}
	if ok, _ := current.Ready(); ok {
		t.Fatal("follower ready before it ever attached")
	}
	fl := follow(current)
	defer fl.Close()
	waitUntil(t, 2*time.Second, "caught-up follower to turn ready on attach", func() bool {
		ok, _ := current.Ready()
		return ok
	})

	// Behind, and held there: the records frame cannot be applied, so what
	// the follower knows of the leader's head is the attach-time status.
	behind := &heldApplier{Engine: newReplica()}
	defer behind.Engine.Close()
	behind.hold.Lock()
	release := sync.OnceFunc(behind.hold.Unlock)
	fl2 := follow(behind)
	defer fl2.Close()
	defer release() // first: Close waits for the apply the lock holds up
	var reason string
	waitUntil(t, 2*time.Second, "lagging follower to hear from its leader", func() bool {
		_, reason = behind.Ready()
		return !strings.Contains(reason, "not heard")
	})
	if !strings.Contains(reason, "replication lag") {
		t.Fatalf("follower attached %d records behind reports %q, want the lag", len(recs), reason)
	}
	release()
	waitUntil(t, 10*time.Second, "held follower to catch up", func() bool {
		ok, _ := behind.Ready()
		return ok
	})
}

// TestDemoteFencesWrites: Demote is the fencing half of failover — an
// old leader told to stand down refuses writes immediately and reports
// the follower role, but keeps serving reads.
func TestDemoteFencesWrites(t *testing.T) {
	eng, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	obs := engineStream(t, 11, 1)[0]
	if _, err := eng.Ingest(obs); err != nil {
		t.Fatal(err)
	}
	applied := eng.WAL().NextSeq() - 1

	eng.Demote()
	eng.Demote() // idempotent
	if _, err := eng.Ingest(obs); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("Ingest after Demote: %v, want ErrNotLeader", err)
	}
	st := eng.Replication()
	if st.Role != "follower" {
		t.Fatalf("role after Demote: %q", st.Role)
	}
	if st.Applied != applied {
		t.Fatalf("applied position reset by Demote: %d, want %d", st.Applied, applied)
	}
	// Promote undoes the fence (an operator decided it really is leader).
	eng.Promote()
	if _, err := eng.Ingest(obs); err != nil {
		t.Fatalf("Ingest after re-Promote: %v", err)
	}
}

// TestReplicationHammerThreeNodes drives a leader and two followers
// with concurrent batched ingest and checks full convergence. Sized to
// stay fast under -race -short (the CI race job).
func TestReplicationHammerThreeNodes(t *testing.T) {
	obs := engineStream(t, 42, 4)
	if testing.Short() && len(obs) > 3000 {
		obs = obs[:3000]
	}

	leader, src := newLeader(t, t.TempDir())
	defer leader.Close()
	defer src.Close()
	f1, fl1 := newFollower(t, t.TempDir(), src.Addr())
	defer f1.Close()
	defer fl1.Close()
	f2, fl2 := newFollower(t, t.TempDir(), src.Addr())
	defer f2.Close()
	defer fl2.Close()

	// Concurrent writers, chunked batches. Shedding (ErrBusy) is legal
	// under pressure; everything the leader accepted must replicate.
	const writers = 4
	var wg sync.WaitGroup
	per := (len(obs) + writers - 1) / writers
	for w := 0; w < writers; w++ {
		lo := w * per
		hi := min(lo+per, len(obs))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(chunk []FleetObservation) {
			defer wg.Done()
			for len(chunk) > 0 {
				n := min(64, len(chunk))
				leader.IngestBatch(chunk[:n])
				chunk = chunk[n:]
			}
		}(obs[lo:hi])
	}
	wg.Wait()
	leaderLast := leader.WAL().NextSeq() - 1
	waitUntil(t, 60*time.Second, "follower 1 catch-up", func() bool {
		return f1.ReplicationResume() == leaderLast
	})
	waitUntil(t, 60*time.Second, "follower 2 catch-up", func() bool {
		return f2.ReplicationResume() == leaderLast
	})
	want := fmt.Sprintf("%+v", leader.Stats())
	for i, f := range []*Engine{f1, f2} {
		if got := fmt.Sprintf("%+v", f.Stats()); got != want {
			t.Fatalf("follower %d stats diverged:\nleader   %s\nfollower %s", i+1, want, got)
		}
	}
}

// TestAutoReseedAfterTruncation is the acceptance harness for the
// re-seed half of the subsystem: the leader's snapshots have truncated
// the WAL prefix a new follower would need, so the follower's resume
// position is fatally below the leader's oldest segment. With a Seeder
// wired, the follower must detect the divergence, pull a full seed
// (snapshots + backfill cursor + WAL tail) over the replication
// socket, install it, catch up live — and after the leader dies, be
// promoted into a node whose predictions and saved state are
// bit-identical to a run that never failed over.
func TestAutoReseedAfterTruncation(t *testing.T) {
	obs := engineStream(t, 77, 3)
	cut := 2 * len(obs) / 3

	// Reference: one engine ingests the full stream uninterrupted.
	dirRef := t.TempDir()
	ref, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: dirRef})
	if err != nil {
		t.Fatal(err)
	}
	refPred := make([]Prediction, len(obs))
	refErr := make([]error, len(obs))
	for i, o := range obs {
		refPred[i], refErr[i] = ref.Ingest(o)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	// Leader with tiny WAL segments: the mid-run snapshot truncates the
	// early segments, so a from-scratch follower cannot stream-catch-up.
	dirL := t.TempDir()
	leader, err := NewEngine(EngineConfig{
		Predictor: engineTestConfig(), DataDir: dirL, SegmentBytes: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	src, err := replica.NewSource("127.0.0.1:0", replica.SourceConfig{
		WAL: leader.WAL(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range obs[:cut] {
		if _, err := leader.Ingest(o); (err == nil) != (refErr[i] == nil) {
			t.Fatalf("obs %d: error divergence on leader: %v vs %v", i, err, refErr[i])
		}
	}
	if err := leader.Snapshot(); err != nil {
		t.Fatal(err)
	}
	oldest, err := leader.WAL().OldestSegment()
	if err != nil {
		t.Fatal(err)
	}
	if oldest <= 1 {
		t.Fatalf("snapshot did not truncate the WAL (oldest %d) — the test would not exercise re-seed", oldest)
	}

	// Fresh follower, empty directory, Seeder wired. Its resume position
	// (0) is below the leader's oldest segment: fatal for streaming,
	// recoverable by seed.
	dirF := t.TempDir()
	follower, err := NewEngine(EngineConfig{
		Predictor: engineTestConfig(), DataDir: dirF, Follower: true, SegmentBytes: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	fl, err := replica.StartFollower(src.Addr(), replica.FollowerConfig{
		Applier: follower,
		Metrics: reg, RetryInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	leaderLast := leader.WAL().NextSeq() - 1
	waitUntil(t, 60*time.Second, "re-seed and catch-up", func() bool {
		return follower.ReplicationResume() == leaderLast
	})
	if got := reg.Counter("replica_reseeds_total", "").Value(); got < 1 {
		t.Fatalf("replica_reseeds_total = %d, want >= 1", got)
	}

	// Kill the leader without ceremony; promote the reseeded follower.
	src.Close()
	fl.Close()
	leaderStats := fmt.Sprintf("%+v", leader.Stats())
	if got := fmt.Sprintf("%+v", follower.Stats()); got != leaderStats {
		t.Fatalf("stats diverged after re-seed:\nleader   %s\nfollower %s", leaderStats, got)
	}
	follower.Promote()
	for i := cut; i < len(obs); i++ {
		pred, err := follower.Ingest(obs[i])
		if (err == nil) != (refErr[i] == nil) {
			t.Fatalf("obs %d: error divergence after promotion: %v vs %v", i, err, refErr[i])
		}
		if err == nil && !samePrediction(pred, refPred[i]) {
			t.Fatalf("obs %d: post-promotion prediction diverged from reference:\ngot  %+v\nwant %+v",
				i, pred, refPred[i])
		}
	}
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	// Final saved state matches the uninterrupted run byte for byte
	// (snapshot names are per-model, so the close-time snapshots
	// overwrite anything the seed installed).
	want := snapFiles(t, dirRef)
	got := snapFiles(t, dirF)
	if len(want) == 0 {
		t.Fatal("reference run produced no snapshots")
	}
	if len(got) != len(want) {
		t.Fatalf("snapshot sets differ: %d files vs %d", len(got), len(want))
	}
	for name, wb := range want {
		gb, ok := got[name]
		if !ok {
			t.Fatalf("reseeded follower is missing snapshot %s", name)
		}
		if !bytes.Equal(gb, wb) {
			t.Fatalf("snapshot %s differs from the uninterrupted run (%d vs %d bytes)",
				name, len(gb), len(wb))
		}
	}
}

// TestReseedFromEmptyLeader: an old split-brain leader re-pointed at a
// brand-new EMPTY leader is fatally ahead (ErrFollowerAhead) and must
// converge by seed like any other diverged follower. The empty leader's
// seed set holds no snapshots and no durable records — only the sealed
// (empty) WAL tail segment — and the install must still succeed,
// wiping the stale state; a zero-file seed set would make CommitSeed
// refuse and the follower retry forever.
func TestReseedFromEmptyLeader(t *testing.T) {
	obs := engineStream(t, 51, 2)

	// Stale node: real state, then reopened in follower mode.
	dirF := t.TempDir()
	stale, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: dirF})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range obs[:20] {
		stale.Ingest(o) //nolint:errcheck
	}
	if stale.WAL().NextSeq() <= 1 {
		t.Fatal("stale node applied nothing; test would not exercise divergence")
	}
	if err := stale.Close(); err != nil {
		t.Fatal(err)
	}
	follower, err := NewEngine(EngineConfig{
		Predictor: engineTestConfig(), DataDir: dirF, Follower: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if follower.ReplicationResume() == 0 {
		t.Fatal("reopened follower recovered no state; test would not exercise divergence")
	}

	// Brand-new empty leader.
	dirL := t.TempDir()
	leader, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: dirL})
	if err != nil {
		t.Fatal(err)
	}
	src, err := replica.NewSource("127.0.0.1:0", replica.SourceConfig{
		WAL: leader.WAL(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	reg := metrics.NewRegistry()
	fl, err := replica.StartFollower(src.Addr(), replica.FollowerConfig{
		Applier: follower,
		Metrics: reg, RetryInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()

	waitUntil(t, 30*time.Second, "re-seed to empty state", func() bool {
		return follower.ReplicationResume() == 0
	})
	if got := reg.Counter("replica_reseeds_total", "").Value(); got < 1 {
		t.Fatalf("replica_reseeds_total = %d, want >= 1", got)
	}
	// The wiped follower then tracks the new leader's writes normally.
	if _, err := leader.Ingest(obs[0]); err != nil {
		t.Fatal(err)
	}
	leaderLast := leader.WAL().NextSeq() - 1
	waitUntil(t, 30*time.Second, "stream catch-up after wipe", func() bool {
		return follower.ReplicationResume() == leaderLast
	})
	fl.Close()
	src.Close()
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncAcksTimeoutWithoutFollower: synchronous commit with no
// follower attached cannot satisfy the guarantee — every write path
// must report ErrSyncUnacked after the timeout while the record stays
// durable locally (that distinction is what the server's
// X-Orf-Write-Applied header carries to the router).
func TestSyncAcksTimeoutWithoutFollower(t *testing.T) {
	eng, err := NewEngine(EngineConfig{
		Predictor: engineTestConfig(), DataDir: t.TempDir(),
		SyncAcks: 1, SyncAckTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.ShipWAL("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	obs := engineStream(t, 13, 1)
	if _, err := eng.Ingest(obs[0]); !errors.Is(err, ErrSyncUnacked) {
		t.Fatalf("Ingest without follower: %v, want ErrSyncUnacked", err)
	}
	if next := eng.WAL().NextSeq(); next != 2 {
		t.Fatalf("unacked write not durable locally: NextSeq %d, want 2", next)
	}
	for _, res := range eng.IngestBatch(obs[1:2]) {
		if !errors.Is(res.Err, ErrSyncUnacked) {
			t.Fatalf("IngestBatch without follower: %v, want ErrSyncUnacked", res.Err)
		}
	}
	if st := eng.Replication(); st.SyncAcks != 1 {
		t.Fatalf("Replication().SyncAcks = %d, want 1", st.SyncAcks)
	}
}

// TestSyncAcksSatisfiedAndPartition: with a live follower, synchronous
// writes complete — and every completed write is already applied on
// the follower by the time Ingest returns (that is the whole point:
// kill -9 the leader after any acknowledged write and the follower has
// it). Closing the follower partitions the group: the next write times
// out with ErrSyncUnacked.
func TestSyncAcksSatisfiedAndPartition(t *testing.T) {
	obs := engineStream(t, 21, 1)
	if len(obs) > 50 {
		obs = obs[:50]
	}
	leader, err := NewEngine(EngineConfig{
		Predictor: engineTestConfig(), DataDir: t.TempDir(),
		SyncAcks: 1, SyncAckTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if err := leader.ShipWAL("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	follower, fl := newFollower(t, t.TempDir(), leader.Replication().ReplicateAddr)
	defer follower.Close()
	for _, o := range obs {
		if _, err := leader.Ingest(o); err != nil {
			t.Fatalf("synchronous Ingest with live follower: %v", err)
		}
		// The ack the leader just waited on implies the follower already
		// applied and fsynced this record — no waitUntil needed.
		if got, want := follower.ReplicationResume(), leader.WAL().NextSeq()-1; got != want {
			t.Fatalf("acknowledged write not on follower: resume %d, want %d", got, want)
		}
	}

	// Partition: the follower goes away; the guarantee becomes
	// unsatisfiable and writes degrade to durable-but-unacked.
	fl.Close()
	if _, err := leader.Ingest(obs[0]); !errors.Is(err, ErrSyncUnacked) {
		t.Fatalf("Ingest after partition: %v, want ErrSyncUnacked", err)
	}
}

// heldApplier is a follower engine whose ApplyReplicated the test can
// hold: the stream stays attached while its acknowledged position stands
// still, which is what "attached and behind" means to the leader's
// retain floor.
type heldApplier struct {
	*Engine
	hold sync.Mutex
}

func (h *heldApplier) ApplyReplicated(recs []replica.Record) error {
	h.hold.Lock()
	defer h.hold.Unlock()
	return h.Engine.ApplyReplicated(recs)
}

// TestFollowerAgainstSealedLeader: a clean leader shutdown leaves the
// log of its last snapshot pass — state records and a pass record in the
// segment the pass rotated to — and nothing older. What that means for
// each kind of follower:
//
//   - attached and behind when a snapshot runs: the retain floor caps the
//     cutoff below the head, it catches up from the tail it still needs;
//   - caught up when the leader restarts: its resume position is exactly
//     the pass segment's name minus one, it streams the pass on, no reset;
//   - behind, and never attached to the restarted process: its records
//     are gone with the truncated tail, so it resets on its own, streams
//     from the pass, and ends byte-identical to the leader.
func TestFollowerAgainstSealedLeader(t *testing.T) {
	obs := engineStream(t, 83, 2)
	q := len(obs) / 4
	dirL := t.TempDir()
	type leaderProc struct {
		eng *Engine
		src *replica.Source
		reg *metrics.Registry
	}
	startLeader := func() leaderProc {
		t.Helper()
		eng, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: dirL, SegmentBytes: 32 << 10})
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		src, err := replica.NewSource("127.0.0.1:0", replica.SourceConfig{
			WAL: eng.WAL(), Metrics: reg, Heartbeat: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return leaderProc{eng, src, reg}
	}
	ingest := func(l leaderProc, rows []FleetObservation) uint64 {
		t.Helper()
		for _, o := range rows {
			if _, err := l.eng.Ingest(o); err != nil {
				t.Fatal(err)
			}
		}
		return l.eng.WAL().NextSeq() - 1
	}
	openFollower := func(dir string) *Engine {
		t.Helper()
		eng, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: dir, Follower: true})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	attach := func(addr string, app replica.Applier, reg *metrics.Registry) *replica.Follower {
		t.Helper()
		fl, err := replica.StartFollower(addr, replica.FollowerConfig{
			Applier: app, Metrics: reg, RetryInterval: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return fl
	}
	reseeds := func(reg *metrics.Registry) uint64 { return reg.Counter("replica_reseeds_total", "").Value() }
	walSegments := func() []string {
		t.Helper()
		segs, err := filepath.Glob(filepath.Join(dirL, "wal", "*.wal"))
		if err != nil {
			t.Fatal(err)
		}
		return segs
	}

	// Process 1: followers A (always caught up) and C (held back).
	l1 := startLeader()
	dirA, dirC := t.TempDir(), t.TempDir()
	engA, regA := openFollower(dirA), metrics.NewRegistry()
	flA := attach(l1.src.Addr(), engA, regA)
	engC, regC := openFollower(dirC), metrics.NewRegistry()
	heldC := &heldApplier{Engine: engC}
	flC := attach(l1.src.Addr(), heldC, regC)
	p1 := ingest(l1, obs[:q])
	waitUntil(t, 30*time.Second, "both followers at p1", func() bool {
		return engA.ReplicationResume() == p1 && engC.ReplicationResume() == p1
	})

	// C attached and behind at snapshot time: the floor keeps its tail.
	// p2 is the leader's head after the pass: its state and pass records
	// are in the log like the rows.
	heldC.hold.Lock()
	ingest(l1, obs[q:2*q])
	if err := l1.eng.Snapshot(); err != nil {
		t.Fatal(err)
	}
	p2 := l1.eng.WAL().NextSeq() - 1
	waitUntil(t, 30*time.Second, "A at p2", func() bool { return engA.ReplicationResume() == p2 })
	if oldest, err := l1.eng.WAL().OldestSegment(); err != nil || oldest > p1+1 {
		t.Fatalf("snapshot truncated past an attached follower: oldest segment %d, follower at %d (err %v)", oldest, p1, err)
	}
	if got := engC.ReplicationResume(); got != p1 {
		t.Fatalf("held follower moved to %d", got)
	}
	heldC.hold.Unlock()
	waitUntil(t, 30*time.Second, "C at p2 from the kept tail", func() bool { return engC.ReplicationResume() == p2 })
	if got := reseeds(regC); got != 0 {
		t.Fatalf("a follower the floor protected re-seeded %d times", got)
	}

	// C goes away at p2; the leader moves on to p3 with A, then restarts
	// clean once A's acknowledgement is the only one the floor counts.
	flC.Close()
	if err := engC.Close(); err != nil {
		t.Fatal(err)
	}
	p3 := ingest(l1, obs[2*q:3*q])
	waitUntil(t, 30*time.Second, "A acknowledged p3 alone", func() bool {
		return l1.reg.Gauge("replication_min_acked_seq", "").Value() == float64(p3)
	})
	flA.Close()
	l1.src.Close()
	models := len(l1.eng.Models())
	if err := l1.eng.Close(); err != nil {
		t.Fatal(err)
	}
	// The close-time pass: one state record per model and the pass
	// record, from the segment named p3+1 on, and nothing older.
	segs := walSegments()
	if len(segs) == 0 || filepath.Base(segs[0]) != fmt.Sprintf("%020d.wal", p3+1) {
		t.Fatalf("WAL after a clean shutdown: %v, want it to start at %d", segs, p3+1)
	}
	closed := p3 + uint64(models) + 1

	// Process 2. A resumes exactly at the pass segment's first number.
	l2 := startLeader()
	defer l2.src.Close()
	defer l2.eng.Close()
	if got := l2.eng.WAL().NextSeq(); got != closed+1 {
		t.Fatalf("restarted leader continues at %d, want %d", got, closed+1)
	}
	flA = attach(l2.src.Addr(), engA, regA)
	defer flA.Close()
	defer engA.Close()
	p4 := ingest(l2, obs[3*q:])
	waitUntil(t, 30*time.Second, "A at p4 after the leader restart", func() bool { return engA.ReplicationResume() == p4 })
	if got := reseeds(regA); got != 0 {
		t.Fatalf("caught-up follower re-seeded %d times across a clean leader restart", got)
	}

	// C comes back at p2: the records it misses went with the sealed tail.
	engC = openFollower(dirC)
	defer engC.Close()
	if got := engC.ReplicationResume(); got != p2 {
		t.Fatalf("C recovered at %d, want %d", got, p2)
	}
	flC = attach(l2.src.Addr(), engC, regC)
	defer flC.Close()
	waitUntil(t, 60*time.Second, "C re-seeded and at p4", func() bool { return engC.ReplicationResume() == p4 })
	if got := reseeds(regC); got < 1 {
		t.Fatalf("replica_reseeds_total = %d for a follower behind a sealed leader, want >= 1", got)
	}
	for _, model := range l2.eng.Models() {
		want := dumpModel(t, l2.eng, model)
		streamed, reseeded := bytes.Equal(dumpModel(t, engA, model), want), bytes.Equal(dumpModel(t, engC, model), want)
		if !streamed || !reseeded {
			t.Fatalf("model %s: follower state differs from the leader's (streamed equal: %v, re-seeded equal: %v)",
				model, streamed, reseeded)
		}
	}
}

// jamMidBatch delivers a two-model batch to a follower whose second
// model's shard is jammed (one closure occupies its worker, one fills its
// mailbox), so ApplyReplicated logs and applies prefix records and sheds
// the rest with ErrBusy. It returns with the jam released and nothing
// redelivered.
func jamMidBatch(t *testing.T, dir string) (leader, follower *Engine, recs []replica.Record, prefix int) {
	t.Helper()
	obs := engineStream(t, 9, 2)[:400]
	leader, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { leader.Close() })
	recs = leaderRecords(t, leader, obs)

	follower, err = NewEngine(EngineConfig{
		Predictor: engineTestConfig(), DataDir: dir, Follower: true,
		Mailbox: 1, EnqueueTimeout: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var jammed string
	for i, o := range obs {
		if o.Model != obs[0].Model {
			jammed, prefix = o.Model, i
			break
		}
	}
	release := make(chan struct{})
	for i := 0; i < 2; i++ {
		if err := follower.submitBlocking(jammed, func(*shardState) { <-release }); err != nil {
			t.Fatal(err)
		}
	}
	if err := follower.ApplyReplicated(recs); !errors.Is(err, ErrBusy) {
		t.Fatalf("ApplyReplicated into a jammed shard: %v, want ErrBusy", err)
	}
	close(release)
	return leader, follower, recs, prefix
}

// TestApplyReplicatedMidBatchBusy: a follower logs each run on the worker
// that applies it, so a shard that sheds its run (ErrBusy) mid-batch
// leaves the log where the shards stop. The applied position is that
// prefix — it is what the next handshake resumes after — and is the log's
// tail; the redelivery logs and applies the rest, each record once.
func TestApplyReplicatedMidBatchBusy(t *testing.T) {
	dir := t.TempDir()
	leader, follower, recs, prefix := jamMidBatch(t, dir)
	defer follower.Close()
	if got, want := follower.ReplicationResume(), recs[prefix-1].Seq; got != want {
		t.Fatalf("applied position %d after a mid-batch ErrBusy, want %d (the last record that reached a shard)", got, want)
	}
	if got, want := follower.WAL().NextSeq()-1, follower.ReplicationResume(); got != want {
		t.Fatalf("follower WAL ends at %d after a mid-batch ErrBusy, want %d: the log holds a record no shard applied", got, want)
	}

	if err := follower.ApplyReplicated(recs); err != nil { // the leader redelivers from the last ack
		t.Fatalf("redelivery: %v", err)
	}
	last := recs[len(recs)-1].Seq
	if got := follower.ReplicationResume(); got != last {
		t.Fatalf("applied position %d after redelivery, want %d", got, last)
	}
	if got := follower.MetricsRegistry().Counter("wal_append_records_total", "").Value(); got != uint64(len(recs)) {
		t.Fatalf("%d records appended for a %d-record stream", got, len(recs))
	}
	for _, model := range leader.Models() {
		if !bytes.Equal(dumpModel(t, follower, model), dumpModel(t, leader, model)) {
			t.Fatalf("model %s differs from the leader's after redelivery", model)
		}
	}
	// A follower's log holds its leader's records only: a pass there
	// writes nothing, and the log still ends where the shards do.
	if err := follower.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := follower.WAL().NextSeq() - 1; got != last {
		t.Fatalf("follower WAL ends at %d after a pass, want %d", got, last)
	}
}

// TestSnapshotKeepsUnappliedReplicatedRecords: between a mid-batch
// ErrBusy and the leader's redelivery, the follower's log and its shards
// end at the same record. A snapshot pass in that gap — periodic, or a
// clean shutdown's — may cover the whole log and seal it, and a restart
// resumes right after the prefix, where the redelivery picks up; nothing
// the shards never applied is replayed.
func TestSnapshotKeepsUnappliedReplicatedRecords(t *testing.T) {
	reopen := func(t *testing.T, dir string) *Engine {
		t.Helper()
		e, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: dir, Follower: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}
	sameAsLeader := func(t *testing.T, leader, got *Engine, last uint64) {
		t.Helper()
		if resume := got.ReplicationResume(); resume != last {
			t.Fatalf("reopened follower resumes after %d, want %d", resume, last)
		}
		for _, model := range leader.Models() {
			if !bytes.Equal(dumpModel(t, got, model), dumpModel(t, leader, model)) {
				t.Fatalf("model %s differs from the leader's", model)
			}
		}
	}

	t.Run("clean shutdown before redelivery", func(t *testing.T) {
		dir := t.TempDir()
		leader, follower, recs, prefix := jamMidBatch(t, dir)
		if err := follower.Snapshot(); err != nil { // a periodic pass
			t.Fatal(err)
		}
		if err := follower.Close(); err != nil { // and the final one
			t.Fatal(err)
		}
		reopened := reopen(t, dir)
		if got, want := reopened.ReplicationResume(), recs[prefix-1].Seq; got != want {
			t.Fatalf("reopened follower resumes after %d, want %d (the last record a shard applied)", got, want)
		}
		if err := reopened.ApplyReplicated(recs); err != nil { // the redelivery after reconnect
			t.Fatalf("redelivery: %v", err)
		}
		sameAsLeader(t, leader, reopened, recs[len(recs)-1].Seq)
	})

	t.Run("snapshot, redelivery, crash", func(t *testing.T) {
		dir := t.TempDir()
		leader, follower, recs, _ := jamMidBatch(t, dir)
		if err := follower.Snapshot(); err != nil {
			t.Fatal(err)
		}
		// Redelivery logs and applies the rest, and the Sync it ends with
		// lets the follower ack it.
		if err := follower.ApplyReplicated(recs); err != nil {
			t.Fatalf("redelivery: %v", err)
		}
		// Crash: the follower is abandoned without Close.
		sameAsLeader(t, leader, reopen(t, dir), recs[len(recs)-1].Seq)
	})

	// Passes that seal the log over and over while a follower logs and
	// applies run after run: here for -race, and for a cutoff that would
	// take a logged record for covered before its shard has it.
	t.Run("snapshots racing delivery", func(t *testing.T) {
		obs := engineStream(t, 9, 2)
		if len(obs) > 2000 {
			obs = obs[:2000]
		}
		leader, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		defer leader.Close()
		recs := leaderRecords(t, leader, obs)
		dir := t.TempDir()
		follower, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: dir, Follower: true})
		if err != nil {
			t.Fatal(err)
		}
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := follower.Snapshot(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		for rest := recs; len(rest) > 0; {
			n := min(37, len(rest))
			if err := follower.ApplyReplicated(rest[:n]); err != nil {
				t.Fatal(err)
			}
			rest = rest[n:]
		}
		close(stop)
		<-done
		// Crash: whatever the racing passes sealed away must have been
		// in a snapshot.
		sameAsLeader(t, leader, reopen(t, dir), recs[len(recs)-1].Seq)
	})
}

// TestPromoteAfterMidBatchBusyRestartsIdentical: a follower promoted
// between a mid-batch ErrBusy and the redelivery, then closed and
// reopened, comes back with the state it served. A log that held the
// shed records would replay them on the restart — records the promoted
// node never applied, changing every model they touch.
func TestPromoteAfterMidBatchBusyRestartsIdentical(t *testing.T) {
	dir := t.TempDir()
	_, follower, _, _ := jamMidBatch(t, dir)
	follower.Promote()
	models := follower.Models()
	served := make(map[string][]byte, len(models))
	for _, model := range models {
		served[model] = dumpModel(t, follower, model)
	}
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.Models(); !slices.Equal(got, models) {
		t.Fatalf("models after the restart %v, want %v", got, models)
	}
	for _, model := range models {
		if !bytes.Equal(dumpModel(t, reopened, model), served[model]) {
			t.Errorf("model %s differs from the state the promoted node served", model)
		}
	}
}

// TestReplicatedDeliveryFsyncsOnce: a follower logs a delivery run by
// run, but only the Sync before its ack makes it durable — one fsync per
// delivery however many runs it crosses as, with a group-commit threshold
// every run would cross.
func TestReplicatedDeliveryFsyncsOnce(t *testing.T) {
	obs := engineStream(t, 17, 3)[:144]
	leader, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	recs := leaderRecords(t, leader, obs)
	if len(recs) != 144 || len(leader.Models()) != 3 {
		t.Fatalf("leader log of %d records over %d models, want 144 over 3", len(recs), len(leader.Models()))
	}
	follower, err := NewEngine(EngineConfig{
		Predictor: engineTestConfig(), DataDir: t.TempDir(), Follower: true,
		SyncBytes: 1, SyncInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	fsyncs := follower.MetricsRegistry().Counter("wal_fsync_total", "")
	before := fsyncs.Value()
	if err := follower.ApplyReplicated(recs); err != nil {
		t.Fatal(err)
	}
	if got := fsyncs.Value() - before; got != 1 {
		t.Fatalf("a %d-record delivery cost %d fsyncs, want 1", len(recs), got)
	}
	if got := follower.WAL().SyncedSeq(); got != recs[len(recs)-1].Seq {
		t.Fatalf("durable through %d after the delivery, want %d", got, recs[len(recs)-1].Seq)
	}
}

// TestSnapshotTickerBesideReset: orfserve runs the snapshot ticker on a
// follower too, and a follower Reset replaces the engine's log. The
// ticker's pass must look at the log only under the lock Reset holds
// (go test -race reports it otherwise), and still do nothing there.
func TestSnapshotTickerBesideReset(t *testing.T) {
	dir := t.TempDir()
	eng, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: dir, Follower: true, SnapshotEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < 50; i++ {
		if err := eng.Reset(1); err != nil {
			t.Fatal(err)
		}
	}
	if n := eng.met.snapshots.Value(); n != 0 {
		t.Fatalf("a follower ran %d snapshot passes", n)
	}
}

// walBytes returns the log bytes of the records in the log directory
// dir with sequence numbers in (after, through], concatenated, and the
// first and last of those sequence numbers.
func walBytes(t testing.TB, dir string, after, through uint64) (first, last uint64, b []byte) {
	t.Helper()
	cur, err := wal.OpenCursor(dir, after)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for {
		seq, rec, err := cur.NextRecord()
		if errors.Is(err, wal.ErrNoMore) || err == nil && seq > through {
			return first, last, b
		}
		if err != nil {
			t.Fatal(err)
		}
		if first == 0 {
			first = seq
		}
		last, b = seq, append(b, rec...)
	}
}

// requireLogSuffix checks what replication keeps between a leader and
// its follower: from the follower's first record on, the records in the
// follower's segments, concatenated in sequence order, are byte for byte
// the leader's records for the same range — the follower's log is a
// suffix of the leader's, segment boundaries aside. Both logs must be
// still (no append in flight). It returns the number of bytes compared.
func requireLogSuffix(t testing.TB, leader, follower *Engine) int {
	t.Helper()
	first, last, fb := walBytes(t, follower.WAL().Dir(), 0, math.MaxUint64)
	if len(fb) == 0 {
		t.Fatal("the follower's log holds no record")
	}
	lfirst, llast, lb := walBytes(t, leader.WAL().Dir(), first-1, last)
	if lfirst != first || llast != last || !bytes.Equal(fb, lb) {
		t.Fatalf("follower log %d..%d (%d bytes) is not the leader's %d..%d (%d bytes)",
			first, last, len(fb), lfirst, llast, len(lb))
	}
	return len(fb)
}

// TestFollowerLogIsLeaderSuffix: through a snapshot pass whose state
// records are larger than a session keeps frame buffers for, and a
// reconnect, the follower's log stays a byte-for-byte suffix of its
// leader's.
func TestFollowerLogIsLeaderSuffix(t *testing.T) {
	cfg := Config{Horizon: 4, ORF: ORFConfig{Trees: 200, MinParentSize: 10, Seed: 9}}
	leader, err := NewEngine(EngineConfig{Predictor: cfg, DataDir: t.TempDir(), SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	src, err := replica.NewSource("127.0.0.1:0", replica.SourceConfig{WAL: leader.WAL()})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	follower, err := NewEngine(EngineConfig{Predictor: cfg, DataDir: t.TempDir(), Follower: true, SegmentBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	follow := func() *replica.Follower {
		t.Helper()
		fl, err := replica.StartFollower(src.Addr(), replica.FollowerConfig{Applier: follower, RetryInterval: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		return fl
	}
	// ingest logs obs on the leader, makes it durable, and waits until
	// the follower holds it.
	ingest := func(obs []FleetObservation) {
		t.Helper()
		for _, o := range obs {
			leader.Ingest(o) //nolint:errcheck // a refused row is logged as no record
		}
		if err := leader.WAL().Sync(); err != nil {
			t.Fatal(err)
		}
		head := leader.WAL().SyncedSeq()
		waitUntil(t, 30*time.Second, "follower catch-up", func() bool { return follower.ReplicationResume() == head })
	}
	obs := engineStream(t, 37, 2)
	third := len(obs) / 3
	fl := follow()
	ingest(obs[:third])
	if err := leader.Snapshot(); err != nil {
		t.Fatal(err)
	}
	ingest(nil)
	largest := 0
	if err := leader.WAL().Replay(func(_ uint64, p []byte) error {
		if rec, err := decodeRecord(p); err == nil && rec.kind == recState {
			largest = max(largest, len(p))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if largest <= 256<<10 {
		t.Fatalf("largest state record %d bytes, want one past the 256 KiB a session retains", largest)
	}
	n := requireLogSuffix(t, leader, follower)

	fl.Close()
	for _, o := range obs[third : 2*third] {
		leader.Ingest(o) //nolint:errcheck
	}
	fl = follow()
	defer fl.Close()
	ingest(obs[2*third:])
	if got := requireLogSuffix(t, leader, follower); got <= n {
		t.Fatalf("%d bytes compared after the reconnect, %d before", got, n)
	}
}
