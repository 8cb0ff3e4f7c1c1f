package orfdisk

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"orfdisk/internal/cluster"
)

// TestFailoverThroughRouter runs a replica group in one process, each
// node started the way orfserve starts it: a SyncAcks 1 leader shipping
// its log (ShipWAL) and two followers of it (ShipWAL, then Follow), each
// behind a real HTTP server, with a cluster.Router in front. The leader
// dies; the router promotes a follower, which starts shipping, and
// re-points the survivor at it over POST /v1/follow. A write after the
// failover returns only once the survivor has acked it, the survivor's
// log is a suffix of the new leader's, and every model's state is the
// same on both.
func TestFailoverThroughRouter(t *testing.T) {
	engines := make([]*Engine, 3)
	servers := make([]*httptest.Server, 3)
	urls := make([]string, 3)
	for i := range engines {
		eng, err := NewEngine(EngineConfig{
			Predictor: engineTestConfig(), DataDir: t.TempDir(), Follower: i > 0,
			SyncAcks: 1, SyncAckTimeout: 10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if err := eng.ShipWAL("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := eng.Follow(engines[0].Replication().ReplicateAddr); err != nil {
				t.Fatal(err)
			}
		}
		srv := httptest.NewServer(NewServerWithEngine(eng).Handler())
		defer srv.Close()
		engines[i], servers[i], urls[i] = eng, srv, srv.URL
	}
	rt, err := cluster.New([]cluster.GroupSpec{{Name: "g0", Nodes: urls}},
		cluster.Config{HealthInterval: 20 * time.Millisecond, FailAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	// write posts obs through the router as one batch.
	write := func(obs []FleetObservation) {
		t.Helper()
		req := BatchRequest{Observations: make([]ObservationRequest, len(obs))}
		for i, o := range obs {
			req.Observations[i] = ObservationRequest{Serial: o.Serial, Model: o.Model, Day: o.Day, Failed: o.Failed, Values: o.Values}
		}
		resp := postJSON(t, router.URL+"/v1/observe/batch", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch via router: %s", resp.Status)
		}
		var items []BatchItemResponse
		if err := json.NewDecoder(resp.Body).Decode(&items); err != nil {
			t.Fatal(err)
		}
		for _, it := range items {
			if strings.Contains(it.Error, ErrSyncUnacked.Error()) {
				t.Fatalf("write not acknowledged by a follower: %s", it.Error)
			}
		}
	}

	obs := engineStream(t, 47, 2)[:900]
	for lo := 0; lo < 600; lo += 100 {
		write(obs[lo : lo+100])
	}
	head := engines[0].WAL().NextSeq() - 1
	waitUntil(t, 30*time.Second, "both followers at the leader's head", func() bool {
		return engines[1].ReplicationResume() == head && engines[2].ReplicationResume() == head
	})

	// The leader dies: its server, then its engine, which stops the
	// source both followers stream from.
	servers[0].CloseClientConnections()
	servers[0].Close()
	if err := engines[0].Close(); err != nil {
		t.Fatal(err)
	}
	var leader, survivor *Engine
	waitUntil(t, 30*time.Second, "the router to promote a follower", func() bool {
		for i, j := 1, 2; i <= 2; i, j = i+1, j-1 {
			if !engines[i].IsFollower() {
				leader, survivor = engines[i], engines[j]
				return true
			}
		}
		return false
	})
	if !survivor.IsFollower() {
		t.Fatal("both followers were promoted")
	}
	if leader.Replication().ReplicateAddr == "" {
		t.Fatal("the promoted follower ships no log")
	}

	// The router re-points the survivor at the new leader's source, so
	// each write returns only once the survivor has it.
	for lo := 600; lo < len(obs); lo += 100 {
		write(obs[lo : lo+100])
		if got, want := survivor.ReplicationResume(), leader.WAL().NextSeq()-1; got != want {
			t.Fatalf("acknowledged write not on the survivor: resume %d, want %d", got, want)
		}
	}
	if leader.WAL().NextSeq()-1 <= head {
		t.Fatal("no write landed on the new leader")
	}
	requireLogSuffix(t, leader, survivor)
	models := leader.Models()
	if len(models) != 2 || !slices.Equal(models, survivor.Models()) {
		t.Fatalf("models: leader %v, survivor %v", models, survivor.Models())
	}
	for _, m := range models {
		if !bytes.Equal(dumpModel(t, leader, m), dumpModel(t, survivor, m)) {
			t.Fatalf("model %s differs between the new leader and the survivor", m)
		}
	}
}

// TestCloseFollowerWhileLeaderIngests: Close stops a follower's
// replication client before it drains the shards and closes the log, so
// a follower closed while its leader keeps ingesting returns nil and
// leaves a directory that recovers to a prefix of the leader's log.
func TestCloseFollowerWhileLeaderIngests(t *testing.T) {
	leader, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if err := leader.ShipWAL("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	follower, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: dir, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.Follow(leader.Replication().ReplicateAddr); err != nil {
		t.Fatal(err)
	}

	obs := engineStream(t, 53, 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, o := range obs {
			leader.Ingest(o) //nolint:errcheck // a refused row is logged as no record
		}
	}()
	waitUntil(t, 30*time.Second, "the follower to apply part of the stream", func() bool {
		return follower.ReplicationResume() > 50
	})
	if err := follower.Close(); err != nil {
		t.Fatalf("closing a streaming follower: %v", err)
	}
	<-done
	if err := leader.WAL().Sync(); err != nil {
		t.Fatal(err)
	}

	reopened, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: dir, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if first, _, _ := walBytes(t, reopened.WAL().Dir(), 0, reopened.ReplicationResume()); first != 1 {
		t.Fatalf("the follower's log starts at %d, want the leader's first record", first)
	}
	requireLogSuffix(t, leader, reopened)
	if got, head := reopened.ReplicationResume(), leader.WAL().NextSeq()-1; got >= head {
		t.Fatalf("the follower holds %d of the leader's %d records: closed after the stream ended", got, head)
	}
}

// TestFollowEndpoint: POST /v1/follow points a follower's replication
// client at a leader, and a leader, which has no client, answers 409.
func TestFollowEndpoint(t *testing.T) {
	leader, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if err := leader.ShipWAL("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	follower, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: t.TempDir(), Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	body := map[string]string{"addr": leader.Replication().ReplicateAddr}
	for _, c := range []struct {
		eng  *Engine
		want int
	}{{leader, http.StatusConflict}, {follower, http.StatusOK}} {
		ts := httptest.NewServer(NewServerWithEngine(c.eng).Handler())
		defer ts.Close()
		if resp := postJSON(t, ts.URL+"/v1/follow", body); resp.StatusCode != c.want {
			t.Fatalf("POST /v1/follow on a %s: %s, want %d", c.eng.Replication().Role, resp.Status, c.want)
		}
	}
	for _, o := range engineStream(t, 59, 1)[:20] {
		leader.Ingest(o) //nolint:errcheck // a refused row is logged as no record
	}
	if err := leader.WAL().Sync(); err != nil {
		t.Fatal(err)
	}
	head := leader.WAL().SyncedSeq()
	waitUntil(t, 30*time.Second, "the follower to stream the leader's log", func() bool {
		return follower.ReplicationResume() == head
	})
}

// TestReplicationLifecycleRefusals: ShipWAL needs a log and runs once,
// and a closed engine neither follows nor starts shipping at promotion.
func TestReplicationLifecycleRefusals(t *testing.T) {
	mem, err := NewEngine(EngineConfig{Predictor: engineTestConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	if err := mem.ShipWAL("127.0.0.1:0"); err == nil {
		t.Fatal("ShipWAL without a DataDir succeeded")
	}

	eng, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: t.TempDir(), Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ShipWAL("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if got := eng.Replication().ReplicateAddr; got != "" {
		t.Fatalf("a follower ships at %s before promotion", got)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Follow("127.0.0.1:1"); err == nil {
		t.Fatal("a closed engine started following")
	}
	eng.Promote()
	if got := eng.Replication().ReplicateAddr; got != "" {
		t.Fatalf("a closed engine started shipping at %s", got)
	}

	leader, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if err := leader.ShipWAL("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := leader.ShipWAL("127.0.0.1:0"); err == nil {
		t.Fatal("a second ShipWAL succeeded")
	}
}

// TestFollowBesidePromote: re-points racing a promotion never leave a
// replication client running on the promoted engine, which ships its log.
func TestFollowBesidePromote(t *testing.T) {
	leader, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if err := leader.ShipWAL("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := leader.Replication().ReplicateAddr
	follower, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: t.TempDir(), Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	if err := follower.ShipWAL("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				follower.Follow(addr) //nolint:errcheck // refused once promoted
				follower.Replication()
			}
		}()
	}
	follower.Promote()
	wg.Wait()
	follower.roleMu.Lock()
	client := follower.client
	follower.roleMu.Unlock()
	if client != nil {
		t.Fatal("a replication client runs on the promoted engine")
	}
	if st := follower.Replication(); st.Role != "leader" || st.ReplicateAddr == "" {
		t.Fatalf("after promotion: %+v, want a shipping leader", st)
	}
}
