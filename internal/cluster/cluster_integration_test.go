package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"orfdisk"
)

// TestRouterFailoverOverRealCluster wires the whole stack together:
// real engines (leader shipping its WAL, follower applying it, both
// through ShipWAL and Follow as orfserve starts them), real
// HTTP servers, the router in front. The leader's server dies
// mid-ingest; the router must notice, promote the follower over HTTP,
// and keep accepting writes without the client seeing anything beyond
// transient errors.
func TestRouterFailoverOverRealCluster(t *testing.T) {
	predCfg := orfdisk.Config{
		Horizon: 4,
		ORF:     orfdisk.ORFConfig{Trees: 2, MinParentSize: 50, Seed: 1},
	}

	leaderEng, err := orfdisk.NewEngine(orfdisk.EngineConfig{
		Predictor: predCfg, DataDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer leaderEng.Close()
	if err := leaderEng.ShipWAL("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	followerEng, err := orfdisk.NewEngine(orfdisk.EngineConfig{
		Predictor: predCfg, DataDir: t.TempDir(), Follower: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer followerEng.Close()
	if err := followerEng.Follow(leaderEng.Replication().ReplicateAddr); err != nil {
		t.Fatal(err)
	}

	leaderHTTP := httptest.NewServer(orfdisk.NewServerWithEngine(leaderEng).Handler())
	defer leaderHTTP.Close()
	followerHTTP := httptest.NewServer(orfdisk.NewServerWithEngine(followerEng).Handler())
	defer followerHTTP.Close()

	rt, err := New([]GroupSpec{{Name: "g0", Nodes: []string{leaderHTTP.URL, followerHTTP.URL}}}, Config{
		HealthInterval: time.Hour, // probes driven by hand below
		FailAfter:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	routerHTTP := httptest.NewServer(rt.Handler())
	defer routerHTTP.Close()

	observe := func(i int) (int, string) {
		body, _ := json.Marshal(map[string]any{
			"serial": fmt.Sprintf("S%03d", i%10),
			"model":  "ST-ROUTED",
			"day":    i,
			"values": make([]float64, orfdisk.CatalogSize()),
		})
		resp, err := http.Post(routerHTTP.URL+"/v1/observe", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}

	for i := 0; i < 40; i++ {
		if code, msg := observe(i); code != http.StatusOK {
			t.Fatalf("observe %d via router: %d %s", i, code, msg)
		}
	}

	// Wait for the follower to be fully caught up so promotion loses
	// nothing.
	leaderLast := leaderEng.WAL().NextSeq() - 1
	deadline := time.Now().Add(30 * time.Second)
	for followerEng.ReplicationResume() != leaderLast {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at %d, leader at %d", followerEng.ReplicationResume(), leaderLast)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Kill the leader's HTTP server. Two failed probes later the router
	// must have promoted the follower via POST /v1/promote.
	leaderHTTP.CloseClientConnections()
	leaderHTTP.Close()
	rt.probeAll()
	rt.probeAll()
	if followerEng.IsFollower() {
		t.Fatal("router did not promote the follower")
	}

	// Writes keep flowing through the router, now landing on the
	// promoted node.
	before := followerEng.Replication().Applied
	for i := 40; i < 60; i++ {
		if code, msg := observe(i); code != http.StatusOK {
			t.Fatalf("observe %d after failover: %d %s", i, code, msg)
		}
	}
	if got := followerEng.Replication().Applied; got != before+20 {
		t.Fatalf("promoted node applied %d new records, want 20", got-before)
	}

	// Reads too: the promoted node serves /v1/predict for a serial it
	// learned about through replication.
	pbody, _ := json.Marshal(map[string]any{
		"serial": "S001",
		"values": make([]float64, orfdisk.CatalogSize()),
	})
	resp, err := http.Post(routerHTTP.URL+"/v1/predict", "application/json", bytes.NewReader(pbody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("predict after failover: %d %s", resp.StatusCode, msg)
	}

	// Topology reflects the new shape: the follower is the leader now,
	// the dead node is unhealthy.
	var sawLeader bool
	for _, g := range rt.Topology() {
		for _, n := range g.Nodes {
			if n.URL == followerHTTP.URL {
				sawLeader = n.Leader && n.Healthy
			}
		}
	}
	if !sawLeader {
		t.Fatalf("topology does not show the promoted node as the healthy leader: %+v", rt.Topology())
	}
}

// TestRouterWriteAppliedOverRealEngine: a SyncAcks 1 leader with no
// follower logs every write and then answers 503 + Retry-After +
// X-Orf-Write-Applied. Through the router, observe, a batch and a
// retire each reach the client as that 503 with both headers, and each
// write is logged exactly once — the router never replays it.
func TestRouterWriteAppliedOverRealEngine(t *testing.T) {
	eng, err := orfdisk.NewEngine(orfdisk.EngineConfig{
		Predictor: orfdisk.Config{Horizon: 4, ORF: orfdisk.ORFConfig{Trees: 2, MinParentSize: 50, Seed: 1}},
		DataDir:   t.TempDir(), SyncAcks: 1, SyncAckTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.ShipWAL("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(orfdisk.NewServerWithEngine(eng).Handler())
	defer srv.Close()
	rt, err := New([]GroupSpec{{Name: "g0", Nodes: []string{srv.URL}}}, Config{HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	h := rt.Handler()

	for _, c := range []struct{ path, body string }{
		{"/v1/observe", `{"serial":"S1","model":"M","day":0}`},
		{"/v1/observe/batch", `{"observations":[{"serial":"S2","model":"M","day":0},{"serial":"S3","model":"M","day":0}]}`},
		{"/v1/retire", `{"serial":"S1"}`},
	} {
		before := eng.WAL().NextSeq()
		w := post(t, h, c.path, c.body)
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s: status %d: %s", c.path, w.Code, w.Body)
		}
		if got := w.Header().Get("X-Orf-Write-Applied"); got != "true" {
			t.Fatalf("%s: X-Orf-Write-Applied %q", c.path, got)
		}
		if got := w.Header().Get("Retry-After"); got != "1" {
			t.Fatalf("%s: Retry-After %q", c.path, got)
		}
		if got := eng.WAL().NextSeq(); got != before+1 {
			t.Fatalf("%s: leader logged %d records, want 1", c.path, got-before)
		}
		if c.path == "/v1/observe/batch" {
			var items []orfdisk.BatchItemResponse
			if err := json.Unmarshal(w.Body.Bytes(), &items); err != nil {
				t.Fatal(err)
			}
			if len(items) != 2 || items[0].Serial != "S2" || items[1].Serial != "S3" ||
				!strings.Contains(items[0].Error, orfdisk.ErrSyncUnacked.Error()) {
				t.Fatalf("batch items: %s", w.Body)
			}
		}
	}
	if got := rt.retries.Value(); got != 0 {
		t.Fatalf("router_write_retries_total = %d, want 0", got)
	}
}
