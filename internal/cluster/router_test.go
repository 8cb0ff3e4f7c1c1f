package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRingDeterministicAndComplete(t *testing.T) {
	r1, err := NewRing([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing([]string{"c", "a", "b"}) // order must not matter
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < 3000; i++ {
		key := fmt.Sprintf("MODEL-%04d", i)
		m := r1.Member(key)
		if m2 := r2.Member(key); m2 != m {
			t.Fatalf("placement depends on member order: %q -> %q vs %q", key, m, m2)
		}
		counts[m]++
	}
	for _, m := range []string{"a", "b", "c"} {
		// Perfect balance is 1000; vnodes keep real imbalance mild. The
		// wide bound only guards against a broken hash collapsing the
		// ring onto one or two members.
		if counts[m] < 500 || counts[m] > 1700 {
			t.Fatalf("member %q owns %d of 3000 keys — ring is badly imbalanced: %v", m, counts[m], counts)
		}
	}
	if _, err := NewRing(nil); err == nil {
		t.Fatal("empty ring must fail")
	}
	if _, err := NewRing([]string{"a", "a"}); err == nil {
		t.Fatal("duplicate members must fail")
	}
}

// fakeNode is an httptest engine node capturing what it was asked.
type fakeNode struct {
	mu       sync.Mutex
	observes []string // serials received at /v1/observe
	predicts int
	retires  []string
	promoted atomic.Bool
	demoted  atomic.Bool
	healthy  atomic.Bool
	ready    atomic.Bool
	role     atomic.Value // "leader" | "follower"
	srv      *httptest.Server

	replAddr   atomic.Value // advertised replicate_addr (string; "" = none)
	followed   atomic.Value // last addr received at POST /v1/follow
	observe503 atomic.Int32 // remaining /v1/observe calls to answer 503 + Retry-After
	batch503   atomic.Int32 // same, for /v1/observe/batch
	retire503  atomic.Int32 // same, for /v1/retire
	applied503 atomic.Bool  // mark those 503s X-Orf-Write-Applied (batch and retire then apply the write)
	importance []string     // models asked for at /v1/importance
}

func newFakeNode(t *testing.T) *fakeNode {
	t.Helper()
	n := &fakeNode{}
	n.healthy.Store(true)
	n.ready.Store(true)
	n.role.Store("follower")
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if !n.healthy.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !n.healthy.Load() || !n.ready.Load() {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/v1/observe", func(w http.ResponseWriter, r *http.Request) {
		if n.observe503.Load() > 0 {
			n.observe503.Add(-1)
			w.Header().Set("Retry-After", "0")
			if n.applied503.Load() {
				w.Header().Set("X-Orf-Write-Applied", "true")
			}
			http.Error(w, `{"error":"busy"}`, http.StatusServiceUnavailable)
			return
		}
		var req struct {
			Serial string `json:"serial"`
		}
		json.NewDecoder(r.Body).Decode(&req) //nolint:errcheck
		n.mu.Lock()
		n.observes = append(n.observes, req.Serial)
		n.mu.Unlock()
		json.NewEncoder(w).Encode(map[string]any{"serial": req.Serial, "score": 0.5}) //nolint:errcheck
	})
	mux.HandleFunc("/v1/observe/batch", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Observations []struct {
				Serial string `json:"serial"`
			} `json:"observations"`
		}
		json.NewDecoder(r.Body).Decode(&req) //nolint:errcheck
		status := http.StatusOK
		if n.batch503.Load() > 0 {
			n.batch503.Add(-1)
			w.Header().Set("Retry-After", "0")
			if !n.applied503.Load() {
				http.Error(w, `{"error":"busy"}`, http.StatusServiceUnavailable)
				return
			}
			// Like the engine: the write is durable, and the per-item array
			// says so item by item.
			w.Header().Set("X-Orf-Write-Applied", "true")
			status = http.StatusServiceUnavailable
		}
		out := make([]map[string]any, len(req.Observations))
		n.mu.Lock()
		for i, o := range req.Observations {
			n.observes = append(n.observes, o.Serial)
			out[i] = map[string]any{"serial": o.Serial, "node": n.srv.URL}
			if status != http.StatusOK {
				out[i]["error"] = "sync unacked"
			}
		}
		n.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(out) //nolint:errcheck
	})
	mux.HandleFunc("/v1/predict", func(w http.ResponseWriter, r *http.Request) {
		n.mu.Lock()
		n.predicts++
		n.mu.Unlock()
		json.NewEncoder(w).Encode(map[string]any{"score": 0.1}) //nolint:errcheck
	})
	mux.HandleFunc("/v1/retire", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Serial string `json:"serial"`
		}
		json.NewDecoder(r.Body).Decode(&req) //nolint:errcheck
		if n.retire503.Load() > 0 {
			n.retire503.Add(-1)
			w.Header().Set("Retry-After", "0")
			if !n.applied503.Load() {
				http.Error(w, `{"error":"busy"}`, http.StatusServiceUnavailable)
				return
			}
			w.Header().Set("X-Orf-Write-Applied", "true")
			n.mu.Lock()
			n.retires = append(n.retires, req.Serial)
			n.mu.Unlock()
			http.Error(w, `{"error":"sync unacked"}`, http.StatusServiceUnavailable)
			return
		}
		n.mu.Lock()
		n.retires = append(n.retires, req.Serial)
		n.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	})
	fan := func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode([]map[string]any{{"model": n.srv.URL}}) //nolint:errcheck
	}
	mux.HandleFunc("/v1/stats", fan)
	mux.HandleFunc("/v1/models", fan)
	mux.HandleFunc("/v1/importance", func(w http.ResponseWriter, r *http.Request) {
		model := r.URL.Query().Get("model")
		n.mu.Lock()
		n.importance = append(n.importance, model)
		n.mu.Unlock()
		json.NewEncoder(w).Encode(map[string]any{"model": model}) //nolint:errcheck
	})
	mux.HandleFunc("/v1/promote", func(w http.ResponseWriter, r *http.Request) {
		n.promoted.Store(true)
		n.role.Store("leader")
		json.NewEncoder(w).Encode(map[string]string{"role": "leader"}) //nolint:errcheck
	})
	// The replication endpoints die with the process: gate them on
	// healthy so a "dead" fake really is unreachable for fencing.
	mux.HandleFunc("/v1/replication", func(w http.ResponseWriter, r *http.Request) {
		if !n.healthy.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		st := map[string]string{"role": n.role.Load().(string)}
		if addr, _ := n.replAddr.Load().(string); addr != "" {
			st["replicate_addr"] = addr
		}
		json.NewEncoder(w).Encode(st) //nolint:errcheck
	})
	mux.HandleFunc("/v1/follow", func(w http.ResponseWriter, r *http.Request) {
		if !n.healthy.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		var req struct {
			Addr string `json:"addr"`
		}
		json.NewDecoder(r.Body).Decode(&req) //nolint:errcheck
		n.followed.Store(req.Addr)
		json.NewEncoder(w).Encode(map[string]string{"role": "follower"}) //nolint:errcheck
	})
	mux.HandleFunc("/v1/demote", func(w http.ResponseWriter, r *http.Request) {
		if !n.healthy.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		n.demoted.Store(true)
		n.role.Store("follower")
		json.NewEncoder(w).Encode(map[string]string{"role": "follower"}) //nolint:errcheck
	})
	n.srv = httptest.NewServer(mux)
	t.Cleanup(n.srv.Close)
	return n
}

func (n *fakeNode) observed() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]string(nil), n.observes...)
}

func newTestRouter(t *testing.T, specs []GroupSpec, cfg Config) *Router {
	t.Helper()
	rt, err := New(specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestRouterRoutesWritesByModel(t *testing.T) {
	a, b := newFakeNode(t), newFakeNode(t)
	rt := newTestRouter(t, []GroupSpec{
		{Name: "a", Nodes: []string{a.srv.URL}},
		{Name: "b", Nodes: []string{b.srv.URL}},
	}, Config{HealthInterval: time.Hour}) // no probes: test the data path
	h := rt.Handler()

	// All writes for one model land on one group, regardless of serial.
	for i := 0; i < 8; i++ {
		w := post(t, h, "/v1/observe",
			fmt.Sprintf(`{"serial":"S%d","model":"ST4000DM000"}`, i))
		if w.Code != http.StatusOK {
			t.Fatalf("observe %d: status %d: %s", i, w.Code, w.Body)
		}
	}
	na, nb := len(a.observed()), len(b.observed())
	if na+nb != 8 || (na != 0 && nb != 0) {
		t.Fatalf("one model split across groups: a=%d b=%d", na, nb)
	}
	// A request that cannot be routed is rejected at the router.
	if w := post(t, h, "/v1/observe", `{"day":3}`); w.Code != http.StatusBadRequest {
		t.Fatalf("unroutable observe: status %d", w.Code)
	}
}

func TestRouterBatchSplitAndOrderPreservingMerge(t *testing.T) {
	a, b := newFakeNode(t), newFakeNode(t)
	rt := newTestRouter(t, []GroupSpec{
		{Name: "a", Nodes: []string{a.srv.URL}},
		{Name: "b", Nodes: []string{b.srv.URL}},
	}, Config{HealthInterval: time.Hour})

	// Find two models that hash to different groups.
	var m1, m2 string
	for i := 0; i < 100 && m2 == ""; i++ {
		m := fmt.Sprintf("MODEL-%d", i)
		switch rt.ring.Member(m) {
		case "a":
			if m1 == "" {
				m1 = m
			}
		case "b":
			m2 = m
		}
	}
	if m1 == "" || m2 == "" {
		t.Fatal("could not find models on distinct groups")
	}
	var items []string
	for i := 0; i < 10; i++ {
		m := m1
		if i%2 == 1 {
			m = m2
		}
		items = append(items, fmt.Sprintf(`{"serial":"S%02d","model":%q}`, i, m))
	}
	w := post(t, rt.Handler(), "/v1/observe/batch",
		`{"observations":[`+strings.Join(items, ",")+`]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", w.Code, w.Body)
	}
	var out []struct {
		Serial string `json:"serial"`
		Node   string `json:"node"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 10 {
		t.Fatalf("merged %d results, want 10", len(out))
	}
	for i, o := range out {
		if o.Serial != fmt.Sprintf("S%02d", i) {
			t.Fatalf("result %d is %q — merge lost input order: %s", i, o.Serial, w.Body)
		}
		want := a.srv.URL
		if i%2 == 1 {
			want = b.srv.URL
		}
		if o.Node != want {
			t.Fatalf("item %d served by %s, want %s", i, o.Node, want)
		}
	}
}

func TestRouterReadsFanAcrossReplicas(t *testing.T) {
	leader, follower := newFakeNode(t), newFakeNode(t)
	rt := newTestRouter(t, []GroupSpec{
		{Name: "g", Nodes: []string{leader.srv.URL, follower.srv.URL}},
	}, Config{HealthInterval: time.Hour})
	h := rt.Handler()
	for i := 0; i < 10; i++ {
		w := post(t, h, "/v1/predict", `{"model":"M"}`)
		if w.Code != http.StatusOK {
			t.Fatalf("predict: status %d: %s", w.Code, w.Body)
		}
	}
	leader.mu.Lock()
	lp := leader.predicts
	leader.mu.Unlock()
	follower.mu.Lock()
	fp := follower.predicts
	follower.mu.Unlock()
	if lp == 0 || fp == 0 || lp+fp != 10 {
		t.Fatalf("reads not fanned: leader=%d follower=%d", lp, fp)
	}
	// A not-ready follower drops out of the read rotation.
	follower.ready.Store(false)
	rt.probeAll()
	leader.mu.Lock()
	leader.predicts = 0
	leader.mu.Unlock()
	follower.mu.Lock()
	follower.predicts = 0
	follower.mu.Unlock()
	for i := 0; i < 6; i++ {
		post(t, h, "/v1/predict", `{"model":"M"}`)
	}
	follower.mu.Lock()
	fp = follower.predicts
	follower.mu.Unlock()
	if fp != 0 {
		t.Fatalf("not-ready follower still served %d reads", fp)
	}
}

func TestRouterRetireBroadcasts(t *testing.T) {
	a, b := newFakeNode(t), newFakeNode(t)
	rt := newTestRouter(t, []GroupSpec{
		{Name: "a", Nodes: []string{a.srv.URL}},
		{Name: "b", Nodes: []string{b.srv.URL}},
	}, Config{HealthInterval: time.Hour})
	w := post(t, rt.Handler(), "/v1/retire", `{"serial":"GONE"}`)
	if w.Code != http.StatusNoContent {
		t.Fatalf("retire: status %d: %s", w.Code, w.Body)
	}
	for _, n := range []*fakeNode{a, b} {
		n.mu.Lock()
		got := append([]string(nil), n.retires...)
		n.mu.Unlock()
		if len(got) != 1 || got[0] != "GONE" {
			t.Fatalf("retire not broadcast: %v", got)
		}
	}
}

func TestRouterPromotesOnLeaderDeath(t *testing.T) {
	leader, follower := newFakeNode(t), newFakeNode(t)
	rt := newTestRouter(t, []GroupSpec{
		{Name: "g", Nodes: []string{leader.srv.URL, follower.srv.URL}},
	}, Config{HealthInterval: time.Hour, FailAfter: 2})
	h := rt.Handler()

	// Healthy leader: writes go to it.
	post(t, h, "/v1/observe", `{"serial":"S1","model":"M"}`)
	if got := leader.observed(); len(got) != 1 {
		t.Fatalf("leader saw %v", got)
	}

	// Kill the leader; drive probes manually (the loop interval is huge).
	leader.healthy.Store(false)
	rt.probeAll() // fail 1
	if follower.promoted.Load() {
		t.Fatal("promoted before FailAfter")
	}
	rt.probeAll() // fail 2 -> promote
	if !follower.promoted.Load() {
		t.Fatal("follower was not promoted")
	}
	if rt.promotions.Value() != 1 {
		t.Fatalf("router_promotions_total = %d", rt.promotions.Value())
	}

	// Writes now land on the new leader.
	w := post(t, h, "/v1/observe", `{"serial":"S2","model":"M"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("post-failover observe: status %d: %s", w.Code, w.Body)
	}
	if got := follower.observed(); len(got) != 1 || got[0] != "S2" {
		t.Fatalf("new leader saw %v, want [S2]", got)
	}
	// Repeated probes of the same dead node do not promote again.
	rt.probeAll()
	rt.probeAll()
	if rt.promotions.Value() != 1 {
		t.Fatalf("promotions repeated: %d", rt.promotions.Value())
	}
}

// TestRouterFencesResurrectedLeader: a leader that dies, is replaced by
// a promotion, and later comes back still believing it leads must be
// demoted on its first healthy probe — otherwise clients writing to it
// directly would fork the log (split-brain).
func TestRouterFencesResurrectedLeader(t *testing.T) {
	leader, follower := newFakeNode(t), newFakeNode(t)
	leader.role.Store("leader")
	rt := newTestRouter(t, []GroupSpec{
		{Name: "g", Nodes: []string{leader.srv.URL, follower.srv.URL}},
	}, Config{HealthInterval: time.Hour, FailAfter: 2})

	// Kill the leader; two failed probes trigger promotion. The
	// pre-promotion fence attempt cannot reach the dead node, so no
	// demotion is recorded yet.
	leader.healthy.Store(false)
	rt.probeAll()
	rt.probeAll()
	if !follower.promoted.Load() {
		t.Fatal("follower was not promoted")
	}
	if leader.demoted.Load() || rt.demotions.With("ok").Value() != 0 {
		t.Fatalf("dead leader acknowledged a fence: demoted=%v count=%d",
			leader.demoted.Load(), rt.demotions.With("ok").Value())
	}
	// The fake simulates death with a 500, so the failed fence lands in
	// the rejected bucket (a torn-down listener would be unreachable).
	if rt.demotions.With("rejected").Value() == 0 {
		t.Fatal("failed fence attempt not counted")
	}

	// Resurrect the old leader, role intact. The next probe must fence it.
	leader.healthy.Store(true)
	rt.probeAll()
	if !leader.demoted.Load() {
		t.Fatal("resurrected stale leader was not demoted")
	}
	if rt.demotions.With("ok").Value() != 1 {
		t.Fatalf("router_demotions_total{outcome=ok} = %d, want 1", rt.demotions.With("ok").Value())
	}
	// Once fenced (role now follower), further probes leave it alone.
	rt.probeAll()
	if rt.demotions.With("ok").Value() != 1 {
		t.Fatalf("fence repeated: %d demotions", rt.demotions.With("ok").Value())
	}
}

func TestRouterStatsFanMerge(t *testing.T) {
	a, b := newFakeNode(t), newFakeNode(t)
	rt := newTestRouter(t, []GroupSpec{
		{Name: "a", Nodes: []string{a.srv.URL}},
		{Name: "b", Nodes: []string{b.srv.URL}},
	}, Config{HealthInterval: time.Hour})
	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("stats: status %d: %s", w.Code, w.Body)
	}
	var out []map[string]string
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("stats merged %d entries, want 2: %s", len(out), w.Body)
	}
}

func TestRouterClusterTopology(t *testing.T) {
	leader, follower := newFakeNode(t), newFakeNode(t)
	rt := newTestRouter(t, []GroupSpec{
		{Name: "g", Nodes: []string{leader.srv.URL, follower.srv.URL}},
	}, Config{HealthInterval: time.Hour})
	req := httptest.NewRequest(http.MethodGet, "/v1/cluster", nil)
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	var topo []ClusterGroup
	if err := json.Unmarshal(w.Body.Bytes(), &topo); err != nil {
		t.Fatal(err)
	}
	if len(topo) != 1 || len(topo[0].Nodes) != 2 {
		t.Fatalf("topology: %s", w.Body)
	}
	if !topo[0].Nodes[0].Leader || topo[0].Nodes[1].Leader {
		t.Fatalf("leader flag wrong: %s", w.Body)
	}
}

// TestRouterRepointsSurvivors: after a promotion the router must ask
// the new leader where it ships from and re-point every surviving
// follower over POST /v1/follow — without that the survivors keep
// replicating from the dead leader until an operator restarts them.
func TestRouterRepointsSurvivors(t *testing.T) {
	leader, f1, f2 := newFakeNode(t), newFakeNode(t), newFakeNode(t)
	leader.role.Store("leader")
	// Each follower advertises the ship address it would expose as
	// leader; the fake reports it unconditionally, the router only reads
	// it off the node it just promoted.
	f1.replAddr.Store("10.9.9.1:7000")
	f2.replAddr.Store("10.9.9.2:7000")
	rt := newTestRouter(t, []GroupSpec{
		{Name: "g", Nodes: []string{leader.srv.URL, f1.srv.URL, f2.srv.URL}},
	}, Config{HealthInterval: time.Hour, FailAfter: 2})

	leader.healthy.Store(false)
	rt.probeAll()
	rt.probeAll()
	if !f1.promoted.Load() {
		t.Fatal("first follower was not promoted")
	}
	if got, _ := f2.followed.Load().(string); got != "10.9.9.1:7000" {
		t.Fatalf("survivor follows %q, want the new leader's replicate_addr", got)
	}
	if f1.followed.Load() != nil {
		t.Fatal("new leader was asked to follow itself")
	}
	if got := rt.repoints.With("ok").Value(); got != 1 {
		t.Fatalf("router_repoints_total{outcome=ok} = %d, want 1", got)
	}
}

// TestRouterHonorsRetryAfter: an upstream 503 carrying Retry-After is
// retried once (overload is transient by its own admission) — unless
// the upstream marked the write as already applied, where a replay
// would double-count the observation.
func TestRouterHonorsRetryAfter(t *testing.T) {
	n := newFakeNode(t)
	n.role.Store("leader")
	n.observe503.Store(1)
	rt := newTestRouter(t, []GroupSpec{
		{Name: "g", Nodes: []string{n.srv.URL}},
	}, Config{HealthInterval: time.Hour})
	h := rt.Handler()

	w := post(t, h, "/v1/observe", `{"serial":"S1","model":"M"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("retryable 503 was not retried: status %d: %s", w.Code, w.Body)
	}
	if got := n.observed(); len(got) != 1 || got[0] != "S1" {
		t.Fatalf("upstream saw %v, want [S1]", got)
	}
	if got := rt.retries.Value(); got != 1 {
		t.Fatalf("router_write_retries_total = %d, want 1", got)
	}

	// Same 503, but flagged X-Orf-Write-Applied: surface it, don't replay.
	n.observe503.Store(1)
	n.applied503.Store(true)
	w = post(t, h, "/v1/observe", `{"serial":"S2","model":"M"}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("write-applied 503 was swallowed: status %d", w.Code)
	}
	if got := n.observed(); len(got) != 1 {
		t.Fatalf("applied write was replayed: upstream saw %v", got)
	}
	if got := rt.retries.Value(); got != 1 {
		t.Fatalf("router retried a write-applied 503 (retries=%d)", got)
	}
	if got := w.Header().Get("X-Orf-Write-Applied"); got != "true" {
		t.Fatalf("write-applied 503 reached the client with X-Orf-Write-Applied %q", got)
	}
	if got := w.Header().Get("Retry-After"); got != "0" {
		t.Fatalf("write-applied 503 reached the client with Retry-After %q", got)
	}
}

// modelOn returns a model name the ring places on group.
func modelOn(t *testing.T, rt *Router, group string) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if m := fmt.Sprintf("MODEL-%d", i); rt.ring.Member(m) == group {
			return m
		}
	}
	t.Fatalf("no model hashes to group %q", group)
	return ""
}

func get(h http.Handler, path string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

func errorOf(t *testing.T, w *httptest.ResponseRecorder) string {
	t.Helper()
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
		t.Fatalf("error body %q: %v", w.Body, err)
	}
	return e.Error
}

// batchItems decodes a merged /v1/observe/batch reply.
func batchItems(t *testing.T, w *httptest.ResponseRecorder) []map[string]string {
	t.Helper()
	var out []map[string]string
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("batch reply %q: %v", w.Body, err)
	}
	return out
}

// TestRouterFanGetNamesFailedGroup: /v1/stats and /v1/models answer 502
// naming every group they could not merge — one with no healthy replica
// and one whose replica cannot be reached.
func TestRouterFanGetNamesFailedGroup(t *testing.T) {
	a, b, c := newFakeNode(t), newFakeNode(t), newFakeNode(t)
	rt := newTestRouter(t, []GroupSpec{
		{Name: "a", Nodes: []string{a.srv.URL}},
		{Name: "b", Nodes: []string{b.srv.URL}},
		{Name: "c", Nodes: []string{c.srv.URL}},
	}, Config{HealthInterval: time.Hour})
	h := rt.Handler()
	for _, path := range []string{"/v1/stats", "/v1/models"} {
		if w := get(h, path); w.Code != http.StatusOK {
			t.Fatalf("%s with every group up: status %d: %s", path, w.Code, w.Body)
		}
	}
	c.healthy.Store(false)
	rt.probeAll()
	for _, path := range []string{"/v1/stats", "/v1/models"} {
		w := get(h, path)
		if w.Code != http.StatusBadGateway {
			t.Fatalf("%s with group c down: status %d: %s", path, w.Code, w.Body)
		}
		if got := errorOf(t, w); got != "groups unavailable: c" {
			t.Fatalf("%s error %q, want it to name group c", path, got)
		}
	}
	b.srv.Close()
	w := get(h, "/v1/stats")
	if w.Code != http.StatusBadGateway {
		t.Fatalf("stats with b unreachable: status %d: %s", w.Code, w.Body)
	}
	if got := errorOf(t, w); got != "groups unavailable: b, c" {
		t.Fatalf("stats error %q, want it to name groups b and c", got)
	}
}

// TestRouterRetireUnreachableLeader: a retire broadcast that cannot reach
// one group's leader is a 502 naming that leader, not a 204.
func TestRouterRetireUnreachableLeader(t *testing.T) {
	a, b := newFakeNode(t), newFakeNode(t)
	rt := newTestRouter(t, []GroupSpec{
		{Name: "a", Nodes: []string{a.srv.URL}},
		{Name: "b", Nodes: []string{b.srv.URL}},
	}, Config{HealthInterval: time.Hour})
	b.srv.Close()
	w := post(t, rt.Handler(), "/v1/retire", `{"serial":"GONE"}`)
	if w.Code != http.StatusBadGateway {
		t.Fatalf("retire with b unreachable: status %d: %s", w.Code, w.Body)
	}
	if got := errorOf(t, w); !strings.Contains(got, b.srv.URL) {
		t.Fatalf("retire error %q does not name the unreachable leader %s", got, b.srv.URL)
	}
	if got := rt.requests.With(b.srv.URL, "unreachable").Value(); got != 1 {
		t.Fatalf("route_requests_total{node=b,outcome=unreachable} = %d, want 1", got)
	}
}

// TestRouterBatchUnroutableItemsInPlace: an item the router cannot route
// (no model and no serial, or not an object) gets an error in its own
// place; the items around it are served.
func TestRouterBatchUnroutableItemsInPlace(t *testing.T) {
	a := newFakeNode(t)
	rt := newTestRouter(t, []GroupSpec{{Name: "a", Nodes: []string{a.srv.URL}}},
		Config{HealthInterval: time.Hour})
	w := post(t, rt.Handler(), "/v1/observe/batch",
		`{"observations":[{"serial":"S0","model":"M"},{"day":3},{"serial":"S2"},7]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", w.Code, w.Body)
	}
	out := batchItems(t, w)
	if len(out) != 4 {
		t.Fatalf("merged %d items, want 4: %s", len(out), w.Body)
	}
	for i, want := range []string{"S0", "", "S2", ""} {
		if want == "" {
			if !strings.Contains(out[i]["error"], "cannot route") {
				t.Fatalf("item %d: %v, want an in-place routing error", i, out[i])
			}
			continue
		}
		if out[i]["serial"] != want || out[i]["error"] != "" {
			t.Fatalf("item %d: %v, want %s served", i, out[i], want)
		}
	}
	if got := a.observed(); len(got) != 2 {
		t.Fatalf("upstream saw %v, want the two routable items", got)
	}
}

// TestRouterBatchUnreachableLeader: a sub-batch whose leader cannot be
// reached turns into in-place errors for exactly its items, counted as
// unreachable; the other group's items are served.
func TestRouterBatchUnreachableLeader(t *testing.T) {
	a, b := newFakeNode(t), newFakeNode(t)
	rt := newTestRouter(t, []GroupSpec{
		{Name: "a", Nodes: []string{a.srv.URL}},
		{Name: "b", Nodes: []string{b.srv.URL}},
	}, Config{HealthInterval: time.Hour})
	ma, mb := modelOn(t, rt, "a"), modelOn(t, rt, "b")
	b.srv.Close()
	w := post(t, rt.Handler(), "/v1/observe/batch", fmt.Sprintf(
		`{"observations":[{"serial":"S0","model":%q},{"serial":"S1","model":%q},{"serial":"S2","model":%q}]}`,
		mb, ma, mb))
	if w.Code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", w.Code, w.Body)
	}
	out := batchItems(t, w)
	if len(out) != 3 {
		t.Fatalf("merged %d items, want 3: %s", len(out), w.Body)
	}
	for _, i := range []int{0, 2} {
		if !strings.Contains(out[i]["error"], "upstream "+b.srv.URL) {
			t.Fatalf("item %d: %v, want an in-place upstream error", i, out[i])
		}
	}
	if out[1]["serial"] != "S1" || out[1]["node"] != a.srv.URL || out[1]["error"] != "" {
		t.Fatalf("item 1: %v, want it served by group a", out[1])
	}
	if got := rt.requests.With(b.srv.URL, "unreachable").Value(); got != 1 {
		t.Fatalf("route_requests_total{node=b,outcome=unreachable} = %d, want 1", got)
	}
}

// TestRouterReadsNeedAHealthyReplica: a read routed to a group with no
// healthy replica is a 502 naming the group.
func TestRouterReadsNeedAHealthyReplica(t *testing.T) {
	n := newFakeNode(t)
	rt := newTestRouter(t, []GroupSpec{{Name: "g", Nodes: []string{n.srv.URL}}},
		Config{HealthInterval: time.Hour})
	n.healthy.Store(false)
	rt.probeAll()
	h := rt.Handler()
	for _, w := range []*httptest.ResponseRecorder{
		post(t, h, "/v1/predict", `{"model":"M"}`),
		post(t, h, "/v1/predict/batch", `{"model":"M","items":[]}`),
		get(h, "/v1/importance?model=M"),
	} {
		if w.Code != http.StatusBadGateway {
			t.Fatalf("read with no healthy replica: status %d: %s", w.Code, w.Body)
		}
		if got := errorOf(t, w); got != "group g has no healthy replica" {
			t.Fatalf("read error %q", got)
		}
	}
}

// TestRouterBatchWriteApplied503: a sub-batch answered 503 with
// X-Orf-Write-Applied is durable on its leader. Its per-item array is
// merged in place, it is not replayed, and the whole reply is a 503
// carrying both headers — the engine's own rule for a batch.
func TestRouterBatchWriteApplied503(t *testing.T) {
	a, b := newFakeNode(t), newFakeNode(t)
	rt := newTestRouter(t, []GroupSpec{
		{Name: "a", Nodes: []string{a.srv.URL}},
		{Name: "b", Nodes: []string{b.srv.URL}},
	}, Config{HealthInterval: time.Hour})
	ma, mb := modelOn(t, rt, "a"), modelOn(t, rt, "b")
	b.batch503.Store(1)
	b.applied503.Store(true)
	w := post(t, rt.Handler(), "/v1/observe/batch", fmt.Sprintf(
		`{"observations":[{"serial":"S0","model":%q},{"serial":"S1","model":%q}]}`, mb, ma))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("batch with a write-applied sub-batch: status %d: %s", w.Code, w.Body)
	}
	if got := w.Header().Get("X-Orf-Write-Applied"); got != "true" {
		t.Fatalf("X-Orf-Write-Applied %q", got)
	}
	if got := w.Header().Get("Retry-After"); got != "0" {
		t.Fatalf("Retry-After %q", got)
	}
	out := batchItems(t, w)
	if len(out) != 2 {
		t.Fatalf("merged %d items, want 2: %s", len(out), w.Body)
	}
	if out[0]["serial"] != "S0" || out[0]["node"] != b.srv.URL || out[0]["error"] != "sync unacked" {
		t.Fatalf("item 0: %v, want b's own per-item report", out[0])
	}
	if out[1]["serial"] != "S1" || out[1]["node"] != a.srv.URL || out[1]["error"] != "" {
		t.Fatalf("item 1: %v, want it served by group a", out[1])
	}
	if got := b.observed(); len(got) != 1 {
		t.Fatalf("applied sub-batch was replayed: upstream saw %v", got)
	}
	if got := rt.retries.Value(); got != 0 {
		t.Fatalf("router_write_retries_total = %d, want 0", got)
	}
}

// TestRouterRetireWriteApplied503: a retire the leader applied but could
// not get acknowledged reaches the client as that 503, headers intact.
func TestRouterRetireWriteApplied503(t *testing.T) {
	n := newFakeNode(t)
	rt := newTestRouter(t, []GroupSpec{{Name: "g", Nodes: []string{n.srv.URL}}},
		Config{HealthInterval: time.Hour})
	n.retire503.Store(1)
	n.applied503.Store(true)
	w := post(t, rt.Handler(), "/v1/retire", `{"serial":"GONE"}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("write-applied retire: status %d: %s", w.Code, w.Body)
	}
	if got := w.Header().Get("X-Orf-Write-Applied"); got != "true" {
		t.Fatalf("X-Orf-Write-Applied %q", got)
	}
	if got := w.Header().Get("Retry-After"); got != "0" {
		t.Fatalf("Retry-After %q", got)
	}
	n.mu.Lock()
	got := append([]string(nil), n.retires...)
	n.mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("applied retire was replayed: upstream saw %v", got)
	}
	if got := rt.retries.Value(); got != 0 {
		t.Fatalf("router_write_retries_total = %d, want 0", got)
	}
}

// TestRouterRetriesEveryWriteDoor: a plain 503 with Retry-After is
// retried once on a sub-batch and on a retire call, as on /v1/observe.
func TestRouterRetriesEveryWriteDoor(t *testing.T) {
	n := newFakeNode(t)
	rt := newTestRouter(t, []GroupSpec{{Name: "g", Nodes: []string{n.srv.URL}}},
		Config{HealthInterval: time.Hour})
	h := rt.Handler()
	n.batch503.Store(1)
	w := post(t, h, "/v1/observe/batch", `{"observations":[{"serial":"S0","model":"M"}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", w.Code, w.Body)
	}
	if out := batchItems(t, w); len(out) != 1 || out[0]["serial"] != "S0" || out[0]["error"] != "" {
		t.Fatalf("retried sub-batch: %s", w.Body)
	}
	n.retire503.Store(1)
	if w := post(t, h, "/v1/retire", `{"serial":"GONE"}`); w.Code != http.StatusNoContent {
		t.Fatalf("retire: status %d: %s", w.Code, w.Body)
	}
	if got := rt.retries.Value(); got != 2 {
		t.Fatalf("router_write_retries_total = %d, want 2", got)
	}
}

// TestRouterImportanceEscapesModel: the model name reaches the upstream
// exactly, whatever it holds — Backblaze names carry spaces, and an
// unescaped '&' would cut the name short.
func TestRouterImportanceEscapesModel(t *testing.T) {
	n := newFakeNode(t)
	rt := newTestRouter(t, []GroupSpec{{Name: "g", Nodes: []string{n.srv.URL}}},
		Config{HealthInterval: time.Hour})
	models := []string{"HGST HMS5C4040BLE640", "A&B"}
	for _, m := range models {
		w := get(rt.Handler(), "/v1/importance?"+url.Values{"model": {m}}.Encode())
		if w.Code != http.StatusOK {
			t.Fatalf("importance of %q: status %d: %s", m, w.Code, w.Body)
		}
	}
	n.mu.Lock()
	got := append([]string(nil), n.importance...)
	n.mu.Unlock()
	if !slices.Equal(got, models) {
		t.Fatalf("upstream was asked for %q, want %q", got, models)
	}
}
