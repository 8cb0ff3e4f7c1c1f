package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"orfdisk/internal/metrics"
)

// GroupSpec declares one replication group: a name (the ring member)
// and its node base URLs, leader first. The router assumes the listed
// leader is correct at startup and tracks leadership changes itself
// (its own promotions, plus /v1/replication role probes).
type GroupSpec struct {
	Name  string
	Nodes []string // e.g. "http://10.0.0.1:8080"; Nodes[0] is the leader
}

// Config tunes the Router. Zero values select defaults.
type Config struct {
	// HealthInterval is the node probe cadence (default 1 s).
	HealthInterval time.Duration
	// FailAfter is how many consecutive failed leader probes trigger a
	// follower promotion (default 3).
	FailAfter int
	// Client performs all upstream requests (default: 5 s timeout).
	Client *http.Client
	// Metrics receives route_requests_total and router_* families. Nil
	// registers into a private registry, served at GET /metrics.
	Metrics *metrics.Registry
	// Logger receives routing events. Nil discards them.
	Logger *slog.Logger
}

// ctlTimeout bounds each fencing (POST /v1/demote) and re-point (POST
// /v1/follow) call, so a black-holed node cannot pin a failover for the
// Client's full timeout while the group runs leaderless.
const ctlTimeout = 2 * time.Second

func (c *Config) fill() {
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 3
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 5 * time.Second}
	}
	if c.Logger == nil {
		c.Logger = slog.New(discardHandler{})
	}
}

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

type node struct {
	url string

	// Health state, written by the probe loop, read by the data path.
	healthy atomic.Bool
	ready   atomic.Bool
	fails   int // consecutive probe failures; probe loop only
}

type group struct {
	name string

	mu     sync.RWMutex
	leader int // index into nodes
	nodes  []*node

	rr atomic.Uint64 // read fan-out cursor
}

func (g *group) leaderNode() *node {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.nodes[g.leader]
}

// readNode picks the next healthy, ready replica round-robin (leader
// included — it is as warm as any follower). Falls back to the leader
// when nothing is ready, and to nil when nothing is even healthy.
func (g *group) readNode() *node {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := len(g.nodes)
	start := int(g.rr.Add(1))
	for i := 0; i < n; i++ {
		cand := g.nodes[(start+i)%n]
		if cand.healthy.Load() && cand.ready.Load() {
			return cand
		}
	}
	if l := g.nodes[g.leader]; l.healthy.Load() {
		return l
	}
	return nil
}

// Router is the cluster's single client-facing endpoint: it speaks the
// same HTTP API as one engine node, consistent-hashes every request's
// model (or serial) to a replication group, sends writes to that
// group's leader and reads to its replicas, and runs the health/
// failover loop that promotes a follower when a leader dies.
type Router struct {
	cfg    Config
	ring   *Ring
	groups map[string]*group
	order  []string // group names in spec order

	requests   *metrics.CounterVec // route_requests_total{node,outcome}
	promotions *metrics.Counter
	demotions  *metrics.CounterVec // router_demotions_total{outcome}
	repoints   *metrics.CounterVec // router_repoints_total{outcome}
	retries    *metrics.Counter
	reg        *metrics.Registry

	stop chan struct{}
	done chan struct{}
}

// New builds a Router over the given groups and starts its health loop.
func New(specs []GroupSpec, cfg Config) (*Router, error) {
	cfg.fill()
	if len(specs) == 0 {
		return nil, fmt.Errorf("cluster: no groups")
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	ring, err := NewRing(names)
	if err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	rt := &Router{
		cfg:    cfg,
		ring:   ring,
		groups: make(map[string]*group, len(specs)),
		order:  names,
		requests: reg.CounterVec("route_requests_total",
			"Requests forwarded by the router, by upstream node and outcome (ok, upstream_error, unreachable).",
			"node", "outcome"),
		promotions: reg.Counter("router_promotions_total",
			"Follower promotions the router has triggered after leader health failures."),
		demotions: reg.CounterVec("router_demotions_total",
			"Old-leader fences (POST /v1/demote) issued during failover, by outcome (ok, rejected, unreachable).",
			"outcome"),
		repoints: reg.CounterVec("router_repoints_total",
			"Post-promotion follower re-points (POST /v1/follow), by outcome (ok, rejected, unreachable).",
			"outcome"),
		retries: reg.Counter("router_write_retries_total",
			"Upstream writes retried after a 503 carrying Retry-After."),
		reg:  reg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	for _, s := range specs {
		if len(s.Nodes) == 0 {
			return nil, fmt.Errorf("cluster: group %q has no nodes", s.Name)
		}
		g := &group{name: s.Name}
		for _, u := range s.Nodes {
			n := &node{url: strings.TrimRight(u, "/")}
			// Optimistic until the first probe: a router restart must not
			// black-hole traffic for one probe interval.
			n.healthy.Store(true)
			n.ready.Store(true)
			g.nodes = append(g.nodes, n)
		}
		rt.groups[s.Name] = g
	}
	go rt.healthLoop()
	return rt, nil
}

// Close stops the health loop.
func (rt *Router) Close() {
	close(rt.stop)
	<-rt.done
}

// MetricsRegistry returns the router's metric registry (served at
// GET /metrics on the router handler).
func (rt *Router) MetricsRegistry() *metrics.Registry { return rt.reg }

// --- health & failover ---

func (rt *Router) healthLoop() {
	defer close(rt.done)
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.probeAll()
		}
	}
}

func (rt *Router) probeAll() {
	var wg sync.WaitGroup
	for _, name := range rt.order {
		g := rt.groups[name]
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.probeGroup(g)
		}()
	}
	wg.Wait()
}

func (rt *Router) probe(n *node, path string) bool {
	resp, err := rt.cfg.Client.Get(n.url + path)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// upstreamRepl is the slice of a node's /v1/replication answer the
// router acts on.
type upstreamRepl struct {
	Role          string `json:"role"`
	ReplicateAddr string `json:"replicate_addr"`
}

// replicationOf probes a node's replication status. ok=false when the
// node is unreachable or does not expose the endpoint; callers must
// treat unknown as "leave it alone".
func (rt *Router) replicationOf(n *node) (upstreamRepl, bool) {
	var st upstreamRepl
	resp, err := rt.cfg.Client.Get(n.url + "/v1/replication")
	if err != nil {
		return st, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return st, false
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, false
	}
	return st, true
}

// roleOf probes a node's replication role ("leader" / "follower").
func (rt *Router) roleOf(n *node) (string, bool) {
	st, ok := rt.replicationOf(n)
	return st.Role, ok
}

// postCtl issues one control-plane POST (fence, re-point) under its
// own ctlTimeout deadline, so a black-holed node cannot pin a
// failover for the data-path Client's full timeout. Returns the status
// and a nil error only when the request completed.
func (rt *Router) postCtl(url string, body []byte) (int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), ctlTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, rd)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	return resp.StatusCode, nil
}

// demote fences a node: best-effort POST /v1/demote so it stops
// accepting writes. Returns whether the node acknowledged the fence;
// every attempt lands in router_demotions_total{outcome} so silent
// fence failures show up on dashboards instead of only in logs.
func (rt *Router) demote(g *group, n *node, why string) bool {
	status, err := rt.postCtl(n.url+"/v1/demote", nil)
	if err != nil {
		rt.demotions.With("unreachable").Inc()
		rt.cfg.Logger.Warn("fence: demote unreachable", "group", g.name, "node", n.url, "reason", why, "err", err)
		return false
	}
	if status != http.StatusOK {
		rt.demotions.With("rejected").Inc()
		rt.cfg.Logger.Warn("fence: demote rejected", "group", g.name, "node", n.url, "reason", why, "status", status)
		return false
	}
	rt.demotions.With("ok").Inc()
	rt.cfg.Logger.Warn("fenced node (demoted)", "group", g.name, "node", n.url, "reason", why)
	return true
}

// repoint asks a surviving follower to re-point its replication stream
// at the new leader's ship address (POST /v1/follow). Best-effort: a
// node that predates follow control answers 501 and keeps its old
// behavior (stale stream, not-ready, operator restart).
func (rt *Router) repoint(g *group, n *node, addr, newLeader string) {
	body, _ := json.Marshal(map[string]string{"addr": addr})
	status, err := rt.postCtl(n.url+"/v1/follow", body)
	if err != nil {
		rt.repoints.With("unreachable").Inc()
		rt.cfg.Logger.Warn("re-point unreachable; restart the follower with -follow pointed at the new leader",
			"group", g.name, "follower", n.url, "new_leader", newLeader, "err", err)
		return
	}
	if status != http.StatusOK {
		rt.repoints.With("rejected").Inc()
		rt.cfg.Logger.Warn("re-point rejected; restart the follower with -follow pointed at the new leader",
			"group", g.name, "follower", n.url, "new_leader", newLeader, "status", status)
		return
	}
	rt.repoints.With("ok").Inc()
	rt.cfg.Logger.Warn("re-pointed surviving follower at new leader",
		"group", g.name, "follower", n.url, "new_leader", newLeader, "replicate_addr", addr)
}

func (rt *Router) probeGroup(g *group) {
	g.mu.RLock()
	nodes := append([]*node(nil), g.nodes...)
	leader := g.leader
	g.mu.RUnlock()
	for _, n := range nodes {
		up := rt.probe(n, "/healthz")
		n.healthy.Store(up)
		if up {
			n.fails = 0
			n.ready.Store(rt.probe(n, "/readyz"))
		} else {
			n.fails++
			n.ready.Store(false)
		}
	}
	// Fencing, part 1: a healthy node claiming the leader role without
	// being this group's current leader is a resurrected old leader (a
	// past promotion moved the group on while it was unreachable). Demote
	// it so direct writes cannot fork the log — the router's own routing
	// already ignores it, but nothing else stops a client hitting it.
	for i, n := range nodes {
		if i == leader || !n.healthy.Load() {
			continue
		}
		if role, ok := rt.roleOf(n); ok && role == "leader" {
			rt.demote(g, n, "stale leader resurrected")
		}
	}
	ln := nodes[leader]
	if ln.fails < rt.cfg.FailAfter {
		return
	}
	// Leader declared dead: promote the first healthy follower. Ready is
	// preferred (it has caught up within its lag bound) but not required
	// — a leader that died mid-stream leaves every follower slightly
	// behind and none of them will ever catch up further.
	cand := -1
	for i, n := range nodes {
		if i == leader || !n.healthy.Load() {
			continue
		}
		if n.ready.Load() {
			cand = i
			break
		}
		if cand == -1 {
			cand = i
		}
	}
	if cand == -1 {
		rt.cfg.Logger.Error("leader dead and no follower available", "group", g.name, "leader", ln.url)
		return
	}
	// Fencing, part 2: best-effort demote of the old leader before the
	// replacement is promoted. If the demote lands, the failure was a
	// router<->leader path problem rather than a crash — and the fence is
	// exactly what prevents the two concurrent leaders the promotion
	// below would otherwise create. If it does not land, the node is as
	// dead as FailAfter consecutive probes said; should it ever
	// resurrect, the role check above demotes it on its first healthy
	// probe.
	rt.demote(g, ln, "promoting replacement")
	target := nodes[cand]
	resp, err := rt.cfg.Client.Post(target.url+"/v1/promote", "application/json", nil)
	if err != nil {
		rt.cfg.Logger.Error("promotion request failed", "group", g.name, "node", target.url, "err", err)
		return
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rt.cfg.Logger.Error("promotion rejected", "group", g.name, "node", target.url, "status", resp.StatusCode)
		return
	}
	g.mu.Lock()
	g.leader = cand
	g.mu.Unlock()
	ln.fails = 0 // the old leader restarts its count if it resurrects
	rt.promotions.Inc()
	rt.cfg.Logger.Warn("promoted follower to leader",
		"group", g.name, "dead_leader", ln.url, "new_leader", target.url)
	// Surviving followers still replicate from the dead leader and would
	// sit at not-ready (silence gate) forever. Ask the new leader where
	// it ships from and re-point each survivor over POST /v1/follow; when
	// the new leader does not expose a ship address (replication source
	// disabled, or an old build), fall back to the operator warning.
	st, ok := rt.replicationOf(target)
	for i, n := range nodes {
		if i == cand || i == leader {
			continue
		}
		if ok && st.ReplicateAddr != "" {
			rt.repoint(g, n, st.ReplicateAddr, target.url)
			continue
		}
		rt.cfg.Logger.Warn("surviving follower still replicates from the dead leader; restart it with -follow pointed at the new leader",
			"group", g.name, "follower", n.url, "new_leader", target.url)
	}
}

// --- routing data path ---

// groupFor maps a routing key (model when known, else serial) to its
// replication group. Clients should send the model consistently: a
// request carrying only the serial hashes the serial instead, which
// stays deterministic but may land on a different group than the
// model's — fine for writes (the group's engine keeps its own
// serial->model routing memory) as long as every write for that serial
// does the same.
func (rt *Router) groupFor(model, serial string) *group {
	key := model
	if key == "" {
		key = serial
	}
	return rt.groups[rt.ring.Member(key)]
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg}) //nolint:errcheck
}

// writeJSONOK encodes v fully before writing so an encode failure
// becomes a clean 500 rather than a 200 header stapled to a truncated
// body.
func writeJSONOK(w http.ResponseWriter, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	b = append(b, '\n')
	w.Write(b) //nolint:errcheck
}

// writeAppliedHeader marks a 503 whose write IS durable on the leader
// (a synchronous-commit ack timeout): the router must not replay it.
const writeAppliedHeader = "X-Orf-Write-Applied"

// retryAfter parses a Retry-After seconds value, capped at 2 s so a
// misbehaving upstream cannot stall a router handler goroutine.
func retryAfter(hdr http.Header) (time.Duration, bool) {
	v := hdr.Get("Retry-After")
	if v == "" {
		return 0, false
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0, false
	}
	d := time.Duration(secs) * time.Second
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d, true
}

// forward proxies one request body to node and copies the response
// through, counting route_requests_total{node,outcome}.
func (rt *Router) forward(w http.ResponseWriter, n *node, method, path string, body []byte) {
	status, hdr, respBody, err := rt.do(n, method, path, body)
	// One polite retry on an overloaded-but-honest upstream: a 503 with
	// Retry-After means "again shortly" (mailbox shed, sync-ack timeout).
	// Never retry when the upstream marked the write as already applied
	// — replaying it would double-count the observation.
	if err == nil && status == http.StatusServiceUnavailable && hdr.Get(writeAppliedHeader) == "" {
		if d, ok := retryAfter(hdr); ok {
			rt.retries.Inc()
			select {
			case <-time.After(d):
				status, hdr, respBody, err = rt.do(n, method, path, body)
			case <-rt.stop:
				// Shutting down: hand the client the original 503
				// instead of issuing a pointless retry mid-teardown.
			}
		}
	}
	if err != nil {
		rt.requests.With(n.url, "unreachable").Inc()
		writeError(w, http.StatusBadGateway, fmt.Sprintf("upstream %s: %v", n.url, err))
		return
	}
	outcome := "ok"
	if status >= 500 {
		outcome = "upstream_error"
	}
	rt.requests.With(n.url, outcome).Inc()
	if ct := hdr.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(status)
	w.Write(respBody) //nolint:errcheck
}

// do issues one upstream request and slurps the response.
func (rt *Router) do(n *node, method, path string, body []byte) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, n.url+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, b, nil
}

// readBody slurps a request body under a 16 MiB cap.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, err.Error())
		return nil, false
	}
	return b, true
}

// routeKey is the minimal decode the router needs: where does this
// observation go. The full strict decode happens on the engine node.
type routeKey struct {
	Serial string `json:"serial"`
	Model  string `json:"model"`
}

func (rt *Router) handleObserve(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var k routeKey
	if err := json.Unmarshal(body, &k); err != nil {
		writeError(w, http.StatusBadRequest, "bad request: "+err.Error())
		return
	}
	if k.Model == "" && k.Serial == "" {
		writeError(w, http.StatusBadRequest, "bad request: need model or serial to route")
		return
	}
	g := rt.groupFor(k.Model, k.Serial)
	rt.forward(w, g.leaderNode(), http.MethodPost, "/v1/observe", body)
}

func (rt *Router) handleObserveBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	// Split the batch by destination group, preserving each item's
	// original position, fan the sub-batches out concurrently, and merge
	// the per-item replies back into input order.
	var req struct {
		Observations []json.RawMessage `json:"observations"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request: "+err.Error())
		return
	}
	type part struct {
		g     *group
		items []json.RawMessage
		idxs  []int
	}
	parts := make(map[*group]*part)
	var order []*part
	merged := make([]json.RawMessage, len(req.Observations))
	for i, item := range req.Observations {
		var k routeKey
		if err := json.Unmarshal(item, &k); err != nil || (k.Model == "" && k.Serial == "") {
			e, _ := json.Marshal(map[string]string{
				"serial": k.Serial, "error": "cannot route: need model or serial",
			})
			merged[i] = e
			continue
		}
		g := rt.groupFor(k.Model, k.Serial)
		p := parts[g]
		if p == nil {
			p = &part{g: g}
			parts[g] = p
			order = append(order, p)
		}
		p.items = append(p.items, item)
		p.idxs = append(p.idxs, i)
	}
	var wg sync.WaitGroup
	for _, p := range order {
		wg.Add(1)
		go func(p *part) {
			defer wg.Done()
			sub, _ := json.Marshal(map[string][]json.RawMessage{"observations": p.items})
			n := p.g.leaderNode()
			status, _, respBody, err := rt.do(n, http.MethodPost, "/v1/observe/batch", sub)
			var results []json.RawMessage
			if err == nil && status == http.StatusOK {
				err = json.Unmarshal(respBody, &results)
			}
			if err != nil || len(results) != len(p.idxs) {
				rt.requests.With(n.url, "unreachable").Inc()
				msg := fmt.Sprintf("upstream %s failed", n.url)
				if err != nil {
					msg = fmt.Sprintf("upstream %s: %v", n.url, err)
				} else if status != http.StatusOK {
					msg = fmt.Sprintf("upstream %s: status %d", n.url, status)
				}
				e, _ := json.Marshal(map[string]string{"error": msg})
				for _, i := range p.idxs {
					merged[i] = e
				}
				return
			}
			rt.requests.With(n.url, "ok").Inc()
			for j, i := range p.idxs {
				merged[i] = results[j]
			}
		}(p)
	}
	wg.Wait()
	writeJSONOK(w, merged)
}

func (rt *Router) handlePredict(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var k routeKey
	if err := json.Unmarshal(body, &k); err != nil {
		writeError(w, http.StatusBadRequest, "bad request: "+err.Error())
		return
	}
	if k.Model == "" && k.Serial == "" {
		writeError(w, http.StatusBadRequest, "bad request: need model or serial to route")
		return
	}
	g := rt.groupFor(k.Model, k.Serial)
	n := g.readNode()
	if n == nil {
		writeError(w, http.StatusBadGateway, fmt.Sprintf("group %s has no healthy replica", g.name))
		return
	}
	rt.forward(w, n, http.MethodPost, r.URL.Path, body)
}

// handleRetire broadcasts the retirement to every group's leader:
// retiring an unknown serial is an idempotent no-op, so the group that
// actually tracks the disk drops it and the rest answer 204.
func (rt *Router) handleRetire(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	type res struct {
		status int
		err    error
		node   string
	}
	results := make([]res, len(rt.order))
	var wg sync.WaitGroup
	for i, name := range rt.order {
		n := rt.groups[name].leaderNode()
		wg.Add(1)
		go func(i int, n *node) {
			defer wg.Done()
			status, _, _, err := rt.do(n, http.MethodPost, "/v1/retire", body)
			outcome := "ok"
			if err != nil {
				outcome = "unreachable"
			} else if status >= 500 {
				outcome = "upstream_error"
			}
			rt.requests.With(n.url, outcome).Inc()
			results[i] = res{status: status, err: err, node: n.url}
		}(i, n)
	}
	wg.Wait()
	for _, rr := range results {
		if rr.err != nil {
			writeError(w, http.StatusBadGateway, fmt.Sprintf("upstream %s: %v", rr.node, rr.err))
			return
		}
		if rr.status != http.StatusNoContent && rr.status != http.StatusOK {
			writeError(w, http.StatusBadGateway, fmt.Sprintf("upstream %s: status %d", rr.node, rr.status))
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleFanGet merges a GET endpoint that returns a JSON array (stats,
// models) across one healthy replica per group.
func (rt *Router) handleFanGet(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var mu sync.Mutex
		var merged []json.RawMessage
		var failed []string
		var wg sync.WaitGroup
		for _, name := range rt.order {
			g := rt.groups[name]
			wg.Add(1)
			go func(g *group) {
				defer wg.Done()
				n := g.readNode()
				if n == nil {
					mu.Lock()
					failed = append(failed, g.name)
					mu.Unlock()
					return
				}
				status, _, body, err := rt.do(n, http.MethodGet, path, nil)
				var items []json.RawMessage
				if err == nil && status == http.StatusOK {
					err = json.Unmarshal(body, &items)
				}
				if err != nil || status != http.StatusOK {
					rt.requests.With(n.url, "unreachable").Inc()
					mu.Lock()
					failed = append(failed, g.name)
					mu.Unlock()
					return
				}
				rt.requests.With(n.url, "ok").Inc()
				mu.Lock()
				merged = append(merged, items...)
				mu.Unlock()
			}(g)
		}
		wg.Wait()
		if len(failed) > 0 {
			sort.Strings(failed)
			writeError(w, http.StatusBadGateway,
				fmt.Sprintf("groups unavailable: %s", strings.Join(failed, ", ")))
			return
		}
		// Deterministic output: merge order follows goroutine completion,
		// so sort by the raw JSON (model names dominate the prefix).
		sort.Slice(merged, func(i, j int) bool { return string(merged[i]) < string(merged[j]) })
		if merged == nil {
			merged = []json.RawMessage{}
		}
		writeJSONOK(w, merged)
	}
}

func (rt *Router) handleImportance(w http.ResponseWriter, r *http.Request) {
	model := r.URL.Query().Get("model")
	if model == "" {
		writeError(w, http.StatusBadRequest, "bad request: missing model")
		return
	}
	g := rt.groupFor(model, "")
	n := g.readNode()
	if n == nil {
		writeError(w, http.StatusBadGateway, fmt.Sprintf("group %s has no healthy replica", g.name))
		return
	}
	rt.forward(w, n, http.MethodGet, "/v1/importance?model="+r.URL.Query().Get("model"), nil)
}

// ClusterNode is one node's entry in GET /v1/cluster.
type ClusterNode struct {
	URL     string `json:"url"`
	Leader  bool   `json:"leader"`
	Healthy bool   `json:"healthy"`
	Ready   bool   `json:"ready"`
}

// ClusterGroup is one replication group's entry in GET /v1/cluster.
type ClusterGroup struct {
	Name  string        `json:"name"`
	Nodes []ClusterNode `json:"nodes"`
}

// Topology reports the router's current view of the cluster.
func (rt *Router) Topology() []ClusterGroup {
	out := make([]ClusterGroup, 0, len(rt.order))
	for _, name := range rt.order {
		g := rt.groups[name]
		g.mu.RLock()
		cg := ClusterGroup{Name: g.name}
		for i, n := range g.nodes {
			cg.Nodes = append(cg.Nodes, ClusterNode{
				URL:     n.url,
				Leader:  i == g.leader,
				Healthy: n.healthy.Load(),
				Ready:   n.ready.Load(),
			})
		}
		g.mu.RUnlock()
		out = append(out, cg)
	}
	return out
}

func (rt *Router) handleCluster(w http.ResponseWriter, r *http.Request) {
	writeJSONOK(w, rt.Topology())
}

func (rt *Router) handleReady(w http.ResponseWriter, r *http.Request) {
	for _, name := range rt.order {
		if !rt.groups[name].leaderNode().healthy.Load() {
			writeError(w, http.StatusServiceUnavailable,
				fmt.Sprintf("group %s has no healthy leader", name))
			return
		}
	}
	fmt.Fprintln(w, "ready")
}

func method(m string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != m {
			w.Header().Set("Allow", m)
			writeError(w, http.StatusMethodNotAllowed, "method not allowed")
			return
		}
		h(w, r)
	}
}

// Handler returns the router's http.Handler: the engine API surface
// plus GET /v1/cluster for topology.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/observe", method(http.MethodPost, rt.handleObserve))
	mux.HandleFunc("/v1/observe/batch", method(http.MethodPost, rt.handleObserveBatch))
	mux.HandleFunc("/v1/predict", method(http.MethodPost, rt.handlePredict))
	mux.HandleFunc("/v1/predict/batch", method(http.MethodPost, rt.handlePredict))
	mux.HandleFunc("/v1/retire", method(http.MethodPost, rt.handleRetire))
	mux.HandleFunc("/v1/stats", method(http.MethodGet, rt.handleFanGet("/v1/stats")))
	mux.HandleFunc("/v1/models", method(http.MethodGet, rt.handleFanGet("/v1/models")))
	mux.HandleFunc("/v1/importance", method(http.MethodGet, rt.handleImportance))
	mux.HandleFunc("/v1/cluster", method(http.MethodGet, rt.handleCluster))
	mux.HandleFunc("/healthz", method(http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	}))
	mux.HandleFunc("/readyz", method(http.MethodGet, rt.handleReady))
	mux.HandleFunc("/metrics", method(http.MethodGet, rt.reg.Handler().ServeHTTP))
	return mux
}
