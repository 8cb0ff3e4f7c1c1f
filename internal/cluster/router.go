package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"slices"
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
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
	}
}

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
	status, _, _, err := rt.call(http.MethodGet, n, path, nil, 0)
	return err == nil && status == http.StatusOK
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
	status, _, body, err := rt.call(http.MethodGet, n, "/v1/replication", nil, 0)
	ok := err == nil && status == http.StatusOK && json.Unmarshal(body, &st) == nil
	return st, ok
}

// control issues one control-plane POST (fence, re-point) under its own
// ctlTimeout deadline, so a black-holed node cannot pin a failover for
// the data-path Client's full timeout, and counts its outcome (ok,
// rejected, unreachable) in c. The attribute says what went wrong, for
// the caller's log line.
func (rt *Router) control(c *metrics.CounterVec, n *node, path string, body []byte) (string, slog.Attr) {
	status, _, _, err := rt.call(http.MethodPost, n, path, body, ctlTimeout)
	outcome, cause := "ok", slog.Attr{}
	if err != nil {
		outcome, cause = "unreachable", slog.Any("err", err)
	} else if status != http.StatusOK {
		outcome, cause = "rejected", slog.Int("status", status)
	}
	c.With(outcome).Inc()
	return outcome, cause
}

// demote fences a node: best-effort POST /v1/demote so it stops
// accepting writes. Every attempt lands in
// router_demotions_total{outcome} so silent fence failures show up on
// dashboards instead of only in logs.
func (rt *Router) demote(g *group, n *node, why string) {
	if outcome, cause := rt.control(rt.demotions, n, "/v1/demote", nil); outcome != "ok" {
		rt.cfg.Logger.Warn("fence: demote "+outcome, "group", g.name, "node", n.url, "reason", why, cause)
		return
	}
	rt.cfg.Logger.Warn("fenced node (demoted)", "group", g.name, "node", n.url, "reason", why)
}

// repoint asks a surviving follower to re-point its replication stream
// at the new leader's ship address (POST /v1/follow). Best-effort: a
// node that refuses (it leads) or cannot be reached keeps its stale
// stream and stays not-ready until an operator restarts it.
func (rt *Router) repoint(g *group, n *node, addr, newLeader string) {
	body, _ := json.Marshal(map[string]string{"addr": addr})
	if outcome, cause := rt.control(rt.repoints, n, "/v1/follow", body); outcome != "ok" {
		rt.cfg.Logger.Warn("re-point "+outcome+"; restart the follower with -follow pointed at the new leader",
			"group", g.name, "follower", n.url, "new_leader", newLeader, cause)
		return
	}
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
		if st, ok := rt.replicationOf(n); ok && st.Role == "leader" {
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
	status, _, _, err := rt.call(http.MethodPost, target, "/v1/promote", nil, 0)
	if err != nil {
		rt.cfg.Logger.Error("promotion request failed", "group", g.name, "node", target.url, "err", err)
		return
	}
	if status != http.StatusOK {
		rt.cfg.Logger.Error("promotion rejected", "group", g.name, "node", target.url, "status", status)
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
	// disabled), fall back to the operator warning.
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

// --- upstream calls ---

// call issues one upstream request and slurps the reply. Every request
// the router sends goes through here. The Client's timeout bounds each;
// a positive timeout bounds it further.
func (rt *Router) call(method string, n *node, path string, body []byte, timeout time.Duration) (int, http.Header, []byte, error) {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, method, n.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if method == http.MethodPost {
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

// writeAppliedHeader marks a 503 whose write IS durable on the leader
// (a synchronous-commit ack timeout): the router must not replay it.
const writeAppliedHeader = "X-Orf-Write-Applied"

// reply is one data-path exchange with an upstream node.
type reply struct {
	url    string
	status int
	hdr    http.Header
	body   []byte
	err    error
}

// writeApplied reports a 503 the upstream marked X-Orf-Write-Applied.
func (rp reply) writeApplied() bool {
	return rp.err == nil && rp.status == http.StatusServiceUnavailable && rp.hdr.Get(writeAppliedHeader) != ""
}

// problem says why rp is not one of the wanted statuses; "" when it is.
func (rp reply) problem(want ...int) string {
	if rp.err != nil {
		return fmt.Sprintf("upstream %s: %v", rp.url, rp.err)
	}
	if !slices.Contains(want, rp.status) {
		return fmt.Sprintf("upstream %s: status %d", rp.url, rp.status)
	}
	return ""
}

// errNoReplica stands in for the reply of a group with no node to ask.
var errNoReplica = errors.New("no healthy replica")

// exchange sends one data-path request by the rule every door shares. A
// 503 with Retry-After and without X-Orf-Write-Applied means "again
// shortly" (mailbox shed) and is retried once; a write-applied 503 is
// durable on the leader and is never replayed, which would feed the
// model a duplicate serial-day. route_requests_total counts the outcome:
// unreachable on a transport error, upstream_error on a status >= 500,
// ok otherwise.
func (rt *Router) exchange(method string, n *node, path string, body []byte) reply {
	rp := reply{url: n.url}
	rp.status, rp.hdr, rp.body, rp.err = rt.call(method, n, path, body, 0)
	if rp.err == nil && rp.status == http.StatusServiceUnavailable && !rp.writeApplied() {
		if d, ok := retryAfter(rp.hdr); ok {
			rt.retries.Inc()
			select {
			case <-time.After(d):
				rp.status, rp.hdr, rp.body, rp.err = rt.call(method, n, path, body, 0)
			case <-rt.stop:
				// Shutting down: hand the client the original 503
				// instead of issuing a pointless retry mid-teardown.
			}
		}
	}
	outcome := "ok"
	if rp.err != nil {
		outcome = "unreachable"
	} else if rp.status >= 500 {
		outcome = "upstream_error"
	}
	rt.requests.With(n.url, outcome).Inc()
	return rp
}

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

// passHeaders copies the reply headers a client acts on.
func passHeaders(w http.ResponseWriter, hdr http.Header) {
	for _, k := range []string{"Content-Type", "Retry-After", writeAppliedHeader} {
		if v := hdr.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
}

// relay hands an upstream reply to the client: a transport error as a
// 502, anything else as the upstream's status, headers and body.
func relay(w http.ResponseWriter, rp reply) {
	if rp.err != nil {
		writeError(w, http.StatusBadGateway, rp.problem())
		return
	}
	passHeaders(w, rp.hdr)
	w.WriteHeader(rp.status)
	w.Write(rp.body) //nolint:errcheck
}

// fanOut runs send(0), …, send(n-1) concurrently and returns their
// replies in index order.
func fanOut(n int, send func(i int) reply) []reply {
	out := make([]reply, n)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = send(i)
		}()
	}
	wg.Wait()
	return out
}

// --- routing data path ---

// routeKey is the minimal decode the router needs: where does this
// request go. The full strict decode happens on the engine node.
type routeKey struct {
	Serial string `json:"serial"`
	Model  string `json:"model"`
}

// key is the ring key: the model when known, else the serial. Clients
// should send the model consistently: a request carrying only the
// serial hashes the serial instead, which stays deterministic but may
// land on a different group than the model's — fine for writes (the
// group's engine keeps its own serial->model routing memory) as long as
// every write for that serial does the same.
func (k routeKey) key() string {
	if k.Model != "" {
		return k.Model
	}
	return k.Serial
}

func (rt *Router) groupFor(key string) *group {
	return rt.groups[rt.ring.Member(key)]
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg}) //nolint:errcheck
}

// writeJSON encodes v fully before writing so an encode failure becomes
// a clean 500 rather than a status stapled to a truncated body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b = append(b, '\n')
	w.Write(b) //nolint:errcheck
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

// route forwards one request to the group key hashes to, on the node
// pick chooses: (*group).leaderNode for a write, (*group).readNode for a
// read.
func (rt *Router) route(w http.ResponseWriter, key string, pick func(*group) *node, method, path string, body []byte) {
	g := rt.groupFor(key)
	n := pick(g)
	if n == nil {
		writeError(w, http.StatusBadGateway, fmt.Sprintf("group %s has no healthy replica", g.name))
		return
	}
	relay(w, rt.exchange(method, n, path, body))
}

// routeBody routes a POST by the model or serial its JSON body names.
func (rt *Router) routeBody(pick func(*group) *node) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, ok := readBody(w, r)
		if !ok {
			return
		}
		var k routeKey
		if err := json.Unmarshal(body, &k); err != nil {
			writeError(w, http.StatusBadRequest, "bad request: "+err.Error())
			return
		}
		if k.key() == "" {
			writeError(w, http.StatusBadRequest, "bad request: need model or serial to route")
			return
		}
		rt.route(w, k.key(), pick, http.MethodPost, r.URL.Path, body)
	}
}

func (rt *Router) handleImportance(w http.ResponseWriter, r *http.Request) {
	model := r.URL.Query().Get("model")
	if model == "" {
		writeError(w, http.StatusBadRequest, "bad request: missing model")
		return
	}
	rt.route(w, model, (*group).readNode, http.MethodGet,
		"/v1/importance?"+url.Values{"model": {model}}.Encode(), nil)
}

// handleObserveBatch splits the batch by destination group, preserving
// each item's position, sends the sub-batches concurrently, and merges
// the per-item replies back into input order. A sub-batch that fails
// becomes an error in each of its items' places. One answered 503 with
// X-Orf-Write-Applied is durable and carries its per-item array; it is
// merged like a 200, and makes the whole reply that 503 with its
// headers, as the engine answers a batch it could not get acknowledged.
func (rt *Router) handleObserveBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
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
	byGroup := make(map[*group]*part)
	var parts []*part
	merged := make([]json.RawMessage, len(req.Observations))
	for i, item := range req.Observations {
		var k routeKey
		if err := json.Unmarshal(item, &k); err != nil || k.key() == "" {
			merged[i], _ = json.Marshal(map[string]string{
				"serial": k.Serial, "error": "cannot route: need model or serial",
			})
			continue
		}
		g := rt.groupFor(k.key())
		p := byGroup[g]
		if p == nil {
			p = &part{g: g}
			byGroup[g] = p
			parts = append(parts, p)
		}
		p.items = append(p.items, item)
		p.idxs = append(p.idxs, i)
	}
	replies := fanOut(len(parts), func(i int) reply {
		sub, _ := json.Marshal(map[string][]json.RawMessage{"observations": parts[i].items})
		return rt.exchange(http.MethodPost, parts[i].g.leaderNode(), "/v1/observe/batch", sub)
	})
	status := http.StatusOK
	for i, rp := range replies {
		p := parts[i]
		msg := rp.problem(http.StatusOK)
		if rp.writeApplied() {
			msg, status = "", http.StatusServiceUnavailable
			passHeaders(w, rp.hdr)
		}
		var results []json.RawMessage
		if msg == "" {
			if err := json.Unmarshal(rp.body, &results); err != nil {
				msg = fmt.Sprintf("upstream %s: %v", rp.url, err)
			} else if len(results) != len(p.idxs) {
				msg = fmt.Sprintf("upstream %s: %d results for %d items", rp.url, len(results), len(p.idxs))
			}
		}
		if msg != "" {
			e, _ := json.Marshal(map[string]string{"error": msg})
			for _, i := range p.idxs {
				merged[i] = e
			}
			continue
		}
		for j, i := range p.idxs {
			merged[i] = results[j]
		}
	}
	writeJSON(w, status, merged)
}

// handleRetire broadcasts the retirement to every group's leader:
// retiring an unknown serial is an idempotent no-op, so the group that
// actually tracks the disk drops it and the rest answer 204. A leader
// that applied it without an acknowledgement answers a write-applied
// 503, passed through unless another leader failed outright.
func (rt *Router) handleRetire(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	replies := fanOut(len(rt.order), func(i int) reply {
		return rt.exchange(http.MethodPost, rt.groups[rt.order[i]].leaderNode(), "/v1/retire", body)
	})
	applied := -1
	for i, rp := range replies {
		if rp.writeApplied() {
			applied = i
		} else if msg := rp.problem(http.StatusNoContent, http.StatusOK); msg != "" {
			writeError(w, http.StatusBadGateway, msg)
			return
		}
	}
	if applied >= 0 {
		relay(w, replies[applied])
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleFanGet merges a GET endpoint that returns a JSON array (stats,
// models) across one healthy replica per group.
func (rt *Router) handleFanGet(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		replies := fanOut(len(rt.order), func(i int) reply {
			if n := rt.groups[rt.order[i]].readNode(); n != nil {
				return rt.exchange(http.MethodGet, n, path, nil)
			}
			return reply{err: errNoReplica}
		})
		merged := []json.RawMessage{}
		var failed []string
		for i, rp := range replies {
			var items []json.RawMessage
			if rp.problem(http.StatusOK) != "" || json.Unmarshal(rp.body, &items) != nil {
				failed = append(failed, rt.order[i])
				continue
			}
			merged = append(merged, items...)
		}
		if len(failed) > 0 {
			sort.Strings(failed)
			writeError(w, http.StatusBadGateway,
				fmt.Sprintf("groups unavailable: %s", strings.Join(failed, ", ")))
			return
		}
		// Deterministic output whatever the group order: sort by the raw
		// JSON (model names dominate the prefix).
		sort.Slice(merged, func(i, j int) bool { return string(merged[i]) < string(merged[j]) })
		writeJSON(w, http.StatusOK, merged)
	}
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
	writeJSON(w, http.StatusOK, rt.Topology())
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
	mux.HandleFunc("/v1/observe", method(http.MethodPost, rt.routeBody((*group).leaderNode)))
	mux.HandleFunc("/v1/observe/batch", method(http.MethodPost, rt.handleObserveBatch))
	mux.HandleFunc("/v1/predict", method(http.MethodPost, rt.routeBody((*group).readNode)))
	mux.HandleFunc("/v1/predict/batch", method(http.MethodPost, rt.routeBody((*group).readNode)))
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
