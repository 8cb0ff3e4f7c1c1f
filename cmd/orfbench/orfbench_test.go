package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"orfdisk/internal/dataset"
	"orfdisk/internal/smart"
)

// testCorpus builds a small Corpus in process, through the same CSV
// reader and indexer a real run uses: orfgen's generator, orfgen's
// writer, readRows, index.
func testCorpus(t *testing.T, seed uint64) *Corpus {
	t.Helper()
	gens := make([]*dataset.Generator, 0, 2)
	for i, p := range []dataset.Profile{dataset.STA(0.003).WithMonths(4), dataset.STB(0.003).WithMonths(4)} {
		g, err := dataset.New(p, seed+uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		gens = append(gens, g)
	}
	path := filepath.Join(t.TempDir(), "fleet.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := smart.NewWriter(f, nil)
	err = dataset.StreamMerged(gens, func(s smart.Sample) error {
		if s.Day < historyDays {
			return nil
		}
		return w.Write(s)
	})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	c := &Corpus{}
	var bad int
	if c.Live, bad, err = readRows([]string{path}); err != nil || bad != 0 {
		t.Fatalf("readRows: %v, %d malformed", err, bad)
	}
	c.index()
	return c
}

func corpusHash(c *Corpus) string {
	var groups [][]Request
	for _, m := range c.Models {
		groups = append(groups, c.observeRequests(m, 0, len(c.Days), 64))
		groups = append(groups, sweepRequests(m, c.dayVectors(m, 0), 32, c.Days[0]))
	}
	return hashRequests(groups...)
}

func TestSameSeedSameRequestBytes(t *testing.T) {
	a, b, other := corpusHash(testCorpus(t, 7)), corpusHash(testCorpus(t, 7)), corpusHash(testCorpus(t, 8))
	if a != b {
		t.Errorf("same seed, different request bytes: %s vs %s", a, b)
	}
	if a == other {
		t.Errorf("different seeds, same request bytes: %s", a)
	}
}

// The bodies must decode, strictly, to the rows they were rendered
// from: the documented norm/raw map shape, lossless floats.
func TestObserveBodyRoundTrips(t *testing.T) {
	c := testCorpus(t, 3)
	reqs := c.observeRequests(c.Models[0], 0, 2, 50)
	for _, r := range reqs {
		dec := json.NewDecoder(bytes.NewReader(r.Body))
		dec.DisallowUnknownFields()
		var br struct {
			Observations []struct {
				Serial string          `json:"serial"`
				Model  string          `json:"model"`
				Day    int             `json:"day"`
				Failed bool            `json:"failed"`
				Norm   map[int]float64 `json:"norm"`
				Raw    map[int]float64 `json:"raw"`
			} `json:"observations"`
		}
		if err := dec.Decode(&br); err != nil {
			t.Fatalf("body does not decode: %v", err)
		}
		if len(br.Observations) != r.Rows || r.Rows != len(r.Obs) {
			t.Fatalf("body holds %d rows, request says %d", len(br.Observations), r.Rows)
		}
		for i, o := range br.Observations {
			want := r.Obs[i]
			if o.Serial != want.Serial || o.Model != want.Model || o.Day != want.Day || o.Failed != want.Failed {
				t.Fatalf("row %d: %+v, want %+v", i, o, want)
			}
			for k, f := range smart.Catalog() {
				m := o.Norm
				if f.Kind == smart.Raw {
					m = o.Raw
				}
				if got := m[f.Attr.ID]; math.Float64bits(got) != math.Float64bits(want.Values[k]) {
					t.Fatalf("row %d feature %s: %v, want %v", i, f.Name(), got, want.Values[k])
				}
			}
		}
	}
}

func TestTailPercentileRule(t *testing.T) {
	asc := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n, perMille int
		value       float64
	}{
		{1, 500, 1},
		{99, 500, 50},      // p90 would leave 9 beyond
		{100, 900, 90},     // exactly 10 beyond
		{999, 900, 900},    // p99 would leave 9 beyond
		{1000, 990, 990},   // exactly 10 beyond
		{9999, 990, 9900},  // p99.9 would leave 9 beyond
		{10000, 999, 9990}, // exactly 10 beyond
	} {
		p, v := tailPercentile(asc(tc.n))
		if p != tc.perMille || v != tc.value {
			t.Errorf("n=%d: p%v = %v, want p%v = %v", tc.n, float64(p)/10, v, float64(tc.perMille)/10, tc.value)
		}
		if p > 500 && beyond(tc.n, p) < 10 {
			t.Errorf("n=%d: p%v has only %d samples beyond it", tc.n, float64(p)/10, beyond(tc.n, p))
		}
	}
	if _, v := tailPercentile(nil); v != 0 {
		t.Errorf("empty sample: %v", v)
	}
}

func TestChunkedTailIgnoresOneBadStretch(t *testing.T) {
	var lats []Lat
	for i := 0; i < 500; i++ {
		s := 0.010
		if i%8 == 7 {
			s = 0.012 // a steady eighth is slower: the real tail
		}
		if i >= 200 && i < 300 {
			s = 0.050 // a neighbour took the cores for one stretch
		}
		lats = append(lats, Lat{Rows: 256, Seconds: s, Path: "/p"})
	}
	lats = append(lats, Lat{Rows: 7, Seconds: 9, Path: "/p"}) // a partial batch: not a latency sample
	got := summarize(lats, "/p", 256)
	if got.N != 500 || got.Chunks != 5 || got.TailPct != 900 {
		t.Fatalf("summary %+v, want 500 samples in 5 chunks at p90", got)
	}
	if got.P50 != 10 || got.Tail != 12 {
		t.Errorf("p50 %v ms tail %v ms, want 10 and 12", got.P50, got.Tail)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Errorf("quartiles %v %v median %v, want 2.75 8.25 5.5", q1, q3, median(xs))
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("three values: %v %v, want 1 3", q1, q3)
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread %v, want 1", got)
	}
}

func TestSpanSelfTimes(t *testing.T) {
	tr := newTracer()
	at := tr.t0
	span := func(name string, req, parent int, ms int) int {
		id := tr.add(name, req, parent, 10, at, time.Duration(ms)*time.Millisecond)
		at = at.Add(time.Duration(ms) * time.Millisecond)
		return id
	}
	for req := 1; req <= 2; req++ {
		serve := span("serve", req, 0, 100)
		span("decode", req, serve, 60)
		eng := span("engine", req, serve, 30)
		span("wal", req, eng, 10)
		span("predictor", req, eng, 15)
	}
	times := selfTimes(tr.spans)
	for name, want := range map[string][2]time.Duration{
		"serve":     {200 * time.Millisecond, 20 * time.Millisecond},
		"decode":    {120 * time.Millisecond, 120 * time.Millisecond},
		"engine":    {60 * time.Millisecond, 10 * time.Millisecond},
		"wal":       {20 * time.Millisecond, 20 * time.Millisecond},
		"predictor": {30 * time.Millisecond, 30 * time.Millisecond},
	} {
		got := times[name]
		if got == nil || got.Total != want[0] || got.Self != want[1] || got.Count != 2 || got.Rows != 20 {
			t.Errorf("%s: %+v, want total %v self %v", name, got, want[0], want[1])
		}
	}
	layers := []string{"serve", "decode", "engine", "wal", "predictor"}
	b := budgetOf(times, "serve", layers)
	if b.RootNS != b.SumNS {
		t.Errorf("self times add up to %d ns, the root is %d ns", b.SumNS, b.RootNS)
	}
	var shares float64
	for _, s := range b.Shares {
		shares += s
	}
	if math.Abs(shares-1) > 1e-9 {
		t.Errorf("shares add up to %v", shares)
	}
	if bad := negativeSelf(times, 0.05); len(bad) != 0 {
		t.Errorf("no layer is negative, got %v", bad)
	}

	// A child twin slower than its parent: the detector must say so, but
	// only past the tolerance.
	eng := span("engine", 3, 0, 100)
	span("wal", 3, eng, 104)
	if bad := negativeSelf(selfTimes(tr.spans[len(tr.spans)-2:]), 0.05); len(bad) != 0 {
		t.Errorf("4%% over is within tolerance, got %v", bad)
	}
	span("predictor", 3, eng, 10)
	bad := negativeSelf(selfTimes(tr.spans[len(tr.spans)-3:]), 0.05)
	if len(bad) != 1 || !strings.HasPrefix(bad[0], "engine:") {
		t.Errorf("14%% over must be flagged on engine, got %v", bad)
	}

	// Below the root the tolerance is a share of the parent's total: a
	// small layer whose twin children run 4 ms over it is 20% negative on
	// its own 20 ms, yet 4% of the request it is a part of.
	tr = newTracer()
	at = tr.t0
	serve := span("serve", 4, 0, 100)
	eng = span("engine", 4, serve, 20)
	span("wal", 4, eng, 24)
	if bad := negativeSelf(selfTimes(tr.spans), 0.05); len(bad) != 0 {
		t.Errorf("4%% of the parent is within tolerance, got %v", bad)
	}
	span("predictor", 4, eng, 2)
	if bad := negativeSelf(selfTimes(tr.spans), 0.05); len(bad) != 1 || !strings.HasPrefix(bad[0], "engine:") {
		t.Errorf("6%% of the parent must be flagged on engine, got %v", bad)
	}
}

const cannedBefore = `# HELP http_requests_total HTTP requests served, by endpoint and status code.
# TYPE http_requests_total counter
http_requests_total{path="/v1/observe/batch",code="200"} 10
http_requests_total{path="/readyz",code="503"} 4
http_request_seconds_bucket{path="/v1/observe/batch",le="0.005"} 3
http_request_seconds_sum{path="/v1/observe/batch"} 0.5
http_request_seconds_count{path="/v1/observe/batch"} 10
wal_append_bytes_total 1000
engine_model_nodes{model="ST4000DM000"} 700
engine_model_nodes{model="A model with spaces"} 5
`

const cannedAfter = `http_requests_total{path="/v1/observe/batch",code="200"} 110
http_requests_total{path="/v1/observe/batch",code="503"} 2
http_requests_total{path="/readyz",code="503"} 4
http_request_seconds_bucket{path="/v1/observe/batch",le="0.005"} 30
http_request_seconds_sum{path="/v1/observe/batch"} 1.75
http_request_seconds_count{path="/v1/observe/batch"} 112
http_request_seconds_sum{path="/v1/predict/batch"} 9
wal_append_bytes_total 22400
wal_fsync_total 100
engine_model_nodes{model="ST4000DM000"} 900
engine_model_nodes{model="A model with spaces"} 6
`

func TestScrapeDelta(t *testing.T) {
	before, err := parseScrape([]byte(cannedBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseScrape([]byte(cannedAfter))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := after[`http_request_seconds_bucket{path="/v1/observe/batch",le="0.005"}`]; ok {
		t.Error("histogram buckets must be dropped")
	}
	d := before.Delta(after)
	for _, tc := range []struct {
		what string
		got  float64
		want float64
	}{
		{"observe handler seconds", d.Sum("http_request_seconds_sum", `path="/v1/observe/batch"`), 1.25},
		{"a family first seen mid-run counts from zero", d.Sum("http_request_seconds_sum", `path="/v1/predict/batch"`), 9},
		{"all handler seconds", d.Sum("http_request_seconds_sum"), 10.25},
		{"wal bytes", d.Sum("wal_append_bytes_total"), 21400},
		{"fsyncs", d.Sum("wal_fsync_total"), 100},
		{"non-2xx: two new 503s, the four readyz 503s predate the window", d.non2xx(), 2},
		{"a gauge is read after, not as a delta", after.Sum("engine_model_nodes"), 906},
		{"label values with spaces parse", after.Sum("engine_model_nodes", `model="A model with spaces"`), 6},
		{"a prefix of a family name is another family", d.Sum("http_request_seconds"), 0},
	} {
		if math.Abs(tc.got-tc.want) > 1e-9 {
			t.Errorf("%s: %v, want %v", tc.what, tc.got, tc.want)
		}
	}
	if _, err := parseScrape([]byte("wal_fsync_total notanumber\n")); err == nil {
		t.Error("an unparseable sample must be an error, not a silent zero")
	}
}

// A closed loop sends the next request only after the previous reply:
// against an upstream that takes 2 ms, one connection never has two
// requests in flight, two connections never more than two, and every
// latency the client records holds the full 2 ms.
func TestClosedLoopLatencyAccounting(t *testing.T) {
	const delay = 2 * time.Millisecond
	var inflight, peak atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inflight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		body, _ := io.ReadAll(r.Body)
		time.Sleep(delay)
		inflight.Add(-1)
		// One "serial" per row, as the real endpoints answer.
		fmt.Fprint(w, strings.Repeat(`{"serial":"x"}`, bytes.Count(body, []byte("row"))))
	}))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")

	reqs := make([]Request, 40)
	for i := range reqs {
		reqs[i] = Request{Path: "/p", Body: []byte("row row row"), Rows: 3}
	}

	one := newConn(addr)
	defer one.Close()
	var acked atomic.Int64
	one.acked = &acked
	var tally Tally
	start := time.Now()
	one.runSerial(context.Background(), reqs, &tally)
	wall := time.Since(start)
	if peak.Load() != 1 {
		t.Errorf("one closed-loop connection had %d requests in flight", peak.Load())
	}
	if tally.Requests != 40 || tally.Rows != 120 || tally.Attempted != 120 || tally.Failed != 0 || acked.Load() != 120 {
		t.Errorf("tally %+v acked %d", tally, acked.Load())
	}
	var sum time.Duration
	for _, l := range tally.Lats {
		d := time.Duration(l.Seconds * float64(time.Second))
		if d < delay {
			t.Fatalf("latency %v is shorter than the upstream's %v", d, delay)
		}
		sum += d
	}
	if sum > wall {
		t.Errorf("latencies add up to %v, more than the %v the loop took: requests overlapped", sum, wall)
	}
	if got := summarize(tally.Lats, "/p", 3); got.N != 40 || got.P50 < 2 || got.P50 > 20 {
		t.Errorf("p50 %v ms over %d samples, want a little over 2 ms", got.P50, got.N)
	}

	peak.Store(0)
	two := []*Conn{newConn(addr), newConn(addr)}
	defer two[0].Close()
	defer two[1].Close()
	tallies := []*Tally{{}, {}}
	start = time.Now()
	runShared(context.Background(), two, reqs, tallies, nil)
	wall2 := time.Since(start)
	if peak.Load() != 2 {
		t.Errorf("two closed-loop connections peaked at %d in flight, want 2", peak.Load())
	}
	if tallies[0].Requests+tallies[1].Requests != 40 {
		t.Errorf("shared list: %d + %d requests, want 40", tallies[0].Requests, tallies[1].Requests)
	}
	if wall2 < 20*delay {
		t.Errorf("40 requests of %v on two connections took %v", delay, wall2)
	}

	// A reply that acknowledges fewer rows than sent, a per-item error
	// and a non-2xx are failed operations, never latency-free successes.
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/short":
			fmt.Fprint(w, `{"serial":"x"}`)
		case "/item":
			fmt.Fprint(w, `{"serial":"x"}{"serial":"y","error":"boom"}{"serial":"z"}`)
		default:
			http.Error(w, "no", http.StatusServiceUnavailable)
		}
	}))
	defer bad.Close()
	c := newConn(strings.TrimPrefix(bad.URL, "http://"))
	defer c.Close()
	var bt Tally
	for _, p := range []string{"/short", "/item", "/down"} {
		c.send(context.Background(), &Request{Path: p, Body: []byte("{}"), Rows: 3}, &bt)
	}
	if bt.Attempted != 9 || bt.Failed != 3+1+3 || bt.Rows != 2 {
		t.Errorf("failure accounting %+v, want 9 attempted, 7 failed, 2 acknowledged", bt)
	}
}

func TestJudge(t *testing.T) {
	lower := MetricDef{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := MetricDef{Name: "rows_per_s", Better: "higher", Bound: 0.07}
	steady := func(center float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = center * (1 + 0.002*float64(i-5))
		}
		return xs
	}
	noisy := func(center float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = center * (1 + 0.05*float64(i-5))
		}
		return xs
	}
	for _, tc := range []struct {
		what       string
		def        MetricDef
		a, b       []float64
		gainCounts bool
		want       string
	}{
		{"same numbers", lower, steady(10), steady(10), true, "unchanged"},
		{"12% slower", lower, steady(10), steady(11.2), true, "REGRESSED"},
		{"12% faster on every pair", lower, steady(10), steady(8.8), true, "improved"},
		{"12% faster, but B lost more operations", lower, steady(10), steady(8.8), false, "unchanged"},
		{"throughput down 9%, bound 7%", higher, steady(1000), steady(910), true, "REGRESSED"},
		{"throughput up 9%", higher, steady(1000), steady(1090), true, "improved"},
		// Ten pairs see what one run cannot: inside the bound, but B loses
		// every pair by more than A's own spread.
		{"5% slower on all ten pairs, bound 10%", lower, steady(10), steady(10.5), true, "REGRESSED"},
		{"4% less throughput on all ten pairs, bound 7%", higher, steady(1000), steady(960), true, "REGRESSED"},
		{"5% slower on three runs is inside the bound", lower, steady(10)[:3], steady(10.5)[:3], true, "unchanged"},
		{"spread wider than the bound hides a regression", lower, noisy(10), noisy(11.2), true, "unresolved"},
		{"spread wider than the bound is never 'unchanged'", lower, noisy(10), noisy(10), true, "unresolved"},
		{"one side missing", lower, steady(10), nil, true, "missing"},
		{"single runs within the bound", lower, []float64{10}, []float64{10.4}, true, "unchanged"},
	} {
		if got := judge(tc.def, tc.a, tc.b, tc.gainCounts); got.Verdict != tc.want {
			t.Errorf("%s: %s (worse by %.3f, spread %.3f, %d/%d lost), want %s",
				tc.what, got.Verdict, got.Worse, got.Spread, got.Losses, got.Pairs, tc.want)
		}
	}
}

// A comparison must not read through a broken run: lost operations, an
// oracle mismatch, or sides that ran different seeds or sizes.
func TestCompareRefusesInvalidRuns(t *testing.T) {
	run := func(seed uint64, p50 float64) *RunResult {
		r := newRunResult("observe_stream", seed, false, false)
		r.Correct, r.Attempted = true, 100
		for _, d := range endToEnd {
			r.EndToEnd[d.Name] = Metric{p50, d.Unit}
		}
		return r
	}
	verdictOf := func(a, b *RunResult) (runs string, improved bool) {
		for _, v := range compareFiles(&ResultFile{Runs: []*RunResult{a}}, &ResultFile{Runs: []*RunResult{b}}) {
			if v.Workload != "observe_stream" {
				continue
			}
			if v.Metric == "(runs)" {
				runs = v.Verdict + ": " + v.Why
			}
			improved = improved || v.Verdict == "improved"
		}
		return runs, improved
	}
	if runs, _ := verdictOf(run(1, 10), run(1, 10)); runs != "" {
		t.Errorf("two good runs of one seed: %q", runs)
	}
	lost := run(1, 5)
	lost.Failed, lost.Correct = 3, false
	if runs, improved := verdictOf(run(1, 10), lost); !strings.HasPrefix(runs, "INVALID") || improved {
		t.Errorf("B lost operations: runs row %q, improved %v", runs, improved)
	}
	wrong := run(1, 10)
	wrong.Mismatches, wrong.Correct = []string{"stats differ"}, false
	if runs, _ := verdictOf(wrong, run(1, 10)); !strings.HasPrefix(runs, "INVALID") {
		t.Errorf("A disagreed with the oracle: runs row %q", runs)
	}
	if runs, _ := verdictOf(run(1, 10), run(2, 10)); !strings.HasPrefix(runs, "INVALID") {
		t.Errorf("different seeds: runs row %q", runs)
	}
	short := run(1, 10)
	short.Short = true
	if runs, _ := verdictOf(run(1, 10), short); !strings.HasPrefix(runs, "INVALID") {
		t.Errorf("different sizes: runs row %q", runs)
	}
	var out bytes.Buffer
	if regressed, _ := printVerdicts(&out, compareFiles(&ResultFile{Runs: []*RunResult{run(1, 10)}}, &ResultFile{Runs: []*RunResult{lost}})); regressed == 0 {
		t.Errorf("an invalid comparison must fail:\n%s", out.String())
	}
}

// BENCHMARK.json is written by hand to the driver's contract; the
// harness must agree with it name for name.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Command    []string                     `json:"command"`
		Paths      []string                     `json:"paths"`
		RunSeconds int                          `json:"run_seconds"`
		Workloads  []struct{ Name, Why string } `json:"workloads"`
		EndToEnd   []MetricDef                  `json:"end_to_end"`
		PerLayer   []MetricDef                  `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bm); err != nil {
		t.Fatal(err)
	}
	if bm.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the harness's sizes are frozen for %d", bm.RunSeconds, runSeconds)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, the harness has %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bm.Workloads[i].Name != w.Name || bm.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, the harness has %+v", i, bm.Workloads[i], w)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, got, want []MetricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, the harness has %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: %+v, the harness has %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bm.EndToEnd, endToEnd)
	same("per_layer", bm.PerLayer, perLayer)
	setup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end must hold setup_s, unit s, better lower")
	}
}

// A child that outlives its phase is killed and reported, and the
// harness does not hang behind it.
func TestHungChildIsKilled(t *testing.T) {
	sleep := "/bin/sleep"
	if _, err := os.Stat(sleep); err != nil {
		t.Skip("no /bin/sleep")
	}
	ps := newProcs("/bin", t.TempDir())
	p, err := ps.Start("hung", "sleep", "60")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := p.Wait(ctx); err == nil {
		t.Error("a hung child must be reported")
	}
	if !p.Exited() || time.Since(start) > 5*time.Second {
		t.Errorf("hung child not reaped promptly (exited %v after %v)", p.Exited(), time.Since(start))
	}
	q, err := ps.Start("second", "sleep", "60")
	if err != nil {
		t.Fatal(err)
	}
	ps.KillAll()
	if !q.Exited() {
		t.Error("KillAll must reap every live child")
	}
	if got := ps.Stamps(); len(got) != 2 || got[0].Args[0] != "sleep" || got[0].Args[1] != "60" {
		t.Errorf("stamps %+v", got)
	}
}
