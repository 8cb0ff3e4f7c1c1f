package orfdisk

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := NewServer(Config{Horizon: 2, ORF: ORFConfig{Trees: 3, Seed: 1}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestServerObserveAndStats(t *testing.T) {
	ts := newTestServer(t)
	for day := 0; day < 5; day++ {
		resp := postJSON(t, ts.URL+"/v1/observe", ObservationRequest{
			Serial: "d1", Model: "ST4000", Day: day,
			Norm: map[int]float64{187: 100}, Raw: map[int]float64{187: 0},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("observe status %d", resp.StatusCode)
		}
		var pred PredictionResponse
		if err := json.NewDecoder(resp.Body).Decode(&pred); err != nil {
			t.Fatal(err)
		}
		if pred.Serial != "d1" || pred.Day != day || pred.Final {
			t.Fatalf("prediction %+v", pred)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats []ModelStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].Model != "ST4000" {
		t.Fatalf("stats %+v", stats)
	}
	// Horizon 2, 5 observations -> 3 released negatives.
	if stats[0].NegSeen != 3 || stats[0].Tracked != 1 {
		t.Fatalf("stats %+v", stats[0])
	}
}

func TestServerFailureEvent(t *testing.T) {
	ts := newTestServer(t)
	for day := 0; day < 3; day++ {
		postJSON(t, ts.URL+"/v1/observe", ObservationRequest{
			Serial: "d1", Model: "M", Day: day,
		})
	}
	resp := postJSON(t, ts.URL+"/v1/observe", ObservationRequest{
		Serial: "d1", Model: "M", Day: 3, Failed: true,
	})
	var pred PredictionResponse
	if err := json.NewDecoder(resp.Body).Decode(&pred); err != nil {
		t.Fatal(err)
	}
	if !pred.Final || pred.Score != 0 {
		t.Fatalf("failure prediction %+v", pred)
	}
}

func TestServerValidation(t *testing.T) {
	ts := newTestServer(t)
	// Missing serial.
	if resp := postJSON(t, ts.URL+"/v1/observe", ObservationRequest{Model: "M"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing serial -> %d", resp.StatusCode)
	}
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/observe", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON -> %d", resp.StatusCode)
	}
	// Unknown disk without model.
	if resp := postJSON(t, ts.URL+"/v1/observe", ObservationRequest{Serial: "ghost"}); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("missing model -> %d", resp.StatusCode)
	}
	// Wrong-width explicit values.
	if resp := postJSON(t, ts.URL+"/v1/observe", ObservationRequest{
		Serial: "x", Model: "M", Values: []float64{1, 2},
	}); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("short values -> %d", resp.StatusCode)
	}
}

func TestServerRetire(t *testing.T) {
	ts := newTestServer(t)
	postJSON(t, ts.URL+"/v1/observe", ObservationRequest{Serial: "d1", Model: "M", Day: 0})
	resp := postJSON(t, ts.URL+"/v1/retire", map[string]string{"serial": "d1"})
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("retire -> %d", resp.StatusCode)
	}
	var stats []ModelStats
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats[0].Tracked != 0 {
		t.Fatalf("retired disk still tracked: %+v", stats)
	}
}

func TestServerImportance(t *testing.T) {
	ts := newTestServer(t)
	postJSON(t, ts.URL+"/v1/observe", ObservationRequest{Serial: "d1", Model: "M", Day: 0})
	resp, err := http.Get(ts.URL + "/v1/importance?model=M")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("importance -> %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/importance?model=NOPE")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model -> %d", resp.StatusCode)
	}
}

func TestServerHealthz(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz -> %d", resp.StatusCode)
	}
}

func TestServerObserveBatch(t *testing.T) {
	ts := newTestServer(t)
	var req BatchRequest
	for day := 0; day < 3; day++ {
		for m := 0; m < 2; m++ {
			req.Observations = append(req.Observations, ObservationRequest{
				Serial: fmt.Sprintf("disk-%d", m),
				Model:  fmt.Sprintf("M%d", m),
				Day:    day,
			})
		}
	}
	// One invalid entry must fail alone, not the batch.
	req.Observations = append(req.Observations, ObservationRequest{Serial: "ghost"})
	resp := postJSON(t, ts.URL+"/v1/observe/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var out []BatchItemResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(req.Observations) {
		t.Fatalf("%d results for %d observations", len(out), len(req.Observations))
	}
	for i, item := range out[:len(out)-1] {
		if item.Error != "" {
			t.Fatalf("item %d failed: %s", i, item.Error)
		}
		if item.Serial != req.Observations[i].Serial || item.Day != req.Observations[i].Day {
			t.Fatalf("item %d misrouted: %+v", i, item)
		}
	}
	if out[len(out)-1].Error == "" {
		t.Fatal("invalid batch entry accepted")
	}
}

func TestServerModels(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var models []ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(models) != 0 {
		t.Fatalf("fresh server lists models: %+v", models)
	}
	postJSON(t, ts.URL+"/v1/observe", ObservationRequest{Serial: "d1", Model: "MA", Day: 0})
	postJSON(t, ts.URL+"/v1/observe", ObservationRequest{Serial: "d2", Model: "MB", Day: 0})
	resp, err = http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 || models[0].Model != "MA" || models[1].Model != "MB" {
		t.Fatalf("models %+v", models)
	}
	if models[0].TrackedDisks != 1 {
		t.Fatalf("models %+v", models)
	}
}

func TestServerMethodNotAllowedJSON(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/observe")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/observe -> %d", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
		t.Fatalf("Allow header %q", allow)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("405 body is not JSON: %v", err)
	}
	if body["error"] == "" {
		t.Fatalf("405 body %v lacks error field", body)
	}
}

func TestServerRejectsUnknownFields(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/observe", "application/json",
		bytes.NewReader([]byte(`{"serial":"d1","model":"M","bogus":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field -> %d, want 400", resp.StatusCode)
	}
}

func TestServerBodyTooLarge(t *testing.T) {
	ts := newTestServer(t)
	big := make([]byte, maxBodyBytes+1024)
	for i := range big {
		big[i] = ' '
	}
	copy(big, `{"serial":"d1","model":"M"`)
	big[len(big)-1] = '}'
	resp, err := http.Post(ts.URL+"/v1/observe", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body -> %d, want 413", resp.StatusCode)
	}
}

func TestServerConcurrentObserve(t *testing.T) {
	ts := newTestServer(t)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			var firstErr error
			for day := 0; day < 30; day++ {
				body, _ := json.Marshal(ObservationRequest{
					Serial: fmt.Sprintf("disk-%d", g), Model: "M", Day: day,
				})
				r, err := http.Post(ts.URL+"/v1/observe", "application/json",
					bytes.NewReader(body))
				if err != nil {
					firstErr = err
					break
				}
				r.Body.Close()
				if r.StatusCode != http.StatusOK && firstErr == nil {
					firstErr = fmt.Errorf("status %d", r.StatusCode)
				}
			}
			done <- firstErr
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestServerMetricsEndpoint drives a durable server end to end and
// checks that /metrics reflects the traffic: HTTP request counts by
// path and code, engine ingest counters, WAL appends, snapshot
// counters, and the per-model gauges — in valid Prometheus text.
func TestServerMetricsEndpoint(t *testing.T) {
	dir := t.TempDir()
	eng, err := NewEngine(EngineConfig{
		Predictor: Config{Horizon: 2, ORF: ORFConfig{Trees: 3, Seed: 1}},
		DataDir:   dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWithEngine(eng)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	for day := 0; day < 4; day++ {
		resp := postJSON(t, ts.URL+"/v1/observe", ObservationRequest{
			Serial: "d1", Model: "ST4000", Day: day,
			Norm: map[int]float64{187: 100}, Raw: map[int]float64{187: 0},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("observe status %d", resp.StatusCode)
		}
	}
	// One rejected request so a non-200 code series exists.
	resp := postJSON(t, ts.URL+"/v1/observe", map[string]any{"bogus": true})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad observe status %d", resp.StatusCode)
	}
	if err := eng.Snapshot(); err != nil {
		t.Fatal(err)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", mresp.StatusCode)
	}
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content-type %q", ct)
	}
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)

	for _, want := range []string{
		`http_requests_total{path="/v1/observe",code="200"} 4`,
		`http_requests_total{path="/v1/observe",code="400"} 1`,
		"engine_ingests_total 4",
		"wal_append_records_total 6", // 4 rows, the model's state record, the pass record
		"engine_snapshots_total 1",
		`engine_model_updates{model="ST4000"}`,
		`engine_model_tracked_disks{model="ST4000"} 1`,
		"engine_shards 1",
		"wal_segments 1",
		"# TYPE http_request_seconds histogram",
		`http_request_seconds_bucket{path="/v1/observe",le="+Inf"} 5`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full /metrics output:\n%s", text)
	}

	// Structural sanity: every non-comment line is `name{labels} value`
	// with a parseable float value.
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
	}
}

// TestServerBatchLimits covers the batch endpoint's dedicated caps: a
// body larger than the default 1 MiB but under the batch cap succeeds, a
// body over the batch cap gets 413, and a batch with too many items gets
// 400 — without touching the engine.
func TestServerBatchLimits(t *testing.T) {
	srv := NewServer(Config{Horizon: 2, ORF: ORFConfig{Trees: 3, Seed: 1}})
	srv.SetBatchLimits(2<<20, 8)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	// The padding is intra-object whitespace so the decoder must read
	// through it; what matters here is that a body over the 1 MiB global
	// cap but under the batch cap succeeds.
	prefix := `{"observations":[{"serial":"d1","model":"M","day":0,` +
		`"norm":{"187":100},"raw":{"187":0}}]`
	body := prefix + strings.Repeat(" ", maxBodyBytes) + "}"
	resp, err := http.Post(ts.URL+"/v1/observe/batch", "application/json",
		strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch body over 1 MiB but under batch cap -> %d, want 200", resp.StatusCode)
	}

	// Over the batch cap: 413.
	big := prefix + strings.Repeat(" ", 3<<20) + "}"
	resp, err = http.Post(ts.URL+"/v1/observe/batch", "application/json",
		strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("batch body over batch cap -> %d, want 413", resp.StatusCode)
	}

	// Too many items: 400, and no observation is applied.
	obs := make([]ObservationRequest, 9)
	for i := range obs {
		obs[i] = ObservationRequest{
			Serial: fmt.Sprintf("over-%d", i), Model: "M", Day: 0,
			Norm: map[int]float64{187: 100},
		}
	}
	resp = postJSON(t, ts.URL+"/v1/observe/batch", BatchRequest{Observations: obs})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversize item count -> %d, want 400", resp.StatusCode)
	}
	var errResp map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&errResp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errResp["error"], "limit 8") {
		t.Fatalf("error message %q does not name the limit", errResp["error"])
	}

	// At the cap: accepted.
	resp = postJSON(t, ts.URL+"/v1/observe/batch", BatchRequest{Observations: obs[:8]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch at item cap -> %d, want 200", resp.StatusCode)
	}
}
