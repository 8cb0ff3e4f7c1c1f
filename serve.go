package orfdisk

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"orfdisk/internal/metrics"
)

// Server exposes an Engine behind an HTTP API, the deployment form a
// data center would actually run: collectors POST daily SMART
// snapshots, the engine's per-model shard workers update the online
// forests, and every snapshot is answered with the live risk
// prediction. Requests for different drive models are processed in
// parallel; overload on one model's mailbox sheds with 503 instead of
// queueing unboundedly.
//
// Endpoints:
//
//	POST /v1/observe        {serial, model, day, failed, norm:{id:val}, raw:{id:val}}
//	                        -> {serial, day, score, risky, final}
//	POST /v1/observe/batch  {observations:[...]} -> [{serial, day, score, risky, final, error?}]
//	POST /v1/predict        {model|serial, norm, raw, values?}
//	                        -> {model, score, risky, updates_behind, snapshot_age_seconds}
//	POST /v1/predict/batch  {model, items:[{serial?, norm, raw, values?}...]}
//	                        -> {model, updates_behind, snapshot_age_seconds, results:[...]}
//	POST /v1/retire         {serial}
//	GET  /v1/stats          -> per-model forest statistics
//	GET  /v1/models         -> live shards (model, tracked disks, updates)
//	GET  /v1/importance?model=M -> ranked feature importance
//	GET  /v1/replication    -> {role, applied_seq, lag_records, lag_seconds, ...}
//	POST /v1/promote        promote a follower replica to leader (idempotent)
//	POST /v1/demote         fence this instance: stop accepting writes (idempotent)
//	POST /v1/follow         {addr} re-point this follower at a new leader
//	GET  /healthz           -> 200 ok (process is up)
//	GET  /readyz            -> 200 ready, or 503 {"error": reason} while a
//	                           follower's replication lag exceeds its limit
//	GET  /metrics           -> Prometheus text exposition
//
// On a follower replica (EngineConfig.Follower) the write endpoints
// (/v1/observe, /v1/observe/batch, /v1/retire) answer 409 Conflict with
// ErrNotLeader; the read path stays fully live, serving warm frozen
// snapshots whose staleness is the replication lag plus the freeze
// cadence.
//
// The /v1/predict endpoints are the fleet-dashboard read path: pure
// reads served from each model's published frozen snapshot (no WAL
// append, no labeling-queue rotation, no shard mailbox hop, no locks),
// so scoring throughput scales with reader cores independently of
// ingest. Scores may trail ingest by up to the publication cadence
// (EngineConfig.FreezeEvery / FreezeInterval); every response carries
// updates_behind and snapshot_age_seconds so callers see the staleness
// they got.
//
// Request bodies are limited to 1 MiB — except /v1/observe/batch, which
// has its own configurable byte and item limits (SetBatchLimits; 413 on
// oversize bodies, 400 on too many items) — and decoded strictly
// (unknown fields are rejected). All errors are JSON: {"error": "..."}.
//
// Every endpoint is instrumented: http_requests_total{path,code} and
// http_request_seconds{path} land in the engine's metrics registry
// alongside the engine_*, wal_* and engine_model_* families, all served
// at GET /metrics. Requests are logged through the engine's logger at
// Debug (5xx at Warn).
type Server struct {
	eng *Engine
	log *slog.Logger

	batchMaxBytes int64
	batchMaxItems int

	requests *metrics.CounterVec
	latency  *metrics.HistogramVec
}

// maxBodyBytes caps every request body read by the server, except
// POST /v1/observe/batch which carries many observations and gets its
// own (larger, configurable) cap.
const maxBodyBytes = 1 << 20

// Batch endpoint defaults; override with SetBatchLimits.
const (
	// DefaultBatchMaxBytes is the default POST /v1/observe/batch body
	// cap (8 MiB — roughly 10k observations with full catalog vectors).
	DefaultBatchMaxBytes = 8 << 20
	// DefaultBatchMaxItems is the default per-request observation limit.
	DefaultBatchMaxItems = 4096
)

// NewServer creates a Server around a fresh non-durable Engine with the
// given predictor configuration. Use NewServerWithEngine for a durable
// (WAL + snapshot) deployment.
func NewServer(cfg Config) *Server {
	eng, err := NewEngine(EngineConfig{Predictor: cfg})
	if err != nil {
		// Unreachable: engine creation without a DataDir cannot fail.
		panic(err)
	}
	return NewServerWithEngine(eng)
}

// NewServerWithEngine wraps an existing engine (typically a durable one
// created with EngineConfig.DataDir). The server shares the engine's
// metrics registry and logger.
func NewServerWithEngine(e *Engine) *Server {
	reg := e.MetricsRegistry()
	return &Server{
		eng:           e,
		log:           e.log,
		batchMaxBytes: DefaultBatchMaxBytes,
		batchMaxItems: DefaultBatchMaxItems,
		requests: reg.CounterVec("http_requests_total",
			"HTTP requests served, by endpoint and status code.", "path", "code"),
		latency: reg.HistogramVec("http_request_seconds",
			"HTTP request latency in seconds, by endpoint.", nil, "path"),
	}
}

// SetBatchLimits tunes POST /v1/observe/batch: maxBytes caps the request
// body (oversize requests get 413), maxItems caps observations per
// request (larger batches get 400). Non-positive values keep the current
// setting. Call before Handler; the limits are read per-request without
// locking.
func (s *Server) SetBatchLimits(maxBytes int64, maxItems int) {
	if maxBytes > 0 {
		s.batchMaxBytes = maxBytes
	}
	if maxItems > 0 {
		s.batchMaxItems = maxItems
	}
}

// Engine returns the serving engine behind the API.
func (s *Server) Engine() *Engine { return s.eng }

// Close drains the engine (final snapshot included when durable).
func (s *Server) Close() error { return s.eng.Close() }

// ObservationRequest is the POST /v1/observe payload (and the element
// type of POST /v1/observe/batch).
type ObservationRequest struct {
	Serial string          `json:"serial"`
	Model  string          `json:"model"`
	Day    int             `json:"day"`
	Failed bool            `json:"failed"`
	Norm   map[int]float64 `json:"norm"`
	Raw    map[int]float64 `json:"raw"`
	// Values optionally supplies the full 48-feature catalog vector
	// directly, overriding Norm/Raw.
	Values []float64 `json:"values,omitempty"`
}

func (r ObservationRequest) fleetObservation() FleetObservation {
	values := r.Values
	if values == nil {
		values = PackValues(r.Norm, r.Raw)
	}
	return FleetObservation{
		Model: r.Model,
		Observation: Observation{
			Serial: r.Serial, Day: r.Day, Failed: r.Failed, Values: values,
		},
	}
}

// PredictionResponse is the POST /v1/observe reply.
type PredictionResponse struct {
	Serial string  `json:"serial"`
	Day    int     `json:"day"`
	Score  float64 `json:"score"`
	Risky  bool    `json:"risky"`
	Final  bool    `json:"final"`
}

func predictionResponse(pred Prediction) PredictionResponse {
	resp := PredictionResponse{
		Serial: pred.Serial, Day: pred.Day, Risky: pred.Risky, Final: pred.Final,
	}
	if !pred.Final { // NaN is not valid JSON
		resp.Score = pred.Score
	}
	return resp
}

// BatchRequest is the POST /v1/observe/batch payload.
type BatchRequest struct {
	Observations []ObservationRequest `json:"observations"`
}

// BatchItemResponse is one element of the POST /v1/observe/batch reply.
type BatchItemResponse struct {
	PredictionResponse
	Error string `json:"error,omitempty"`
}

// ModelInfo is one live shard's entry in GET /v1/models.
type ModelInfo struct {
	Model        string `json:"model"`
	TrackedDisks int    `json:"tracked_disks"`
	Updates      int64  `json:"updates"`
}

// Handler returns the http.Handler serving the API, /metrics included.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.handle(mux, http.MethodPost, "/v1/observe", s.handleObserve)
	s.handle(mux, http.MethodPost, "/v1/observe/batch", s.handleObserveBatch)
	s.handle(mux, http.MethodPost, "/v1/predict", s.handlePredict)
	s.handle(mux, http.MethodPost, "/v1/predict/batch", s.handlePredictBatch)
	s.handle(mux, http.MethodPost, "/v1/retire", s.handleRetire)
	s.handle(mux, http.MethodGet, "/v1/stats", s.handleStats)
	s.handle(mux, http.MethodGet, "/v1/models", s.handleModels)
	s.handle(mux, http.MethodGet, "/v1/importance", s.handleImportance)
	s.handle(mux, http.MethodGet, "/v1/replication", s.handleReplication)
	s.handle(mux, http.MethodPost, "/v1/promote", s.handlePromote)
	s.handle(mux, http.MethodPost, "/v1/demote", s.handleDemote)
	s.handle(mux, http.MethodPost, "/v1/follow", s.handleFollow)
	s.handle(mux, http.MethodGet, "/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.handle(mux, http.MethodGet, "/readyz", s.handleReady)
	s.handle(mux, http.MethodGet, "/metrics", s.eng.MetricsRegistry().Handler().ServeHTTP)
	return mux
}

// statusWriter captures the status code a handler writes so the
// middleware can label metrics and logs with it.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// handle registers h for exactly one method, answering anything else
// with a JSON 405 and an Allow header (the default mux 405 is plain
// text, and only for patterns that declare a method), and wraps it in
// the metrics/logging middleware: count and time every request by the
// registered pattern — never by the raw URL, which would explode label
// cardinality.
func (s *Server) handle(mux *http.ServeMux, method, pattern string, h http.HandlerFunc) {
	hist := s.latency.With(pattern)
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		if r.Method != method {
			sw.Header().Set("Allow", method)
			writeError(sw, http.StatusMethodNotAllowed, "method not allowed")
		} else {
			h(sw, r)
		}
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		elapsed := time.Since(start)
		s.requests.With(pattern, strconv.Itoa(sw.status)).Inc()
		hist.Observe(elapsed.Seconds())
		lvl := slog.LevelDebug
		if sw.status >= 500 {
			lvl = slog.LevelWarn
		}
		s.log.Log(r.Context(), lvl, "http request",
			"method", r.Method, "path", pattern, "status", sw.status,
			"elapsed", elapsed, "remote", r.RemoteAddr)
	})
}

// decodeBody strictly decodes a JSON request body capped at the default
// single-request size.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	return decodeBodyCapped(w, r, v, maxBodyBytes)
}

// decodeBodyCapped strictly decodes a JSON request body capped at limit
// bytes.
func decodeBodyCapped(w http.ResponseWriter, r *http.Request, v any, limit int64) error {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func writeDecodeError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("body exceeds %d bytes", tooBig.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, "bad request: "+err.Error())
}

// ingestStatus maps an engine ingest error to an HTTP status.
func ingestStatus(err error) int {
	if errors.Is(err, ErrBusy) || errors.Is(err, ErrSyncUnacked) {
		return http.StatusServiceUnavailable
	}
	if errors.Is(err, ErrNotLeader) {
		// 409: the request is fine, this replica's role is the conflict.
		// Routers retry against the leader.
		return http.StatusConflict
	}
	return http.StatusUnprocessableEntity
}

// writeIngestError maps a write-path engine error onto the wire. The
// 503s carry Retry-After so routers and loaders back off instead of
// hot-looping on a saturated shard; a synchronous-commit timeout
// additionally marks the response X-Orf-Write-Applied, because the
// record IS durable on this leader — a blind retry would apply it
// twice.
func writeIngestError(w http.ResponseWriter, err error) {
	status := ingestStatus(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	if errors.Is(err, ErrSyncUnacked) {
		w.Header().Set("X-Orf-Write-Applied", "true")
	}
	writeError(w, status, err.Error())
}

// handleReady answers readiness probes: distinct from /healthz (which
// only proves the process is up), /readyz reports whether this instance
// should receive traffic. A follower that has not caught up to within
// its configured lag answers 503 so load balancers keep it out of
// rotation until replication converges.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	ok, reason := s.eng.Ready()
	if !ok {
		writeError(w, http.StatusServiceUnavailable, reason)
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleReplication(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.eng.Replication())
}

// handlePromote flips a follower into a leader (a no-op on a leader, so
// retried promotions are safe). The caller — a routing tier's failover,
// or an operator — is responsible for fencing the old leader first.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	s.eng.Promote()
	writeJSON(w, s.eng.Replication())
}

// handleDemote fences this instance: it refuses writes immediately and
// reports not-ready until restarted as a real follower. The routing
// tier calls it on a suspect old leader around a promotion so a
// resurrected process cannot fork the log with direct writes.
func (s *Server) handleDemote(w http.ResponseWriter, r *http.Request) {
	s.eng.Demote()
	writeJSON(w, s.eng.Replication())
}

// handleFollow re-points this follower's replication stream at a new
// leader address — the routing tier calls it on surviving followers
// after a promotion so they resume shipping from the new leader
// without a process restart. A leader answers 409.
func (s *Server) handleFollow(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Addr string `json:"addr"`
	}
	if err := decodeBody(w, r, &req); err != nil {
		writeDecodeError(w, err)
		return
	}
	if req.Addr == "" {
		writeError(w, http.StatusBadRequest, "bad request: missing addr")
		return
	}
	if err := s.eng.Follow(req.Addr); err != nil {
		writeError(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, s.eng.Replication())
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	var req ObservationRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeDecodeError(w, err)
		return
	}
	if req.Serial == "" {
		writeError(w, http.StatusBadRequest, "bad request: missing serial")
		return
	}
	pred, err := s.eng.Ingest(req.fleetObservation())
	if err != nil {
		writeIngestError(w, err)
		return
	}
	writeJSON(w, predictionResponse(pred))
}

func (s *Server) handleObserveBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decodeBodyCapped(w, r, &req, s.batchMaxBytes); err != nil {
		writeDecodeError(w, err)
		return
	}
	if len(req.Observations) > s.batchMaxItems {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch carries %d observations, limit %d",
				len(req.Observations), s.batchMaxItems))
		return
	}
	batch := make([]FleetObservation, len(req.Observations))
	for i, o := range req.Observations {
		batch[i] = o.fleetObservation()
	}
	results := s.eng.IngestBatch(batch)
	out := make([]BatchItemResponse, len(results))
	for i, res := range results {
		if res.Err != nil {
			out[i] = BatchItemResponse{
				PredictionResponse: PredictionResponse{
					Serial: req.Observations[i].Serial, Day: req.Observations[i].Day,
				},
				Error: res.Err.Error(),
			}
			continue
		}
		out[i] = BatchItemResponse{PredictionResponse: predictionResponse(res.Prediction)}
	}
	// A synchronous-commit timeout fails the whole batch's guarantee at
	// once; surface it at the response level too (503 + Retry-After) so
	// clients that only look at the status back off, while the per-item
	// body still reports exactly which records are durable-but-unacked.
	status := http.StatusOK
	for i := range results {
		if errors.Is(results[i].Err, ErrSyncUnacked) {
			status = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", "1")
			w.Header().Set("X-Orf-Write-Applied", "true")
			break
		}
	}
	writeJSONStatus(w, status, out)
}

func (s *Server) handleRetire(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Serial string `json:"serial"`
	}
	if err := decodeBody(w, r, &req); err != nil {
		writeDecodeError(w, err)
		return
	}
	if req.Serial == "" {
		writeError(w, http.StatusBadRequest, "bad request: missing serial")
		return
	}
	if err := s.eng.Retire(req.Serial); err != nil {
		writeIngestError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// ModelStats is one model's entry in GET /v1/stats.
type ModelStats struct {
	Model    string `json:"model"`
	Updates  int64  `json:"updates"`
	PosSeen  int64  `json:"positives_seen"`
	NegSeen  int64  `json:"negatives_seen"`
	Replaced int64  `json:"trees_replaced"`
	Nodes    int    `json:"nodes"`
	Tracked  int    `json:"tracked_disks"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.eng.Stats())
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	out := []ModelInfo{}
	for _, ms := range s.eng.Stats() {
		out = append(out, ModelInfo{
			Model:        ms.Model,
			TrackedDisks: ms.Tracked,
			Updates:      ms.Updates,
		})
	}
	writeJSON(w, out)
}

func (s *Server) handleImportance(w http.ResponseWriter, r *http.Request) {
	model := r.URL.Query().Get("model")
	imp, ok := s.eng.Importance(model)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown model")
		return
	}
	writeJSON(w, imp)
}

func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

// writeJSONStatus encodes v fully before touching the connection: an
// encode failure becomes a clean 500 instead of a 200 header glued to
// a partial body with a plaintext error appended (the old
// Encode-then-http.Error sequence).
func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b = append(b, '\n')
	w.Write(b) //nolint:errcheck // header already sent; nothing to salvage
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg}) //nolint:errcheck
}
