package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/metrics"
	"syscall"
	"time"

	"orfdisk"
	"orfdisk/internal/core"
	"orfdisk/internal/labeling"
	"orfdisk/internal/smart"
	"orfdisk/internal/wal"
)

// The traced run. After the real binaries have been driven, a fixed
// prefix of the same requests is fed, on this goroutine, to twin
// instances of every layer below the HTTP handler, each timed at its
// exported boundary:
//
//	serve      an in-process Server, through Handler().ServeHTTP
//	engine     a bare durable Engine
//	predictor  bare Predictors, one per drive model
//	parts      a Predictor rebuilt from smart.Project/Scaler, a
//	           labeling.Labeler with a timed update callback, core.Forest
//	wal        a standalone wal.WAL fed payloads of the same count and size
//
// A layer's self time is its span minus its child twin's span. The
// engine twins start from a copy of the directory the real orfload
// produced, the predictor twins from that engine's own state, and the
// parts twin absorbs the history itself, so all walk the same trees.

// twinLayersObserve and twinLayersPredict name the spans of the two
// request trees, root first; their self times are the request budgets.
var (
	twinLayersObserve = []string{"serve.observe", "serve.decode", "engine.ingest_batch", "predictor.ingest",
		"smart.project_scale", "labeling.observe", "core.update", "core.predict_proba", "wal.append_batch"}
	twinLayersPredict = []string{"serve.predict_batch", "serve.decode_predict", "engine.score_batch", "predictor.score_batch",
		"smart.project_scale_batch", "core.score_batch"}
)

// Prefix sizes of the traced run: enough requests for a steady mean,
// few enough that five twins of each fit in seconds.
const (
	twinObserveDays = 20
	twinSweeps      = 8
	twinSingles     = 300
	twinMixedDays   = 6
)

// partsTwin is Predictor.Ingest written out against the packages it is
// made of, so each can be timed on its own.
type partsTwin struct {
	features []int
	scaler   *smart.Scaler
	forest   *core.Forest
	labeler  *labeling.Labeler
	scaled   []float64
	free     [][]float64
	relX     [][]float64
	relY     []int
	relBuf   [][]float64

	timed    bool
	updateNS int64 // time inside update callbacks during the current labeler call
	updates  int
	pos, neg int
}

func newPartsTwin() *partsTwin {
	feats := smart.SelectedIndexes()
	p := &partsTwin{
		features: feats,
		scaler:   smart.NewScaler(len(feats)),
		forest:   core.New(len(feats), serveConfig.ORF),
		scaled:   make([]float64, len(feats)),
	}
	label := func(s labeling.Labeled) int {
		if s.Y == smart.Positive {
			p.pos++
			return 1
		}
		p.neg++
		return 0
	}
	p.labeler = labeling.NewLabeler(serveConfig.Horizon, func(s labeling.Labeled) {
		var start time.Time
		if p.timed {
			start = time.Now()
		}
		p.forest.Update(p.scaler.Transform(s.X, p.scaled), label(s))
		p.free = append(p.free, s.X)
		p.updates++
		if p.timed {
			p.updateNS += time.Since(start).Nanoseconds()
		}
	})
	p.labeler.UpdateBatch = func(batch []labeling.Labeled) {
		var start time.Time
		if p.timed {
			start = time.Now()
		}
		for len(p.relBuf) < len(batch) {
			p.relBuf = append(p.relBuf, make([]float64, len(p.features)))
		}
		p.relX, p.relY = p.relX[:0], p.relY[:0]
		for i, s := range batch {
			p.scaler.Transform(s.X, p.relBuf[i])
			p.relX = append(p.relX, p.relBuf[i])
			p.relY = append(p.relY, label(s))
			p.free = append(p.free, s.X)
		}
		p.forest.UpdateBatch(p.relX, p.relY)
		p.updates += len(batch)
		if p.timed {
			p.updateNS += time.Since(start).Nanoseconds()
		}
	}
	return p
}

func (p *partsTwin) project(values []float64) []float64 {
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free = p.free[:n-1]
		for i, j := range p.features {
			x[i] = values[j]
		}
		return x
	}
	return smart.Project(values, p.features)
}

// absorb is Predictor.Absorb: the untimed warm-up over history.
func (p *partsTwin) absorb(o orfdisk.Observation) {
	x := p.project(o.Values)
	p.scaler.Observe(x)
	p.labeler.Observe(o.Serial, x, o.Day)
	if o.Failed {
		p.labeler.Fail(o.Serial)
	}
}

// partTimes are one request's per-row segments added up, in ns.
type partTimes struct {
	smart, labeling, update, predict int64
	rows, predictions, updates       int
}

// ingest is Predictor.Ingest with a clock around each part. It returns
// the score (NaN for a failure report).
func (p *partsTwin) ingest(o orfdisk.Observation, t *partTimes) float64 {
	t0 := time.Now()
	x := p.project(o.Values)
	p.scaler.Observe(x)
	t1 := time.Now()
	p.updateNS = 0
	u0 := p.updates
	p.labeler.Observe(o.Serial, x, o.Day)
	if o.Failed {
		p.labeler.Fail(o.Serial)
	}
	t2 := time.Now()
	t.rows++
	t.smart += t1.Sub(t0).Nanoseconds()
	t.labeling += t2.Sub(t1).Nanoseconds()
	t.update += p.updateNS
	t.updates += p.updates - u0
	if o.Failed {
		return math.NaN()
	}
	xs := p.scaler.Transform(x, p.scaled)
	t3 := time.Now()
	score := p.forest.PredictProba(xs)
	t4 := time.Now()
	t.smart += t3.Sub(t2).Nanoseconds()
	t.predict += t4.Sub(t3).Nanoseconds()
	t.predictions++
	return score
}

// clockPairNS measures what one time.Now pair adds to the interval it
// brackets, so per-row segments can be corrected for it.
func clockPairNS() float64 {
	const n = 200000
	var sum int64
	for i := 0; i < n; i++ {
		a := time.Now()
		sum += time.Since(a).Nanoseconds()
	}
	return float64(sum) / n
}

// twin holds the instances of one traced run.
type twin struct {
	tr    *Tracer
	dir   string
	srv   http.Handler
	engA  *orfdisk.Engine // behind srv
	engB  *orfdisk.Engine
	preds map[string]*orfdisk.Predictor
	parts map[string]*partsTwin
	log   *wal.WAL
	// payload is the WAL record size the real leader wrote per row.
	payload []byte
	pairNS  float64
	req     int

	serveMallocs, engineMallocs uint64
	bodyBytes                   int
	syncMS                      []float64
	scoreMismatch               int
}

// mallocs reads the cumulative heap allocation count without stopping
// the world (runtime.ReadMemStats would, twice per span).
func mallocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

// serveEngineConfig is the EngineConfig orfserve builds from the flags
// the harness passes it (defaults otherwise).
func serveEngineConfig(dir string) orfdisk.EngineConfig {
	return orfdisk.EngineConfig{
		Predictor:      serveConfig,
		DataDir:        dir,
		SnapshotEvery:  time.Hour,
		Mailbox:        256,
		FreezeEvery:    256,
		FreezeInterval: time.Second,
	}
}

// newTwin opens the twin instances on the state the real run started
// from.
func (h *Harness) newTwin() (*twin, error) {
	t := &twin{tr: newTracer(), dir: filepath.Join(h.workDir, "twin"),
		preds: map[string]*orfdisk.Predictor{}, parts: map[string]*partsTwin{}}
	for _, name := range []string{"a", "b"} {
		if err := copyDir(h.seedDir, filepath.Join(t.dir, name)); err != nil {
			return nil, err
		}
	}
	var err error
	if t.engA, err = orfdisk.NewEngine(serveEngineConfig(filepath.Join(t.dir, "a"))); err != nil {
		return nil, err
	}
	t.srv = orfdisk.NewServerWithEngine(t.engA).Handler()
	if t.engB, err = orfdisk.NewEngine(serveEngineConfig(filepath.Join(t.dir, "b"))); err != nil {
		return nil, err
	}
	for _, m := range t.engB.Models() {
		var buf bytes.Buffer
		if err := t.engB.DumpModel(m, &buf); err != nil {
			return nil, err
		}
		if t.preds[m], err = orfdisk.LoadPredictorState(&buf); err != nil {
			return nil, err
		}
	}
	for _, o := range h.corpus.History {
		p := t.parts[o.Model]
		if p == nil {
			p = newPartsTwin()
			t.parts[o.Model] = p
		}
		p.absorb(o.Observation)
	}
	for _, p := range t.parts {
		p.timed = true
		p.updates, p.pos, p.neg = 0, 0, 0
	}
	if t.log, err = wal.Open(wal.Options{Dir: filepath.Join(t.dir, "wal")}); err != nil {
		return nil, err
	}
	t.payload = walPayload(h.res)
	t.pairNS = clockPairNS()
	return t, nil
}

// walPayload is a record of the size the real writer logged per row in
// the run just driven (wal.bytes_per_row minus the WAL's own 16-byte
// record header): the standalone WAL twins are fed these.
func walPayload(res *RunResult) []byte {
	size := int(res.PerLayer["wal.bytes_per_row"].Value+0.5) - 16
	if size < 1 {
		size = 200 // a workload that wrote nothing: any plausible size
	}
	return bytes.Repeat([]byte{0xA5}, size)
}

func (t *twin) close() {
	t.engA.Close() //nolint:errcheck // scratch state
	t.engB.Close() //nolint:errcheck
	t.log.Close()  //nolint:errcheck
	for _, p := range t.parts {
		p.forest.Close()
	}
}

// serve runs one request through the in-process server.
func (t *twin) serve(name string, r *Request) (int, *httptest.ResponseRecorder) {
	req := httptest.NewRequest(http.MethodPost, r.Path, bytes.NewReader(r.Body))
	rec := httptest.NewRecorder()
	m0 := mallocs()
	id := t.tr.time(name, t.req, 0, r.Rows, func() { t.srv.ServeHTTP(rec, req) })
	t.serveMallocs += mallocs() - m0
	t.bodyBytes += len(r.Body)
	return id, rec
}

// observe feeds one /v1/observe/batch request to every twin.
func (t *twin) observe(r *Request) error {
	t.req++
	rows := len(r.Obs)
	root, rec := t.serve("serve.observe", r)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("twin server: status %d: %.200s", rec.Code, rec.Body.Bytes())
	}
	// The handler's own decode, repeated: strict encoding/json into
	// BatchRequest, then PackValues per row.
	var decoded int
	t.tr.time("serve.decode", t.req, root, rows, func() {
		dec := json.NewDecoder(bytes.NewReader(r.Body))
		dec.DisallowUnknownFields()
		var br orfdisk.BatchRequest
		if dec.Decode(&br) == nil {
			for _, o := range br.Observations {
				decoded += len(orfdisk.PackValues(o.Norm, o.Raw))
			}
		}
	})
	if decoded != rows*smart.NumFeatures() {
		return fmt.Errorf("twin decode: %d values from %d rows", decoded, rows)
	}

	var results []orfdisk.BatchResult
	m0 := mallocs()
	eng := t.tr.time("engine.ingest_batch", t.req, root, rows, func() { results = t.engB.IngestBatch(r.Obs) })
	t.engineMallocs += mallocs() - m0
	for _, res := range results {
		if res.Err != nil {
			return fmt.Errorf("twin engine: %w", res.Err)
		}
	}

	p := t.preds[r.Model]
	if p == nil {
		p = orfdisk.NewPredictor(serveConfig)
		t.preds[r.Model] = p
	}
	scores := make([]float64, rows)
	var perr error
	pred := t.tr.time("predictor.ingest", t.req, eng, rows, func() {
		for i := range r.Obs {
			pr, err := p.Ingest(r.Obs[i].Observation)
			if err != nil {
				perr = err
				return
			}
			scores[i] = pr.Score
		}
	})
	if perr != nil {
		return fmt.Errorf("twin predictor: %w", perr)
	}

	parts := t.parts[r.Model]
	if parts == nil {
		parts = newPartsTwin()
		parts.timed = true
		t.parts[r.Model] = parts
	}
	var pt partTimes
	start := time.Now()
	for i := range r.Obs {
		s := parts.ingest(r.Obs[i].Observation, &pt)
		if math.Float64bits(s) != math.Float64bits(scores[i]) && !(math.IsNaN(s) && math.IsNaN(scores[i])) {
			t.scoreMismatch++
		}
	}
	// Leaf spans are per-request sums of per-row segments, laid end to
	// end from the moment the parts twin started on this request, each
	// corrected for the clock pair around it.
	fix := func(ns int64, pairs int) time.Duration {
		d := time.Duration(float64(ns) - t.pairNS*float64(pairs))
		if d < 0 {
			d = 0
		}
		return d
	}
	at := start
	leaf := func(name string, parent int, n int, d time.Duration) int {
		id := t.tr.add(name, t.req, parent, n, at, d)
		at = at.Add(d)
		return id
	}
	leaf("smart.project_scale", pred, pt.rows, fix(pt.smart, pt.rows+pt.predictions))
	lab := leaf("labeling.observe", pred, pt.rows, fix(pt.labeling, pt.rows))
	leaf("core.update", lab, pt.updates, fix(pt.update, pt.updates))
	leaf("core.predict_proba", pred, pt.predictions, fix(pt.predict, pt.predictions))

	payloads := make([][]byte, rows)
	for i := range payloads {
		payloads[i] = t.payload
	}
	var werr error
	t.tr.time("wal.append_batch", t.req, eng, rows, func() { _, werr = t.log.AppendBatch(payloads) })
	if werr != nil {
		return fmt.Errorf("twin wal: %w", werr)
	}
	// An fsync on its own: one small dirty record, then Sync.
	if _, err := t.log.Append(t.payload); err != nil {
		return err
	}
	s0 := time.Now()
	if err := t.log.Sync(); err != nil {
		return err
	}
	t.syncMS = append(t.syncMS, time.Since(s0).Seconds()*1e3)
	return nil
}

// frozenParts is the read path rebuilt from parts for one model.
type frozenParts struct {
	fm *orfdisk.FrozenModel
	fz *core.FrozenForest
}

// predict feeds one /v1/predict/batch request to the read-path twins.
// fp must have been frozen from the state the request should see.
func (t *twin) predict(r *Request, fp frozenParts) error {
	t.req++
	rows := len(r.Obs)
	X := make([][]float64, rows)
	for i := range r.Obs {
		X[i] = r.Obs[i].Values
	}
	root, rec := t.serve("serve.predict_batch", r)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("twin server: status %d: %.200s", rec.Code, rec.Body.Bytes())
	}
	var decoded int
	t.tr.time("serve.decode_predict", t.req, root, rows, func() {
		dec := json.NewDecoder(bytes.NewReader(r.Body))
		dec.DisallowUnknownFields()
		var br orfdisk.PredictBatchRequest
		if dec.Decode(&br) == nil {
			for _, it := range br.Items {
				decoded += len(orfdisk.PackValues(it.Norm, it.Raw))
			}
		}
	})
	if decoded != rows*smart.NumFeatures() {
		return fmt.Errorf("twin decode: %d values from %d rows", decoded, rows)
	}
	var serr error
	m0 := mallocs()
	eng := t.tr.time("engine.score_batch", t.req, root, rows, func() { _, serr = t.engB.ScoreBatch(r.Model, X, nil) })
	t.engineMallocs += mallocs() - m0
	if serr != nil {
		return fmt.Errorf("twin engine: %w", serr)
	}
	pred := t.tr.time("predictor.score_batch", t.req, eng, rows, func() { _, serr = fp.fm.ScoreBatchInto(nil, X) })
	if serr != nil {
		return fmt.Errorf("twin predictor: %w", serr)
	}
	parts := t.parts[r.Model]
	dim := len(parts.features)
	proj := make([]float64, dim)
	flat := make([]float64, rows*dim)
	Xs := make([][]float64, rows)
	t.tr.time("smart.project_scale_batch", t.req, pred, rows, func() {
		for i, x := range X {
			for k, j := range parts.features {
				proj[k] = x[j]
			}
			Xs[i] = parts.scaler.Transform(proj, flat[i*dim:(i+1)*dim])
		}
	})
	t.tr.time("core.score_batch", t.req, pred, rows, func() { _, serr = fp.fz.ScoreBatchInto(nil, Xs) })
	return serr
}

// freeze publishes the read-path twins of model from current state and
// reports what each freeze cost.
func (t *twin) freeze(model string) (frozenParts, float64, float64) {
	p0 := time.Now()
	fm := t.preds[model].Freeze()
	pMS := time.Since(p0).Seconds() * 1e3
	c0 := time.Now()
	fz := t.parts[model].forest.Freeze()
	cMS := time.Since(c0).Seconds() * 1e3
	return frozenParts{fm, fz}, pMS, cMS
}

// runTwin is the traced run of the current workload. It fills the
// twin-sourced per-layer metrics and writes the trace file.
func (h *Harness) runTwin(ctx context.Context) error {
	t0 := time.Now()
	res := h.res
	if h.workload == "backfill_recover" {
		if err := h.bulkTwin(ctx); err != nil {
			return err
		}
		res.detail("twin_s", time.Since(t0).Seconds(), "s")
		return nil
	}
	t, err := h.newTwin()
	if err != nil {
		return err
	}
	defer t.close()

	var predFreezeMS, coreFreezeMS []float64
	frozen := map[string]frozenParts{}
	refreeze := func() {
		for m := range t.preds {
			if t.parts[m] == nil {
				continue
			}
			fp, p, c := t.freeze(m)
			frozen[m] = fp
			predFreezeMS = append(predFreezeMS, p)
			coreFreezeMS = append(coreFreezeMS, c)
		}
	}
	// One more real orfserve on the same starting state takes every
	// request of the prefix on ONE connection, each just before the
	// twins take it, so that its handler timer and the twins' spans see
	// the same stretch of the host.
	var real *realServer
	if h.workload != "fleet_day_mixed" {
		if real, err = h.startReal(ctx); err != nil {
			return err
		}
		defer real.stop()
	}
	var oneUS []float64
	refreeze()
	for i := range h.twinReqs {
		r := &h.twinReqs[i]
		if real != nil {
			real.conn.send(ctx, r, &real.tally)
		}
		switch r.Path {
		case "/v1/observe/batch":
			err = t.observe(r)
		case "/v1/predict/batch":
			if h.workload == "fleet_day_mixed" && i > 0 && h.twinReqs[i-1].Path == "/v1/observe/batch" {
				// A day's writes are in: the engine republished on its
				// own cadence; the rebuilt read path follows.
				refreeze()
			}
			err = t.predict(r, frozen[r.Model])
		case "/v1/predict":
			t.req++
			id, rec := t.serve("serve.predict_one", r)
			if rec.Code != http.StatusOK {
				err = fmt.Errorf("twin server: /v1/predict status %d: %.200s", rec.Code, rec.Body.Bytes())
			}
			oneUS = append(oneUS, float64(t.tr.spans[id-1].dur().Nanoseconds())/1e3)
		}
		if err != nil {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}

	times := selfTimes(t.tr.spans)
	perRow := func(d time.Duration, rows int) float64 {
		if rows == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / 1e3 / float64(rows)
	}
	lt := func(name string) *layerTime {
		if v := times[name]; v != nil {
			return v
		}
		return &layerTime{}
	}
	budgets := map[string]budgetJSON{}
	if so := lt("serve.observe"); so.Count > 0 {
		rows := so.Rows
		res.layer("serve.observe_self_us_per_row", perRow(so.Self+lt("serve.decode").Total, rows))
		res.layer("serve.decode_us_per_row", perRow(lt("serve.decode").Total, rows))
		res.layer("engine.ingest_self_us_per_row", perRow(lt("engine.ingest_batch").Self, rows))
		res.layer("predictor.ingest_self_us_per_row", perRow(lt("predictor.ingest").Self, rows))
		res.layer("smart.project_scale_ns_per_row", perRow(lt("smart.project_scale").Total, rows)*1e3)
		res.layer("labeling.observe_ns_per_row", perRow(lt("labeling.observe").Self, rows)*1e3)
		res.layer("core.update_us_per_sample", perRow(lt("core.update").Total, lt("core.update").Rows))
		res.layer("core.predict_proba_us", perRow(lt("core.predict_proba").Total, lt("core.predict_proba").Rows))
		res.layer("wal.append_us_per_row", perRow(lt("wal.append_batch").Total, rows))
		res.layer("wal.sync_ms", median(t.syncMS))
		pending := 0
		for _, p := range t.parts {
			pending += p.labeler.Pending()
		}
		res.layer("labeling.pending", float64(pending))
		budgets["serve.observe"] = budgetOf(times, "serve.observe", twinLayersObserve)
	}
	if sp := lt("serve.predict_batch"); sp.Count > 0 {
		rows := sp.Rows
		res.layer("serve.predict_self_us_per_row", perRow(sp.Self+lt("serve.decode_predict").Total, rows))
		if res.PerLayer["serve.decode_us_per_row"].Value == 0 {
			res.layer("serve.decode_us_per_row", perRow(lt("serve.decode_predict").Total, rows))
		}
		res.layer("engine.score_self_us_per_row", perRow(lt("engine.score_batch").Self, rows))
		res.layer("predictor.score_batch_us_per_row", perRow(lt("predictor.score_batch").Self, rows))
		res.layer("core.score_batch_ns_per_row", perRow(lt("core.score_batch").Total, rows)*1e3)
		if res.PerLayer["smart.project_scale_ns_per_row"].Value == 0 {
			res.layer("smart.project_scale_ns_per_row", perRow(lt("smart.project_scale_batch").Total, rows)*1e3)
		}
		budgets["serve.predict_batch"] = budgetOf(times, "serve.predict_batch", twinLayersPredict)
	}
	res.layer("serve.predict_one_us", median(oneUS))
	res.layer("predictor.freeze_ms", median(predFreezeMS))
	res.layer("core.freeze_ms", median(coreFreezeMS))
	served := lt("serve.observe").Rows + lt("serve.predict_batch").Rows
	if served > 0 {
		res.layer("serve.allocs_per_row", (float64(t.serveMallocs)-float64(t.engineMallocs))/float64(served))
		res.layer("serve.request_bytes_per_row", float64(t.bodyBytes)/float64(served+lt("serve.predict_one").Count))
	}
	// A twin that does not repeat its parent's work faithfully publishes
	// layer shares of some other program: the run is then incorrect.
	if t.scoreMismatch > 0 {
		res.mismatch("twin: the predictor rebuilt from parts disagreed with Predictor on %d scores", t.scoreMismatch)
	}
	for _, b := range negativeSelf(times, h.p.TwinTolerance) {
		res.mismatch("twin: negative self time: %s", b)
	}

	if h.workload == "fleet_day_mixed" {
		if err := h.groupTwin(t); err != nil {
			return err
		}
	} else if err := h.transport(ctx, real, times); err != nil {
		return err
	}
	path, err := t.tr.write(h.outDir, h.workload, h.seed, budgets)
	if err != nil {
		return err
	}
	res.note("trace written to %s (%d spans)", path, len(t.tr.spans))
	res.detail("twin_s", time.Since(t0).Seconds(), "s")
	return nil
}

// realServer is the real orfserve a traced run sends its prefix to.
type realServer struct {
	node  *node
	conn  *Conn
	tally Tally
}

func (h *Harness) startReal(ctx context.Context) (*realServer, error) {
	dir := filepath.Join(h.workDir, "transport")
	if err := copyDir(h.seedDir, dir); err != nil {
		return nil, err
	}
	ports, err := freePorts(1)
	if err != nil {
		return nil, err
	}
	srv := serveNode("transport", ports[0], dir)
	if err := h.startNode(srv); err != nil {
		return nil, err
	}
	r := &realServer{node: srv, conn: newConn(srv.addr)}
	if _, err := h.ready(ctx, srv); err != nil {
		r.stop()
		return nil, err
	}
	return r, nil
}

func (r *realServer) stop() {
	r.conn.Close()
	r.node.proc.Signal(syscall.SIGKILL)
	<-r.node.proc.done
}

// transport compares what the real server's own handler timer
// (http_request_seconds) saw over the prefix with the two things measured
// around it. The in-process serve span over the same requests must be
// within h.p.HandlerTolerance of it, or the layer budget is not the real
// server's: that is the independent check of the twin (self times are
// differences, so their sum equals the root by construction and checks
// nothing). What the client waited beyond the handler is transport:
// net/http plus loopback.
func (h *Harness) transport(ctx context.Context, real *realServer, times map[string]*layerTime) error {
	if real.tally.Failed > 0 {
		return fmt.Errorf("transport run: %s", real.tally.FirstErr)
	}
	sc, err := scrapeMetrics(ctx, real.node.addr)
	if err != nil {
		return err
	}
	path, root := "/v1/observe/batch", "serve.observe"
	if h.workload == "predict_sweep" {
		path, root = "/v1/predict/batch", "serve.predict_batch"
	}
	var clientS float64
	n := 0
	for _, l := range real.tally.Lats {
		if l.Path == path {
			clientS += l.Seconds
			n++
		}
	}
	label := fmt.Sprintf("path=%q", path)
	handlerS, count := sc.Sum("http_request_seconds_sum", label), sc.Sum("http_request_seconds_count", label)
	span := times[root]
	if n == 0 || int(count) != n || span == nil || span.Count != n {
		return fmt.Errorf("transport run: client sent %d %s requests, server timed %v, twin %+v", n, path, count, span)
	}
	res := h.res
	res.layer("transport.us_per_req", (clientS-handlerS)/float64(n)*1e6)
	res.detail("transport_client_mean_us", clientS/float64(n)*1e6, "us")
	res.detail("transport_handler_mean_us", handlerS/float64(n)*1e6, "us")
	ratio := span.Total.Seconds() / handlerS
	res.detail("serve_twin_over_handler", ratio, "ratio")
	if math.Abs(ratio-1) > h.p.HandlerTolerance {
		res.mismatch("twin: the in-process %s span is %.3f of the real server's handler time over the same %d requests, beyond %.0f%%",
			root, ratio, n, h.p.HandlerTolerance*100)
	}
	if clientS < handlerS {
		res.mismatch("transport.us_per_req is negative: the client waited %.6fs, the server's handlers took %.6fs", clientS, handlerS)
	}
	return nil
}
