package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"orfdisk"
)

// workloads names the four traffic mixes and why each exists; the same
// text goes into BENCHMARK.json.
var workloads = []struct{ Name, Why string }{
	{"observe_stream", "write-only steady state: serve decode, engine, WAL, labeling and forest update work; the frozen kernel, replica and cluster do not"},
	{"predict_sweep", "read-only sweeps on a warmed server: serve decode/encode and the frozen kernel work; WAL, labeling and forest update must record nothing"},
	{"fleet_day_mixed", "router + sync-ack leader + follower, writes beside reads per fleet-day: the only workload where cluster and replica work"},
	{"backfill_recover", "orfload bulk path, then a fixed WAL suffix replayed after SIGKILL and a clean restart: CSV, gunzip, backfill merge, WAL read, snapshot codec"},
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// phase is what one workload's timed part produced.
type phase struct {
	rowsPerS float64 // the workload's throughput
	cpuPerM  float64 // CPU seconds of the processes under test per million rows
	sendS    float64 // seconds the load generator spent sending
	loadgenS float64 // harness CPU over those seconds
	tally    Tally   // every request of the timed part
	latPath  string  // the request class the latency slots report ...
	latRows  int     // ... and its full batch size
	// applied lists, per model and in order, the live rows the servers
	// acknowledged: what the oracle must repeat.
	applied map[string][]orfdisk.FleetObservation
	hash    string
	// totalRowsPerS is rows over the whole sending window, for
	// comparison with the windowed median; windows counts the windows.
	totalRowsPerS      float64
	windows            int
	p50MS, tailMS      float64 // of the latPath requests
	recoverS, restartS float64 // medians over the crash and restart cycles
}

// sampleEvery is the window the timed part is cut into. Throughput and
// CPU cost are the medians over windows, not totals over the run: a
// neighbour that steals the cores for a second moves two windows, not
// the result.
const sampleEvery = 500 * time.Millisecond

// sample is the state at one window boundary.
type sample struct {
	t    time.Time
	rows int64
	cpu  float64
}

// sampler watches one timed part.
type sampler struct {
	s       *sut
	acked   atomic.Int64
	samples []sample
	self0   float64
	stop    chan struct{}
	done    chan struct{}
}

func (sm *sampler) take() {
	sm.samples = append(sm.samples, sample{time.Now(), sm.acked.Load(), sm.s.cpuSeconds()})
}

// startSampler opens the sending window.
func startSampler(s *sut) *sampler {
	sm := &sampler{s: s, self0: selfCPUSeconds(), stop: make(chan struct{}), done: make(chan struct{})}
	sm.take()
	go func() {
		defer close(sm.done)
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				sm.take()
			case <-sm.stop:
				return
			}
		}
	}()
	return sm
}

// twoConns opens the load generator's two closed-loop connections.
func twoConns(addr string) []*Conn { return []*Conn{newConn(addr), newConn(addr)} }

// watch makes the connections' acknowledged rows feed the sampler.
func (sm *sampler) watch(conns []*Conn) {
	for _, c := range conns {
		c.acked = &sm.acked
	}
}

// finish closes the sending window and fills the phase's throughput
// and cost from the windows. The closing partial window is dropped
// unless it is all there is.
func (sm *sampler) finish(ph *phase, tallies ...*Tally) {
	close(sm.stop)
	<-sm.done
	full := len(sm.samples)
	sm.take()
	first, last := sm.samples[0], sm.samples[len(sm.samples)-1]
	ph.sendS = last.t.Sub(first.t).Seconds()
	ph.loadgenS = selfCPUSeconds() - sm.self0
	for _, t := range tallies {
		ph.tally.merge(t)
	}
	windows := sm.samples
	if full >= 4 {
		windows = sm.samples[:full]
	}
	var rates, costs []float64
	for i := 1; i < len(windows); i++ {
		a, b := windows[i-1], windows[i]
		if rows := float64(b.rows - a.rows); rows > 0 {
			rates = append(rates, rows/b.t.Sub(a.t).Seconds())
			costs = append(costs, (b.cpu-a.cpu)/rows*1e6)
		}
	}
	ph.rowsPerS, ph.cpuPerM = median(rates), median(costs)
	ph.totalRowsPerS = float64(last.rows-first.rows) / ph.sendS
	ph.windows = len(rates)
}

// run executes the workload end to end and fills h.res.
func (h *Harness) run(ctx context.Context) error {
	res := h.res
	if err := h.prepare(ctx); err != nil {
		return err
	}

	// backfill_recover measures orfload itself: further runs, each into
	// an empty directory of its own, before the one the set-up keeps.
	var loads []loadRun
	wctx, cancel := context.WithTimeout(ctx, phaseTimeout)
	for i := 1; i < h.p.Loads; i++ {
		dir := filepath.Join(h.workDir, fmt.Sprintf("load%d", i))
		ld, err := h.orfload(wctx, fmt.Sprintf("orfload%d", i), dir)
		if err != nil {
			cancel()
			return err
		}
		loads = append(loads, ld)
		os.RemoveAll(dir)
	}
	s, ld, readyS, err := h.warm(wctx)
	cancel()
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer h.teardown(s)
	loads = append(loads, ld)
	res.e2e("setup_s", ld.wallS+readyS)
	res.detail("ready_s", readyS, "s")
	res.Attempted += len(loads) // each orfload run is one operation

	// Timed part.
	before := h.scrapeAll(ctx, s)
	cpu0 := map[*node]float64{}
	for _, n := range s.nodes {
		cpu0[n] = n.proc.CPUSeconds()
	}
	pctx, cancel := context.WithTimeout(ctx, phaseTimeout)
	ph, err := h.timed(pctx, s, loads)
	if pctx.Err() != nil {
		res.note("FAILED: the timed part passed its %v limit; requests not yet sent are counted as failed", phaseTimeout)
	}
	cancel()
	if err != nil {
		return err
	}
	diskBytes := s.dataBytes()
	for _, n := range s.nodes {
		// Which process the cost sits in: the router, the leader or the
		// follower on the mixed workload.
		res.detail("cpu_s."+n.name, n.proc.CPUSeconds()-cpu0[n], "s")
	}
	after := h.scrapeAll(ctx, s)
	rss := s.peakRSSMB()

	res.Attempted += ph.tally.Attempted
	res.Failed += ph.tally.Failed
	if ph.tally.FirstErr != "" {
		res.note("first request error: %s", ph.tally.FirstErr)
	}
	res.RequestHash = ph.hash
	res.Counts["requests"] = int64(ph.tally.Requests)
	res.Counts["rows_acknowledged"] = int64(ph.tally.Rows)

	lat := summarize(ph.tally.Lats, ph.latPath, ph.latRows)
	ph.p50MS, ph.tailMS = lat.P50, lat.Tail
	res.Counts["latency_samples"] = int64(lat.N)
	res.Counts["tail_per_mille"] = int64(lat.TailPct)
	res.Counts["tail_chunks"] = int64(lat.Chunks)
	res.detail("tail_whole_run_ms", lat.Whole, "ms")
	res.Counts["tail_whole_run_per_mille"] = int64(lat.WholePct)
	res.note("loadgen.p50_ms and loadgen.tail_ms are over %d %s requests of %d rows; the tail is the median over %d chunks of each chunk's p%g",
		lat.N, ph.latPath, ph.latRows, lat.Chunks, float64(lat.TailPct)/10)

	if h.workload == "backfill_recover" {
		rss += ld.proc.PeakRSSMB()
	}
	res.e2e("rss_mb", rss)
	// Everything the servers hold on disk, per row they were ever given:
	// the loaded history's snapshot plus the log of the live rows.
	ingested := h.corpus.HistoryRows + rowsOf(ph.applied)
	res.e2e("disk_bytes_per_row", float64(diskBytes)/float64(len(s.servers))/float64(ingested))
	res.detail("timed_s", ph.sendS, "s")
	res.detail("rows_per_s_whole_run", ph.totalRowsPerS, "rows/s")
	res.Counts["windows"] = int64(ph.windows)
	res.Counts["rows_ingested_total"] = int64(ingested)

	// Crash and restart the cycled node on the state the run left.
	lctx, cancel := context.WithTimeout(ctx, phaseTimeout)
	defer cancel()
	cycleOps := max(2*h.p.Cycles, 1)
	res.Attempted += cycleOps
	recoverS, restartS, err := h.cycle(lctx, s.cycle)
	if err != nil {
		res.fail(cycleOps-len(recoverS)-len(restartS), "crash and restart of %s: %v", s.cycle.name, err)
	}
	ph.recoverS, ph.restartS = median(recoverS), median(restartS)
	// A node that was never restarted still serves the scoring snapshot
	// of its last republication, up to -freeze-every updates behind its
	// state; a restart republishes, so the probe below sees final state
	// on every node.
	for _, sv := range s.servers {
		if sv != s.cycle {
			if _, err := h.restart(lctx, sv); err != nil {
				res.fail(1, "restart of %s: %v", sv.name, err)
			}
		}
	}

	// Oracle: outside every timed window.
	v0 := time.Now()
	for _, m := range h.corpus.Models {
		if err := h.oracle.Observe(ph.applied[m], h.p.ObserveBatch); err != nil {
			return err
		}
	}
	if err := h.replicasLevel(lctx, s); err != nil {
		res.Mismatches = append(res.Mismatches, err.Error())
	}
	for _, sv := range s.servers {
		res.Mismatches = append(res.Mismatches, h.oracle.Check(lctx, sv.name, sv.addr, h.probes)...)
	}
	res.detail("verify_s", time.Since(v0).Seconds(), "s")

	h.scrapeLayers(s, before, after, ph)
	return nil
}

func rowsOf(applied map[string][]orfdisk.FleetObservation) int {
	n := 0
	for _, rows := range applied {
		n += len(rows)
	}
	return n
}

// timed dispatches to the workload's timed part.
func (h *Harness) timed(ctx context.Context, s *sut, loads []loadRun) (*phase, error) {
	switch h.workload {
	case "observe_stream":
		return h.observeStream(ctx, s, h.p.ObserveDays)
	case "predict_sweep":
		return h.predictSweep(ctx, s)
	case "fleet_day_mixed":
		return h.fleetDayMixed(ctx, s)
	case "backfill_recover":
		return h.backfillRecover(ctx, s, loads)
	}
	return nil, fmt.Errorf("unknown workload %q", h.workload)
}

// observeStream replays live days as /v1/observe/batch on two
// closed-loop connections partitioned by drive model, so each model's
// order on the server is total and the oracle can repeat it.
func (h *Harness) observeStream(ctx context.Context, s *sut, days int) (*phase, error) {
	c := h.corpus
	if days > len(c.Days) {
		days = len(c.Days)
	}
	ph := &phase{latPath: "/v1/observe/batch", latRows: h.p.ObserveBatch, applied: map[string][]orfdisk.FleetObservation{}}
	// One connection per drive model, the dominant model first.
	lanes := make([][]Request, 2)
	for i, m := range c.Models {
		lanes[i] = c.observeRequests(m, 0, days, h.p.ObserveBatch)
		ph.applied[m] = c.ByModel[m][:c.DayRows[m][days-1][1]]
	}
	ph.hash = hashRequests(lanes...)
	if h.trace {
		// The traced prefix: the first days of both lanes, day by day.
		last := c.Days[min(twinObserveDays, days)-1]
		for _, lane := range lanes {
			for _, r := range lane {
				if r.Day <= last {
					h.twinReqs = append(h.twinReqs, r)
				}
			}
		}
		sort.SliceStable(h.twinReqs, func(a, b int) bool { return h.twinReqs[a].Day < h.twinReqs[b].Day })
	}
	h.res.Counts["bodies_prepared_ahead"] = int64(len(lanes[0]) + len(lanes[1]))
	h.res.Counts["days_replayed"] = int64(days)

	tallies := []*Tally{{}, {}}
	conns := twoConns(s.entry)
	defer conns[0].Close()
	defer conns[1].Close()
	sm := startSampler(s)
	sm.watch(conns)
	var wg sync.WaitGroup
	for k := range conns {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			conns[k].runSerial(ctx, lanes[k], tallies[k])
		}(k)
	}
	wg.Wait()
	sm.finish(ph, tallies...)
	return ph, nil
}

// resultsKey marks where a /v1/predict/batch reply stops describing the
// snapshot's age and starts listing scores.
var resultsKey = []byte(`"results":`)

// predictSweep sweeps the fleet's vectors of the first live day again
// and again through /v1/predict/batch, both connections pulling from one
// list, then asks for single predictions by serial. Nothing is written,
// so every sweep must return the same scores: each reply's results are
// compared byte for byte with the first sweep's.
func (h *Harness) predictSweep(ctx context.Context, s *sut) (*phase, error) {
	c := h.corpus
	ph := &phase{latPath: "/v1/predict/batch", latRows: h.p.PredictBatch, applied: map[string][]orfdisk.FleetObservation{}}
	var sweep []Request
	var singles []Request
	for _, m := range c.Models {
		vecs := c.dayVectors(m, 0)
		sweep = append(sweep, sweepRequests(m, vecs, h.p.PredictBatch, c.Days[0])...)
		for _, o := range vecs {
			if h.oracle.Known(o.Serial) {
				singles = append(singles, Request{Path: "/v1/predict", Body: predictOneBody(o), Rows: 1, Model: m})
			}
		}
	}
	if len(singles) == 0 {
		return nil, fmt.Errorf("no live disk of day %d is known from history", c.Days[0])
	}
	reqs := make([]Request, 0, len(sweep)*h.p.Sweeps)
	for i := 0; i < h.p.Sweeps; i++ {
		reqs = append(reqs, sweep...)
	}
	ones := make([]Request, h.p.Singles)
	for i := range ones {
		ones[i] = singles[i%len(singles)]
	}
	ph.hash = hashRequests(sweep, ones)
	if h.trace {
		n := min(len(reqs), twinSweeps*len(sweep))
		h.twinReqs = append(reqs[:n:n], ones[:min(len(ones), twinSingles)]...)
	}
	h.res.Counts["bodies_prepared_ahead"] = int64(len(sweep) + len(singles))
	h.res.Counts["sweeps"] = int64(h.p.Sweeps)
	h.res.Counts["fleet_vectors"] = int64(rowsOfRequests(sweep))

	tallies := []*Tally{{}, {}}
	conns := twoConns(s.entry)
	defer conns[0].Close()
	defer conns[1].Close()

	// Reference replies, taken before the timed part.
	ref := make([][]byte, len(sweep))
	for i := range sweep {
		var t Tally
		reply := conns[0].send(ctx, &sweep[i], &t)
		if t.Failed > 0 {
			return nil, fmt.Errorf("reference sweep: %s", t.FirstErr)
		}
		k := bytes.Index(reply, resultsKey)
		if k < 0 {
			return nil, fmt.Errorf("reference sweep: reply has no results: %.200s", reply)
		}
		ref[i] = append([]byte(nil), reply[k:]...)
	}
	var mu sync.Mutex
	drift := 0
	sm := startSampler(s)
	sm.watch(conns)
	runShared(ctx, conns, reqs, tallies, func(i int, reply []byte) {
		k := bytes.Index(reply, resultsKey)
		if k < 0 || !bytes.Equal(reply[k:], ref[i%len(sweep)]) {
			mu.Lock()
			drift++
			mu.Unlock()
		}
	})
	sm.finish(ph, tallies...)
	if drift > 0 {
		ph.tally.fail(drift, "%d sweep replies differ from the first sweep's scores", drift)
	}

	// Single predictions by serial: their own timing, not in rows_per_s.
	oneTallies := []*Tally{{}, {}}
	oneStart := time.Now()
	runShared(ctx, conns, ones, oneTallies, nil)
	oneWall := time.Since(oneStart).Seconds()
	var one Tally
	for _, t := range oneTallies {
		one.merge(t)
	}
	ol := summarize(one.Lats, "/v1/predict", 1)
	h.res.detail("predict_one_p50_us", ol.P50*1e3, "us")
	h.res.detail("predict_one_per_s", float64(one.Rows)/oneWall, "1/s")
	ph.tally.Requests += one.Requests
	ph.tally.Attempted += one.Attempted
	ph.tally.Failed += one.Failed
	if ph.tally.FirstErr == "" {
		ph.tally.FirstErr = one.FirstErr
	}
	return ph, nil
}

func rowsOfRequests(reqs []Request) int {
	n := 0
	for _, r := range reqs {
		n += r.Rows
	}
	return n
}

// fleetDayMixed drives the router: per fleet-day, connection A posts the
// day's observations (writes go to the sync-ack leader) while connection
// B sweeps the previous day's vectors (reads fan out over replicas). A
// day ends when both are done. Throughput and cost are per written row,
// that is per fleet row and per second of fleet-day, and never a sum of
// written and scored rows; the latency slots carry the read side, whose
// only gate they are (a slower write shows as throughput: one closed
// loop connection acknowledges a batch per write latency).
func (h *Harness) fleetDayMixed(ctx context.Context, s *sut) (*phase, error) {
	c := h.corpus
	days := min(h.p.MixedDays, len(c.Days))
	ph := &phase{latPath: "/v1/predict/batch", latRows: h.p.PredictBatch, applied: map[string][]orfdisk.FleetObservation{}}
	writes := make([][]Request, days)
	reads := make([][]Request, days)
	for d := 0; d < days; d++ {
		for _, m := range c.Models {
			writes[d] = append(writes[d], c.observeRequests(m, d, 1, h.p.ObserveBatch)...)
			if d > 0 {
				reads[d] = append(reads[d], sweepRequests(m, c.dayVectors(m, d-1), h.p.PredictBatch, c.Days[d-1])...)
			}
		}
	}
	for _, m := range c.Models {
		ph.applied[m] = c.ByModel[m][:c.DayRows[m][days-1][1]]
	}
	ph.hash = hashRequests(append(writes, reads...)...)
	if h.trace {
		for d := 0; d < min(twinMixedDays, days); d++ {
			h.twinReqs = append(append(h.twinReqs, writes[d]...), reads[d]...)
		}
	}
	n := 0
	for d := range writes {
		n += len(writes[d]) + len(reads[d])
	}
	h.res.Counts["bodies_prepared_ahead"] = int64(n)
	h.res.Counts["fleet_days"] = int64(days)

	follower := newConn(s.cycle.addr)
	defer follower.Close()
	ta, tb := &Tally{}, &Tally{}
	var dayS []float64
	var lagMax float64
	ab := twoConns(s.entry)
	a, b := ab[0], ab[1]
	defer a.Close()
	defer b.Close()
	sm := startSampler(s)
	sm.watch(ab[:1])
	for d := 0; d < days; d++ {
		d0 := time.Now()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); a.runSerial(ctx, writes[d], ta) }()
		go func() { defer wg.Done(); b.runSerial(ctx, reads[d], tb) }()
		wg.Wait()
		dayS = append(dayS, time.Since(d0).Seconds())
		// One look at the follower per fleet-day, between days.
		if lag, err := replicationLag(ctx, follower); err == nil && lag > lagMax {
			lagMax = lag
		}
	}
	sm.finish(ph, ta, tb)
	h.res.detail("fleet_day_s", median(dayS), "s")
	h.res.detail("predict_rows_per_s", float64(tb.Rows)/ph.sendS, "rows/s")
	wl := summarize(ta.Lats, "/v1/observe/batch", h.p.ObserveBatch)
	h.res.detail("observe_p50_ms", wl.P50, "ms")
	h.res.detail("observe_tail_ms", wl.Tail, "ms")
	h.res.detail("replica_lag_records_max", lagMax, "count")
	return ph, nil
}

// replicationLag reads lag_records from a follower's /v1/replication.
func replicationLag(ctx context.Context, c *Conn) (float64, error) {
	status, body, err := c.Get(ctx, "/v1/replication")
	if err != nil || status != http.StatusOK {
		return 0, fmt.Errorf("GET /v1/replication: status %d err %v", status, err)
	}
	var st struct {
		Lag float64 `json:"lag_records"`
	}
	err = json.Unmarshal(body, &st)
	return st.Lag, err
}

// backfillRecover ingests a fixed live suffix, so the crash that follows
// has a known WAL tail to replay, and reports the bulk load itself as
// throughput and cost: the orfload runs are the workload here, one
// sample each.
func (h *Harness) backfillRecover(ctx context.Context, s *sut, loads []loadRun) (*phase, error) {
	ph, err := h.observeStream(ctx, s, h.p.RecoverDays)
	if err != nil {
		return nil, err
	}
	h.res.detail("ingest_rows_per_s", ph.rowsPerS, "rows/s")
	h.res.detail("ingest_cpu_s_per_mrow", ph.cpuPerM, "s")
	h.res.Counts["wal_suffix_rows"] = int64(ph.tally.Rows)
	h.res.Counts["orfload_runs"] = int64(len(loads))
	var rates, costs []float64
	for _, ld := range loads {
		rates = append(rates, float64(h.corpus.HistoryRows)/ld.wallS)
		costs = append(costs, ld.proc.CPUSeconds()/float64(h.corpus.HistoryRows)*1e6)
	}
	ph.rowsPerS, ph.cpuPerM = median(rates), median(costs)
	return ph, nil
}
