package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// runSeconds is run_seconds in BENCHMARK.json: the length the frozen
// sizes below give each workload's timed part on a two-core host. The
// driver passes it as --seconds; no other value is accepted, because
// work here is fixed in rows, days and sweeps so that counts repeat
// exactly.
const runSeconds = 15

// params are the frozen sizes of one run.
type params struct {
	Scale  float64
	Months int // history quarter plus the live months the workload consumes

	ObserveBatch int // rows per /v1/observe/batch
	PredictBatch int // items per /v1/predict/batch

	ObserveDays int // observe_stream: live days replayed
	Sweeps      int // predict_sweep: passes over the fleet
	Singles     int // predict_sweep: /v1/predict calls by serial
	MixedDays   int // fleet_day_mixed: fleet-days
	RecoverDays int // backfill_recover: live days ingested before the crash

	Loads  int // orfload runs; backfill_recover's throughput is their median
	Cycles int // crash recoveries, each followed by a restart; 0: one restart, no crash

	// Traced runs are incorrect when a twin's children exceed it by more
	// than TwinTolerance of its parent's total (negative self time), or
	// when the in-process serve span sits further than HandlerTolerance
	// from the real server's handler timer over the same requests.
	TwinTolerance, HandlerTolerance float64
}

// paramsFor returns the frozen sizes. The fleet is ~2k disks, ~1.9k
// rows per fleet-day; on two cores the binaries get through about 14
// fleet-days of observations a second on the write path, 40 sweeps of
// the fleet on the read path and 6 mixed fleet-days through the router.
func paramsFor(workload string, smoke bool) params {
	p := params{
		Scale:        0.05, // STA 1.8k disks, STB 0.2k
		Months:       4,
		ObserveBatch: 256,
		PredictBatch: 512,
		ObserveDays:  210,
		Sweeps:       560,
		Singles:      10000,
		MixedDays:    90,
		RecoverDays:  90,
		Loads:        1,
		Cycles:       1,

		// The issue hoped for 5% and 10%. The serve span's own self time
		// read between -3.3% and +3.9% over eight traced runs of one
		// commit on the host this was written on, so 5% would call a
		// traced run incorrect now and then.
		TwinTolerance: 0.10,
		// Interleaved request by request with the real server, the twin
		// still read between 0.90 and 1.15 of it (it runs beside a 400 MB
		// heap, the server beside 20), so 10% would fail one traced run in
		// three.
		HandlerTolerance: 0.25,
	}
	switch workload {
	case "observe_stream":
		// No crash: it would replay every row of the run, a third of the
		// timed part again, for a number backfill_recover gives better.
		p.Months, p.Cycles = 10, 0
	case "fleet_day_mixed":
		p.Months = 6
	case "backfill_recover":
		p.Months, p.Loads, p.Cycles = 6, 6, 3
	}
	if smoke {
		// ~20k rows in all: 200 disks, one live month; batches small
		// enough that a day of 180 rows still fills some.
		p.Scale, p.Months = 0.005, 4
		p.ObserveBatch, p.PredictBatch = 32, 64
		p.ObserveDays, p.Sweeps, p.Singles, p.MixedDays, p.RecoverDays = 30, 20, 200, 10, 10
		p.Loads, p.Cycles = min(p.Loads, 2), min(p.Cycles, 1)
		// Spans here are milliseconds long in all: only a twin that does
		// different work should trip the checks.
		p.TwinTolerance, p.HandlerTolerance = 0.25, 1
	}
	return p
}

// Harness is one invocation: one workload, one seed.
type Harness struct {
	root    string // checkout root: where cmd/ and bench/ live
	binDir  string
	workDir string // removed on exit
	procs   *Procs

	workload string
	seed     uint64
	trace    bool
	p        params

	corpus *Corpus
	oracle *Oracle
	probes []Probe

	// Traced runs only: a copy of the directory orfload produced (the
	// state every twin starts from), the request prefix the twins are
	// fed, and where the trace file goes.
	seedDir  string
	twinReqs []Request
	outDir   string

	res *RunResult
}

// node is one orfserve or orfrouter under test.
type node struct {
	name string
	bin  string
	addr string
	args []string
	dir  string // data directory; empty for the router
	proc *Proc
}

// sut is the set of processes a workload drives.
type sut struct {
	entry   string  // where the load generator connects
	nodes   []*node // every process under test
	servers []*node // orfserve nodes, each checked against the oracle
	cycle   *node   // the node that is crashed and restarted
}

func (s *sut) dataBytes() int64 {
	var n int64
	for _, sv := range s.servers {
		b, _ := dirBytes(sv.dir)
		n += b
	}
	return n
}

func (s *sut) cpuSeconds() float64 {
	var t float64
	for _, n := range s.nodes {
		t += n.proc.CPUSeconds()
	}
	return t
}

func (s *sut) peakRSSMB() float64 {
	var t float64
	for _, n := range s.nodes {
		t += n.proc.PeakRSSMB()
	}
	return t
}

// phaseTimeout bounds every phase. A child that hangs is killed when it
// passes and its operations are counted as failed.
const phaseTimeout = 60 * time.Second

func (h *Harness) bin(name string) string { return filepath.Join(h.binDir, name) }

// startNode launches n and does not wait for it.
func (h *Harness) startNode(n *node) error {
	p, err := h.procs.Start(n.name, n.bin, n.args...)
	if err != nil {
		return err
	}
	n.proc = p
	return nil
}

// ready waits for n's /readyz (the router answers /healthz only).
func (h *Harness) ready(ctx context.Context, n *node) (time.Time, error) {
	path := "/readyz"
	if n.bin == "orfrouter" {
		path = "/healthz"
	}
	return waitHTTP(ctx, n.proc, "http://"+n.addr+path)
}

func serveNode(name, addr, dir string, extra ...string) *node {
	args := append([]string{
		"-addr", addr, "-data", dir,
		// No periodic snapshot lands inside a run, so the WAL suffix a
		// crash replays, and the bytes on disk, are fixed by the rows sent.
		"-snapshot-every", "1h",
		"-log-level", "warn",
	}, extra...)
	return &node{name: name, bin: "orfserve", addr: addr, dir: dir, args: args}
}

// loadRun is one orfload run over the history into an empty directory.
type loadRun struct {
	wallS float64
	proc  *Proc
}

func (h *Harness) orfload(ctx context.Context, name, dir string) (loadRun, error) {
	args := append([]string{"-data", dir, "-log-level", "warn", "-progress", "-1s"}, h.corpus.HistoryFiles...)
	start := time.Now()
	p, err := h.procs.Start(name, "orfload", args...)
	if err != nil {
		return loadRun{}, err
	}
	p.watchRSS()
	if err := p.Wait(ctx); err != nil {
		return loadRun{}, fmt.Errorf("orfload: %w\n%s", err, p.LogTail(2048))
	}
	return loadRun{time.Since(start).Seconds(), p}, nil
}

// warm is the set-up: orfload over the history into an empty directory,
// then the processes under test started on it until ready. It returns
// the system, the load, and the seconds from first exec to last ready.
func (h *Harness) warm(ctx context.Context) (*sut, loadRun, float64, error) {
	base := filepath.Join(h.workDir, "sut")
	dir := filepath.Join(base, "data")
	ld, err := h.orfload(ctx, "orfload", dir)
	if err != nil {
		return nil, ld, 0, err
	}
	if h.trace {
		h.seedDir = filepath.Join(h.workDir, "seed")
		if err := copyDir(dir, h.seedDir); err != nil {
			return nil, ld, 0, err
		}
	}
	group := h.workload == "fleet_day_mixed"
	n := 1
	if group {
		n = 4
	}
	ports, err := freePorts(n)
	if err != nil {
		return nil, ld, 0, err
	}
	s := &sut{}
	start := time.Now()
	if !group {
		srv := serveNode("serve", ports[0], dir)
		if err := h.startNode(srv); err != nil {
			return nil, ld, 0, err
		}
		s.entry, s.nodes, s.servers, s.cycle = srv.addr, []*node{srv}, []*node{srv}, srv
	} else {
		// The follower starts empty and is seeded by the leader: the
		// product's own way of adding a replica.
		leader := serveNode("leader", ports[0], dir, "-replicate-addr", ports[1], "-sync-acks", "1")
		follower := serveNode("follower", ports[2], filepath.Join(base, "replica"), "-follow", ports[1])
		router := &node{name: "router", bin: "orfrouter", addr: ports[3], args: []string{
			"-addr", ports[3],
			"-nodes", "g0=" + leader.addr + "," + follower.addr,
			// Probe often enough that a restarted follower is back in
			// rotation at once; never promote during a run.
			"-health-interval", "100ms", "-fail-after", "1000000",
			"-log-level", "warn",
		}}
		if err := h.startNode(leader); err != nil {
			return nil, ld, 0, err
		}
		if _, err := h.ready(ctx, leader); err != nil {
			return nil, ld, 0, err
		}
		for _, n := range []*node{follower, router} {
			if err := h.startNode(n); err != nil {
				return nil, ld, 0, err
			}
		}
		s.entry, s.nodes, s.servers, s.cycle = router.addr, []*node{leader, follower, router}, []*node{leader, follower}, follower
	}
	for _, n := range s.nodes {
		if _, err := h.ready(ctx, n); err != nil {
			return nil, ld, 0, err
		}
	}
	if group {
		if err := h.routerSees(ctx, s); err != nil {
			return nil, ld, 0, err
		}
	}
	return s, ld, time.Since(start).Seconds(), nil
}

// routerSees waits until the router reports every node healthy and
// ready, so reads fan out over both replicas from the first request.
func (h *Harness) routerSees(ctx context.Context, s *sut) error {
	c := newConn(s.entry)
	defer c.Close()
	for {
		status, body, err := c.Get(ctx, "/v1/cluster")
		if err == nil && status == http.StatusOK {
			var groups []struct {
				Nodes []struct {
					Healthy bool `json:"healthy"`
					Ready   bool `json:"ready"`
				} `json:"nodes"`
			}
			if json.Unmarshal(body, &groups) == nil && len(groups) == 1 {
				ok := len(groups[0].Nodes) == len(s.servers)
				for _, n := range groups[0].Nodes {
					ok = ok && n.Healthy && n.Ready
				}
				if ok {
					return nil
				}
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("router never saw every node ready: %w", ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// teardown kills a system under test; its directories go with the work
// directory.
func (h *Harness) teardown(s *sut) {
	for _, n := range s.nodes {
		if n.proc != nil {
			n.proc.Signal(syscall.SIGKILL)
			<-n.proc.done
		}
	}
}

// cycle SIGKILLs the cycled node and then, h.p.Cycles times over, times
// a crash recovery (exec on what the kill left, to the first /readyz
// 200) followed by a restart (SIGTERM, clean exit, exec, ready again).
// A restart snapshots what recovery replayed and truncates the log, so a
// directory gives one sample of each; further samples run on copies of
// the crashed directory, the original last, and it is the original that
// is left running. With no cycles the node is only restarted, once.
func (h *Harness) cycle(ctx context.Context, n *node) (recoverS, restartS []float64, err error) {
	if h.p.Cycles == 0 {
		t, err := h.restart(ctx, n)
		if err != nil {
			return nil, nil, err
		}
		return nil, []float64{t}, nil
	}
	n.proc.Signal(syscall.SIGKILL)
	if err := waitGone(ctx, n.proc); err != nil {
		return nil, nil, err
	}
	var dirs []string
	for i := 1; i < h.p.Cycles; i++ {
		d := fmt.Sprintf("%s.crashed%d", n.dir, i)
		if err := copyDir(n.dir, d); err != nil {
			return nil, nil, err
		}
		dirs = append(dirs, d)
	}
	for _, d := range append(dirs, n.dir) {
		run := *n
		run.args = append([]string(nil), n.args...)
		for i, a := range run.args {
			if a == n.dir {
				run.args[i] = d
			}
		}
		start := time.Now()
		if err := h.startNode(&run); err != nil {
			return recoverS, restartS, err
		}
		at, err := h.ready(ctx, &run)
		if err != nil {
			return recoverS, restartS, err
		}
		recoverS = append(recoverS, at.Sub(start).Seconds())
		t, err := h.restart(ctx, &run)
		if err != nil {
			return recoverS, restartS, err
		}
		restartS = append(restartS, t)
		if d == n.dir {
			n.proc = run.proc
			break
		}
		run.proc.Signal(syscall.SIGKILL)
		if err := waitGone(ctx, run.proc); err != nil {
			return recoverS, restartS, err
		}
		os.RemoveAll(d)
	}
	return recoverS, restartS, nil
}

// restart SIGTERMs n, waits for its clean exit, re-executes it and
// returns the seconds from the signal to the first /readyz 200.
func (h *Harness) restart(ctx context.Context, n *node) (float64, error) {
	start := time.Now()
	n.proc.Signal(syscall.SIGTERM)
	if err := n.proc.Wait(ctx); err != nil {
		return 0, fmt.Errorf("%s did not shut down cleanly: %w\n%s", n.name, err, n.proc.LogTail(2048))
	}
	if err := h.startNode(n); err != nil {
		return 0, err
	}
	at, err := h.ready(ctx, n)
	if err != nil {
		return 0, err
	}
	return at.Sub(start).Seconds(), nil
}

// waitGone waits for a signalled child to be reaped; exit status is
// irrelevant (it was killed).
func waitGone(ctx context.Context, p *Proc) error {
	select {
	case <-p.done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("%s survived SIGKILL: %w", p.Name, ctx.Err())
	}
}

// replicasLevel waits until every server reports the same applied
// sequence number, so a follower is compared only once it has applied
// what it acknowledged.
func (h *Harness) replicasLevel(ctx context.Context, s *sut) error {
	if len(s.servers) < 2 {
		return nil
	}
	applied := func(addr string) (uint64, error) {
		c := newConn(addr)
		defer c.Close()
		status, body, err := c.Get(ctx, "/v1/replication")
		if err != nil || status != http.StatusOK {
			return 0, fmt.Errorf("GET /v1/replication: status %d err %v", status, err)
		}
		var st struct {
			Applied uint64 `json:"applied_seq"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			return 0, err
		}
		return st.Applied, nil
	}
	for {
		var seqs []uint64
		var err error
		for _, sv := range s.servers {
			var q uint64
			if q, err = applied(sv.addr); err != nil {
				break
			}
			seqs = append(seqs, q)
		}
		if err == nil {
			level := true
			for _, q := range seqs {
				level = level && q == seqs[0]
			}
			if level {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("replicas never levelled (%v, %v): %w", seqs, err, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// prepare builds everything a run needs before any process under test
// starts: binaries, corpus, oracle history, probes.
func (h *Harness) prepare(ctx context.Context) error {
	t0 := time.Now()
	if err := buildBinaries(ctx, h.root, h.binDir); err != nil {
		return err
	}
	h.res.detail("build_s", time.Since(t0).Seconds(), "s")
	if stale := staleChildren(h.binDir); len(stale) > 0 {
		return fmt.Errorf("processes from an earlier run are still alive: %s; kill them first", strings.Join(stale, ", "))
	}

	t1 := time.Now()
	var err error
	h.corpus, err = buildCorpus(ctx, h.bin("orfgen"), filepath.Join(h.workDir, "corpus"),
		corpusSpec{Scale: h.p.Scale, Months: h.p.Months, Seed: h.seed})
	if err != nil {
		return err
	}
	h.res.detail("corpus_s", time.Since(t1).Seconds(), "s")
	h.res.Counts["history_rows"] = int64(h.corpus.HistoryRows)
	h.res.Counts["live_rows"] = int64(len(h.corpus.Live))
	h.res.Counts["live_days"] = int64(len(h.corpus.Days))
	for _, m := range h.corpus.Models {
		h.res.Counts["live_rows."+m] = int64(len(h.corpus.ByModel[m]))
	}

	// The oracle's history pass and the probe bodies are independent;
	// both finish before anything is timed.
	t2 := time.Now()
	if h.oracle, err = newOracle(); err != nil {
		return err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h.probes = buildProbes(h.corpus)
	}()
	err = h.oracle.LoadHistory(h.corpus.History)
	wg.Wait()
	if err != nil {
		return fmt.Errorf("oracle history: %w", err)
	}
	h.res.detail("oracle_history_s", time.Since(t2).Seconds(), "s")
	return nil
}
