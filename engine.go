package orfdisk

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"orfdisk/internal/engine"
	"orfdisk/internal/metrics"
	"orfdisk/internal/wal"
)

// Engine is the durable sharded serving core: each drive model gets a
// dedicated worker goroutine owning its Predictor (the paper's per-model
// independence, §4.1, made into the concurrency unit), fed by a bounded
// mailbox. Requests for different models never contend; requests for one
// model are serialized by its worker, so predictors need no locking.
//
// With a DataDir, the engine is crash-safe: every mutation is recorded
// in a write-ahead log before it is applied, and periodic per-model
// snapshots (atomic temp-file + rename, capturing the model AND the
// labeling queues) bound replay time. Recovery loads the newest
// snapshots and replays the WAL suffix; because predictor serialization
// includes the RNG streams, the recovered engine continues the exact
// stream an uninterrupted run would have produced.
//
// All methods are safe for concurrent use.
type Engine struct {
	cfg  EngineConfig
	pool *engine.Pool[*shardState]
	wal  *wal.WAL
	reg  *metrics.Registry
	met  engineMetrics
	log  *slog.Logger

	mu      sync.RWMutex
	modelOf map[string]string // serial -> drive model routing memory

	// frozen maps model -> *frozenSlot, the lock-free read path's
	// publication points (see predict.go). Slots are created with their
	// shards and never removed.
	frozen         sync.Map
	freezeEvery    int
	freezeInterval time.Duration

	// scratch recycles IngestBatch's grouping state (maps and index
	// slices) across calls; the per-call result slice still allocates
	// because it is handed to the caller. scoreScratch does the same for
	// ScoreBatch's gather/scatter state (see predict.go).
	scratch      sync.Pool
	scoreScratch sync.Pool

	// recovered seeds the shard factory during and after startup
	// recovery; read-only once NewEngine returns.
	recovered map[string]*shardState

	snapMu  sync.Mutex
	snapped map[string]uint64 // last snapshotted WAL seq per model

	// bf is the bulk-backfill cursor state (see backfill_engine.go).
	bf bfState

	// Replication state (see replicate.go). follower gates writes;
	// replApplied is the last leader sequence number durably applied;
	// leaderHead/leaderSent mirror the newest leader frame for lag
	// accounting, and lastFrame is the local receipt time of that frame
	// (clock-skew-free, for silence detection). readyMaxLag bounds the
	// catch-up lag /readyz accepts; readyMaxSilence bounds how long a
	// follower may hear nothing from its leader and still claim ready.
	follower        atomic.Bool
	replApplied     atomic.Uint64
	leaderHead      atomic.Uint64
	leaderSent      atomic.Int64
	lastFrame       atomic.Int64
	readyMaxLag     uint64
	readyMaxSilence time.Duration
	promoteMu       sync.Mutex
	onPromote       []func()

	// Synchronous commit (see replicate.go): with syncAcks > 0 a leader
	// write returns only after that many followers fsync-ack its WAL
	// sequence number, via the attached ackWaiter (the replication
	// source). replAddr is the source's listener address, reported in
	// /v1/replication so the routing tier can re-point followers.
	syncAcks       int
	syncAckTimeout time.Duration
	ackWaiter      atomic.Pointer[AckWaiter]
	replAddr       atomic.Value // string
	seedStats      atomic.Pointer[SeedStatser]

	stop      chan struct{}
	tickDone  chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// ErrBusy reports that a shard's mailbox stayed full past the enqueue
// timeout; callers should shed the request (HTTP 503).
var ErrBusy = engine.ErrBusy

// EngineConfig configures NewEngine. Zero values select defaults.
type EngineConfig struct {
	// Predictor configures each per-model predictor.
	Predictor Config
	// DataDir enables durability: it holds per-model snapshots plus a
	// "wal" subdirectory. Empty means in-memory only (state is lost on
	// restart, exactly like the pre-engine Server).
	DataDir string
	// Mailbox is the per-model queue capacity (default 256).
	Mailbox int
	// EnqueueTimeout bounds how long an ingest blocks on a full
	// mailbox before failing with ErrBusy (default 50 ms).
	EnqueueTimeout time.Duration
	// SnapshotEvery, if positive and DataDir is set, snapshots all
	// models on this interval (in addition to the final snapshot taken
	// by Close).
	SnapshotEvery time.Duration
	// FreezeEvery is the read path's publication cadence: a shard
	// republishes its frozen scoring snapshot after this many applied
	// observations (default 256). Negative disables republication (the
	// construction-time snapshot is still published).
	FreezeEvery int
	// FreezeInterval additionally republishes when the published
	// snapshot is older than this and at least one observation has been
	// applied since (default 1s; negative disables the time trigger).
	FreezeInterval time.Duration
	// SegmentBytes, SyncBytes and SyncInterval tune the WAL (see
	// internal/wal.Options); zero selects its defaults.
	SegmentBytes int64
	SyncBytes    int
	SyncInterval time.Duration
	// Follower starts the engine as a read replica: writes fail with
	// ErrNotLeader, and the engine implements replica.Applier so a
	// replication client can feed it leader records (see replicate.go).
	// Requires DataDir (acks promise durability). Promote flips the
	// engine to a leader at runtime.
	Follower bool
	// ReadyMaxLag is the replication lag (in records) beyond which a
	// follower reports not-ready (default 256). A record is one append,
	// up to 1024 rows (applyRunCap). Leaders ignore it.
	ReadyMaxLag uint64
	// ReadyMaxSilence is how long a follower may go without hearing any
	// leader frame (records or heartbeat) before /readyz reports
	// not-ready (default 15 s). A silent partition freezes the observed
	// leader head, so lag alone reads as zero exactly when the replica
	// is at its stalest; silence is the signal that catches it. Leaders
	// ignore it.
	ReadyMaxSilence time.Duration
	// SyncAcks, when positive, makes leader writes synchronous: Ingest,
	// IngestBatch and Retire return only after this many followers have
	// fsync-acknowledged the write's WAL records (via the AckWaiter
	// attached with SetAckWaiter). A write that times out waiting
	// returns ErrSyncUnacked — durable locally, indeterminate across
	// the group. Requires DataDir. 0 keeps replication asynchronous.
	SyncAcks int
	// SyncAckTimeout bounds one synchronous-commit wait (default 5 s).
	SyncAckTimeout time.Duration
	// Metrics receives the engine's instrumentation (engine_*, wal_*
	// and per-model families; the HTTP layer adds http_* when serving).
	// Nil creates a private registry, reachable via MetricsRegistry.
	Metrics *metrics.Registry
	// Logger receives structured engine events (recovery, snapshots,
	// replay skips). Nil discards them.
	Logger *slog.Logger
}

type shardState struct {
	p *Predictor
	// slot is the model's read-path publication point; sinceFreeze and
	// lastFreeze drive the republication cadence. Only the shard's
	// worker touches sinceFreeze/lastFreeze (readers touch the slot's
	// atomics only).
	slot        *frozenSlot
	sinceFreeze int
	lastFreeze  time.Time
	// lastSeq is the WAL sequence number of the last record applied to
	// this shard. Only the shard's worker touches it.
	lastSeq uint64
	// firstUnsnapped is the lowest WAL sequence number applied to this
	// shard since its last snapshot (0 = every applied record is
	// covered by a snapshot). It is the shard's contribution to the WAL
	// truncation cutoff. Only the shard's worker touches it.
	firstUnsnapped uint64
	// enc is the WAL-encoding scratch, reused so steady-state ingest
	// allocates no record buffers, and xs (ingestSlice's projected rows)
	// and pos (applyRecords' gather positions) the same for their
	// callers. Only the shard's worker touches them.
	enc recordBatch
	xs  [][]float64
	pos []int
}

// noteSeq records that WAL record seq has reached shard s: it becomes
// the shard's lastSeq and, if nothing older awaits a snapshot, its
// firstUnsnapped. A memory-only engine has no records and ignores seq.
func (e *Engine) noteSeq(s *shardState, seq uint64) {
	if e.wal == nil {
		return
	}
	s.lastSeq = seq
	if s.firstUnsnapped == 0 {
		s.firstUnsnapped = seq
	}
}

// engineMetrics is the engine-level instrument set (the pool and WAL
// register their own families on the same registry).
type engineMetrics struct {
	ingests         *metrics.Counter
	ingestErrors    *metrics.Counter
	snapshots       *metrics.Counter
	snapshotErrors  *metrics.Counter
	snapshotSeconds *metrics.Histogram
	snapshotEncode  *metrics.Histogram
	snapshotBytes   *metrics.Gauge
	replayed        *metrics.Counter
	replaySkipped   *metrics.Counter
	recoverySeconds *metrics.Gauge
	freezes         *metrics.Counter
	predictRequests *metrics.Counter
	predictSeconds  *metrics.Histogram
}

func newEngineMetrics(reg *metrics.Registry) engineMetrics {
	return engineMetrics{
		ingests:         reg.Counter("engine_ingests_total", "Observations applied on shard workers (WAL append + predictor update)."),
		ingestErrors:    reg.Counter("engine_ingest_errors_total", "Observations that failed on a shard worker (their WAL append failed)."),
		snapshots:       reg.Counter("engine_snapshots_total", "Completed engine snapshot passes."),
		snapshotErrors:  reg.Counter("engine_snapshot_errors_total", "Failed engine snapshot passes."),
		snapshotSeconds: reg.Histogram("engine_snapshot_seconds", "Wall time of one snapshot pass (all models)."),
		snapshotEncode:  reg.Histogram("engine_snapshot_encode_seconds", "Wall time of one model's snapshot encode+write (parallel-compressed ORF2)."),
		snapshotBytes:   reg.Gauge("engine_snapshot_bytes", "Bytes written by the most recent snapshot pass."),
		replayed:        reg.Counter("engine_recovery_replayed_records_total", "Observations, retires and cursor records replayed from the WAL during crash recovery (a run record counts once per row)."),
		replaySkipped:   reg.Counter("engine_recovery_skipped_records_total", "Durable observations skipped during recovery because the predictor rejected them (poison pills)."),
		recoverySeconds: reg.Gauge("engine_recovery_seconds", "Wall time of the most recent recovery: snapshot load, WAL open and replay (set when it completes)."),
		freezes:         reg.Counter("engine_frozen_publishes_total", "Frozen scoring snapshots published for the lock-free read path."),
		predictRequests: reg.Counter("predict_requests_total", "Read-path scoring requests served from frozen snapshots (Score and ScoreBatch calls)."),
		predictSeconds:  reg.Histogram("predict_seconds", "Wall time of one read-path scoring request (single or batch)."),
	}
}

// noopLogHandler discards every record (log/slog has no stdlib discard
// handler until Go 1.24).
type noopLogHandler struct{}

func (noopLogHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (noopLogHandler) Handle(context.Context, slog.Record) error { return nil }
func (noopLogHandler) WithAttrs([]slog.Attr) slog.Handler        { return noopLogHandler{} }
func (noopLogHandler) WithGroup(string) slog.Handler             { return noopLogHandler{} }

// NewEngine creates an engine, running crash recovery first when
// cfg.DataDir is set.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if cfg.Follower && cfg.DataDir == "" {
		return nil, fmt.Errorf("orfdisk: follower mode requires a DataDir (acks promise durability)")
	}
	if cfg.SyncAcks > 0 && cfg.DataDir == "" {
		return nil, fmt.Errorf("orfdisk: SyncAcks requires a DataDir (synchronous commit replicates the WAL)")
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(noopLogHandler{})
	}
	// Resolved once: every new predictor shares the list (none modifies
	// it), and IngestBackfill frames runs under it.
	cfg.Predictor.Features = cfg.Predictor.features()
	e := &Engine{
		cfg:     cfg,
		reg:     reg,
		met:     newEngineMetrics(reg),
		log:     logger,
		modelOf: make(map[string]string), // recover replaces it
	}
	e.freezeEvery = cfg.FreezeEvery
	if e.freezeEvery == 0 {
		e.freezeEvery = 256
	}
	e.freezeInterval = cfg.FreezeInterval
	if e.freezeInterval == 0 {
		e.freezeInterval = time.Second
	}
	e.follower.Store(cfg.Follower)
	e.readyMaxLag = cfg.ReadyMaxLag
	if e.readyMaxLag == 0 {
		e.readyMaxLag = 256
	}
	e.readyMaxSilence = cfg.ReadyMaxSilence
	if e.readyMaxSilence == 0 {
		e.readyMaxSilence = 15 * time.Second
	}
	e.syncAcks = cfg.SyncAcks
	e.syncAckTimeout = cfg.SyncAckTimeout
	if e.syncAckTimeout <= 0 {
		e.syncAckTimeout = 5 * time.Second
	}
	e.pool = engine.New(engine.Config{
		Mailbox:        cfg.Mailbox,
		EnqueueTimeout: cfg.EnqueueTimeout,
		Metrics:        reg,
	}, e.newShard)
	e.registerModelGauges()
	e.registerFrozenGauges()
	e.registerReplicaGauges()
	if cfg.DataDir != "" {
		if err := e.recover(); err != nil {
			e.pool.Close()
			if e.wal != nil {
				e.wal.Close()
			}
			return nil, err
		}
		// Republish every recovered shard's snapshot so readers start
		// from post-replay state, not the construction-time freeze.
		if err := e.refreezeAll(); err != nil {
			e.pool.Close()
			e.wal.Close()
			return nil, err
		}
		// A follower resumes replication right after its own recovery
		// point: snapshots and the WAL all carry leader sequence
		// numbers, so NextSeq-1 IS the last durably applied leader
		// record.
		e.replApplied.Store(e.wal.NextSeq() - 1)
		if cfg.SnapshotEvery > 0 {
			e.stop = make(chan struct{})
			e.tickDone = make(chan struct{})
			go e.snapshotLoop(cfg.SnapshotEvery)
		}
	}
	return e, nil
}

// registerModelGauges surfaces per-model predictor counters from
// Stats() as scrape-time gauge families labeled by drive model.
func (e *Engine) registerModelGauges() {
	type statFn struct {
		name, help string
		fn         func(ModelStats) float64
	}
	for _, s := range []statFn{
		{"engine_model_updates", "Online forest updates absorbed, per drive model.",
			func(ms ModelStats) float64 { return float64(ms.Updates) }},
		{"engine_model_positives_seen", "Positive (failure) samples learned, per drive model.",
			func(ms ModelStats) float64 { return float64(ms.PosSeen) }},
		{"engine_model_negatives_seen", "Negative samples learned, per drive model.",
			func(ms ModelStats) float64 { return float64(ms.NegSeen) }},
		{"engine_model_trees_replaced", "Trees discarded and regrown by online unlearning, per drive model.",
			func(ms ModelStats) float64 { return float64(ms.Replaced) }},
		{"engine_model_nodes", "Total tree nodes in the forest, per drive model.",
			func(ms ModelStats) float64 { return float64(ms.Nodes) }},
		{"engine_model_tracked_disks", "Disks with live labeling queues, per drive model.",
			func(ms ModelStats) float64 { return float64(ms.Tracked) }},
	} {
		s := s
		e.reg.GaugeFuncVec(s.name, s.help, []string{"model"},
			func(emit func(v float64, labelValues ...string)) {
				for _, ms := range e.Stats() {
					emit(s.fn(ms), ms.Model)
				}
			})
	}
}

// MetricsRegistry returns the registry holding the engine's metric
// families (engine_*, wal_*, engine_model_*); serve its Handler — or
// mount Server.Handler, which includes it at GET /metrics.
func (e *Engine) MetricsRegistry() *metrics.Registry { return e.reg }

// startOf returns the state model's shard starts from and the catalog
// indexes its predictor reads: the recovered snapshot and its list, or
// nil and the configured list. It is the one rule for a model's feature
// list — newShard builds the shard from it and IngestBackfill frames the
// model's runs under the list — so the log and the shard never disagree.
func (e *Engine) startOf(model string) (*shardState, []int) {
	if st, ok := e.recovered[model]; ok {
		return st, st.p.features
	}
	return nil, e.cfg.Predictor.Features
}

func (e *Engine) newShard(model string) *shardState {
	st, features := e.startOf(model)
	if st == nil {
		cfg := e.cfg.Predictor
		cfg.Features = features
		st = &shardState{p: NewPredictor(cfg)}
	}
	// Publish the first frozen snapshot before the shard serves anything:
	// the read path must never find a live shard without one.
	st.slot = e.slotFor(model)
	e.publish(st)
	return st
}

func (e *Engine) snapshotLoop(every time.Duration) {
	defer close(e.tickDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-t.C:
			// Best effort; the next tick (or Close) retries, and an
			// unsnapshotted suffix stays covered by the WAL.
			if err := e.Snapshot(); err != nil {
				e.log.Error("periodic snapshot failed", "err", err)
			}
		}
	}
}

// resolveModel fills in obs.Model from the engine's routing memory,
// mirroring Fleet.Ingest's rules. It only reads — applyRow commits a
// first-seen route once the observation is durably applied. pending
// holds what earlier rows of the same batch, not applied yet, say about
// a serial; a failure row among them outranks the route it is about to
// delete, so an omitted model after it is refused as Ingest would.
func (e *Engine) resolveModel(obs *FleetObservation, pending map[string]batchRoute) error {
	e.mu.RLock()
	known, ok := e.modelOf[obs.Serial]
	e.mu.RUnlock()
	earlier, inBatch := pending[obs.Serial]
	if !ok {
		known, ok = earlier.model, inBatch
	}
	if obs.Model == "" {
		if !ok || earlier.failed {
			return fmt.Errorf("orfdisk: observation for %q has no model", obs.Serial)
		}
		obs.Model = known
	} else if ok && known != obs.Model {
		return fmt.Errorf("orfdisk: disk %q changed model %q -> %q", obs.Serial, known, obs.Model)
	}
	return nil
}

func (e *Engine) validate(obs FleetObservation) error {
	if obs.Serial == "" {
		return fmt.Errorf("orfdisk: observation has no serial")
	}
	return checkCatalog(obs.Values)
}

// applyRow applies one observation on its shard's worker, x being the
// features the shard's predictor reads, projected from the row's values
// (the labeling queue owns x from here on). Every door a row can come in
// by (Ingest, IngestBatch, IngestBackfill, a follower's ApplyReplicated,
// recovery replay) ends here, so model state and routing memory are a
// function of the ordered record stream alone. The row is already
// durable at WAL sequence number seq, which is what lets its route be
// committed: any earlier and a shed or failed request would leave a
// phantom route recovery cannot reconstruct. score selects Ingest's live
// prediction; without it the state is the same and no tree is walked.
//
// Routes follow the labeling queues row by row — an applied observation
// routes its serial, a failure forgets it, and a durable row that cannot
// be applied (applyRecords' poison pills) never reaches here — so a
// serial is routed exactly when its shard's labeler tracks it, the
// property recovery rebuilds routes from.
func (e *Engine) applyRow(s *shardState, seq uint64, obs *FleetObservation, x []float64, score bool) Prediction {
	e.noteSeq(s, seq)
	pred := s.p.apply(&obs.Observation, x, score)
	e.mu.Lock()
	if obs.Failed {
		delete(e.modelOf, obs.Serial)
	} else {
		e.modelOf[obs.Serial] = obs.Model
	}
	e.mu.Unlock()
	return pred
}

// applyRetire is applyRow's counterpart for a retire record.
func (e *Engine) applyRetire(s *shardState, seq uint64, serial string) {
	e.noteSeq(s, seq)
	s.p.Retire(serial)
	e.mu.Lock()
	delete(e.modelOf, serial)
	e.mu.Unlock()
}

// ingestSlice logs and applies one shard's slice of an IngestBatch on
// the shard's worker. Each row is projected once onto the features the
// shard's predictor reads; the projections are framed into the shard's
// reused scratch as one run record under that feature list (one per
// applyRunCap rows, should a slice be longer) and made durable with a
// single wal.AppendBatch (one write, one group-commit check), then each
// is applied individually so per-item results are preserved. Every row
// of a run carries the run's sequence number; that is sound because the
// slice is applied here, in one closure on the shard's worker, so a
// snapshot — another closure on the same worker, its cutoff compared per
// record — sees all of a run or none of it. A WAL failure fails the
// whole slice — none of it is durable. It returns the sequence number of
// the slice's last record, or 0 if the append failed.
func (e *Engine) ingestSlice(s *shardState, batch []FleetObservation, idxs []int, res []BatchResult) uint64 {
	xs := s.xs[:0]
	for _, i := range idxs {
		xs = append(xs, s.p.project(batch[i].Values, s.p.features))
	}
	defer func() { clear(xs); s.xs = xs[:0] }() // the queues own them now, or the free list does
	var first uint64
	if e.wal != nil {
		s.enc.reset()
		for lo := 0; lo < len(idxs); lo += applyRunCap {
			run := idxs[lo:min(lo+applyRunCap, len(idxs))]
			s.enc.beginRun(recObserveRun, &batch[run[0]], s.p.features, len(run))
			for j, i := range run {
				s.enc.addRow(&batch[i], xs[lo+j])
			}
		}
		var err error
		if first, err = e.wal.AppendBatch(s.enc.payloads()); err != nil {
			e.met.ingestErrors.Add(uint64(len(idxs)))
			for _, i := range idxs {
				res[i].Err = err
			}
			s.p.free = append(s.p.free, xs...)
			return 0
		}
	}
	e.met.ingests.Add(uint64(len(idxs)))
	for j, i := range idxs {
		res[i].Prediction = e.applyRow(s, first+uint64(j/applyRunCap), &batch[i], xs[j], true)
	}
	// One cadence check per slice: snapshots publish at most once per
	// shard slice, which is exactly the "every K updates" granularity the
	// read path promises.
	e.noteApplied(s, len(idxs))
	return s.lastSeq
}

// Ingest routes one observation to its model's shard and returns the
// live prediction. It blocks until the shard has processed the
// observation; under overload it fails fast with ErrBusy.
func (e *Engine) Ingest(obs FleetObservation) (Prediction, error) {
	res := e.IngestBatch([]FleetObservation{obs})
	return res[0].Prediction, res[0].Err
}

// BatchResult is one observation's outcome in IngestBatch.
type BatchResult struct {
	Prediction Prediction
	Err        error
}

// batchScratch is IngestBatch's recycled grouping state. groups maps a
// model to a slot in idxs so the index slices themselves survive reuse.
type batchScratch struct {
	groups  map[string]int
	order   []string
	idxs    [][]int
	pending map[string]batchRoute
}

// batchRoute is the latest row of a batch to name a serial: the model it
// resolved to, and whether it was the disk's failure row.
type batchRoute struct {
	model  string
	failed bool
}

func (e *Engine) getScratch() *batchScratch {
	if sc, ok := e.scratch.Get().(*batchScratch); ok {
		clear(sc.groups)
		clear(sc.pending)
		sc.order = sc.order[:0]
		for k := range sc.idxs {
			sc.idxs[k] = sc.idxs[k][:0]
		}
		return sc
	}
	return &batchScratch{
		groups:  make(map[string]int),
		pending: make(map[string]batchRoute),
	}
}

// add appends batch index i to model's group, so each model's indexes
// stay in slice order.
func (sc *batchScratch) add(model string, i int) {
	k, ok := sc.groups[model]
	if !ok {
		k = len(sc.order)
		sc.groups[model] = k
		sc.order = append(sc.order, model)
		if k == len(sc.idxs) {
			sc.idxs = append(sc.idxs, nil)
		}
	}
	sc.idxs[k] = append(sc.idxs[k], i)
}

// IngestBatch fans a slice of observations out to their model shards
// and gathers the replies. Observations for the same model are applied
// in slice order; distinct models proceed in parallel. Each entry
// succeeds or fails independently, as the same rows sent one Ingest at
// a time would — with one exception: after a serial's failure row, a
// later row of the same batch that names a different model is refused
// ("changed model") where Ingest would re-route the disk. Every model is
// resolved before any row is applied, and the failure row's slice can
// still be shed with ErrBusy or fail its WAL append; accepting the new
// model then would route the serial to one shard while the old shard's
// labeler still tracks it.
func (e *Engine) IngestBatch(batch []FleetObservation) []BatchResult {
	res := make([]BatchResult, len(batch))
	if e.follower.Load() {
		for i := range res {
			res[i].Err = ErrNotLeader
		}
		return res
	}
	sc := e.getScratch()
	// sc.pending carries first-seen routes and failures from earlier
	// entries of this batch so a later entry can omit the model (or be
	// refused for it), without committing anything to routing memory
	// before the observations are applied.
	for i := range batch {
		if err := e.validate(batch[i]); err != nil {
			res[i].Err = err
			continue
		}
		if err := e.resolveModel(&batch[i], sc.pending); err != nil {
			res[i].Err = err
			continue
		}
		sc.pending[batch[i].Serial] = batchRoute{batch[i].Model, batch[i].Failed}
		sc.add(batch[i].Model, i)
	}
	// Synchronous commit waits once per batch, on the highest sequence
	// number of any group that applied a row; the slice is only allocated
	// when the mode is on so the async path stays allocation-free here.
	var maxSeqs []uint64
	if e.syncAcks > 0 {
		maxSeqs = make([]uint64, len(sc.order))
	}
	var wg sync.WaitGroup
	for k, model := range sc.order {
		idxs := sc.idxs[k]
		wg.Add(1)
		err := e.pool.Submit(model, func(s *shardState) {
			defer wg.Done()
			last := e.ingestSlice(s, batch, idxs, res)
			if maxSeqs != nil {
				maxSeqs[k] = last
			}
		})
		if err != nil {
			wg.Done()
			for _, i := range idxs {
				res[i].Err = err
			}
		}
	}
	wg.Wait()
	e.scratch.Put(sc)
	if maxSeqs != nil {
		var maxSeq uint64
		for _, s := range maxSeqs {
			maxSeq = max(maxSeq, s)
		}
		if maxSeq > 0 {
			if err := e.waitSyncAcks(maxSeq); err != nil {
				// Every record IS durable locally; the acknowledged-
				// replication guarantee is what failed, so every item
				// that would otherwise report success reports that.
				for i := range res {
					if res[i].Err == nil {
						res[i].Err = err
					}
				}
			}
		}
	}
	return res
}

// Retire drops a disk (planned decommission) from its model's shard.
// Unknown serials are a no-op.
func (e *Engine) Retire(serial string) error {
	if e.follower.Load() {
		return ErrNotLeader
	}
	e.mu.RLock()
	model, ok := e.modelOf[serial]
	e.mu.RUnlock()
	if !ok {
		return nil
	}
	var (
		ierr error
		seq  uint64
	)
	if err := e.pool.Do(model, func(s *shardState) {
		if e.wal != nil {
			if seq, ierr = e.wal.Append(encodeRetireRecord(model, serial)); ierr != nil {
				return
			}
		}
		e.applyRetire(s, seq, serial)
	}); err != nil {
		return err
	}
	if ierr != nil {
		return ierr
	}
	return e.waitSyncAcks(seq)
}

// Models returns the drive models with live shards, sorted.
func (e *Engine) Models() []string { return e.pool.Keys() }

// Stats reports per-model forest statistics across all shards.
func (e *Engine) Stats() []ModelStats {
	var out []ModelStats
	for _, model := range e.pool.Keys() {
		var ms ModelStats
		if err := e.pool.Query(model, func(s *shardState) {
			st := s.p.Stats()
			ms = ModelStats{
				Model:    model,
				Updates:  st.Updates,
				PosSeen:  st.PosSeen,
				NegSeen:  st.NegSeen,
				Replaced: st.Replaced,
				Nodes:    st.Nodes,
				Tracked:  s.p.TrackedDisks(),
			}
		}); err != nil {
			continue
		}
		out = append(out, ms)
	}
	return out
}

// Importance returns a model's current feature importance ranking, or
// ok=false if the model has no shard.
func (e *Engine) Importance(model string) (imp []FeatureImportance, ok bool) {
	err := e.pool.Query(model, func(s *shardState) {
		imp = s.p.FeatureImportance()
	})
	return imp, err == nil
}

// Snapshot atomically persists every shard's full state (model +
// labeling queues) and truncates the WAL up to the lowest sequence
// number not covered by a snapshot — applied to a shard since, or
// appended by a backfill batch that has yet to reach one — or still
// needed by an attached follower (the WAL's retain floor). When
// that covers every record — nothing was appended while the pass ran, as
// on shutdown — the log is sealed: what remains is one empty segment
// named after the next sequence number, and a restart replays nothing.
// A no-op without a DataDir.
func (e *Engine) Snapshot() error {
	if e.wal == nil {
		return nil
	}
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	start := time.Now()
	models := e.pool.Keys()
	if len(models) == 0 {
		return nil
	}
	var totalBytes int64
	for _, model := range models {
		var (
			seq   uint64
			bytes int64
			serr  error
		)
		if err := e.pool.Query(model, func(s *shardState) {
			seq = s.lastSeq
			if prev, ok := e.snapped[model]; ok && prev == seq {
				return // unchanged since last snapshot
			}
			encStart := time.Now()
			bytes, serr = writeSnapshot(e.cfg.DataDir, model, s)
			e.met.snapshotEncode.Observe(time.Since(encStart).Seconds())
			if serr == nil {
				// Everything applied so far is covered; records the
				// worker applies after this closure re-arm it.
				s.firstUnsnapped = 0
			}
		}); err != nil {
			e.met.snapshotErrors.Inc()
			return err
		}
		if serr != nil {
			e.met.snapshotErrors.Inc()
			e.log.Error("snapshot failed", "model", model, "err", serr)
			return serr
		}
		e.snapped[model] = seq
		totalBytes += bytes
	}
	// Truncation cutoff: the smallest WAL sequence number some shard has
	// applied but not yet snapshotted. An idle shard contributes nothing
	// (its whole history is covered by its snapshot), so it can no
	// longer pin the WAL at its ancient lastSeq while busy models grow
	// the log without bound. The NextSeq fallback is captured BEFORE the
	// read-back sweep below: appends and these reads serialize on each
	// shard's worker, so a record applied after its shard was read
	// carries a sequence number at or above the fallback, keeping the
	// cutoff conservative.
	cutoff := e.wal.NextSeq()
	// A backfill batch between its WAL append and its shard applies is
	// durable but covered by nothing; its floor (bfState.pendingLow) caps
	// the cutoff. Read after the capture and before the sweep: a floor not
	// yet set means its batch is appended after the capture, one cleared
	// that every row reached its shard before the shard is read below.
	e.bf.mu.Lock()
	if low := e.bf.pendingLow; low != 0 && low < cutoff {
		cutoff = low
	}
	e.bf.mu.Unlock()
	// The sweep reads the shard set afresh: a model whose first records
	// arrived while the pass above was writing has no snapshot yet, and a
	// sealing truncation would otherwise take its records for covered.
	for _, model := range e.pool.Keys() {
		if err := e.pool.Query(model, func(s *shardState) {
			if s.firstUnsnapped != 0 && s.firstUnsnapped < cutoff {
				cutoff = s.firstUnsnapped
			}
		}); err != nil {
			e.met.snapshotErrors.Inc()
			return err
		}
	}
	if err := e.wal.Sync(); err != nil {
		e.met.snapshotErrors.Inc()
		return err
	}
	// The truncation below may delete the WAL suffix holding the newest
	// backfill cursor record, so the cursor state must reach its own
	// durable file first. (Rows appended between this write and the
	// cutoff capture survive in the WAL and re-count during replay;
	// bf.seq keeps the two sources from double-counting.)
	if err := e.writeBackfillCursorFile(); err != nil {
		e.met.snapshotErrors.Inc()
		return err
	}
	if err := e.wal.TruncateBefore(cutoff); err != nil {
		e.met.snapshotErrors.Inc()
		return err
	}
	e.met.snapshots.Inc()
	e.met.snapshotSeconds.Observe(time.Since(start).Seconds())
	e.met.snapshotBytes.Set(float64(totalBytes))
	e.log.Info("snapshot complete",
		"models", len(models), "bytes", totalBytes,
		"cutoff", cutoff, "elapsed", time.Since(start))
	return nil
}

// Close drains all shard mailboxes, takes a final snapshot (when
// durable) and releases the WAL. The engine is unusable afterwards.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		if e.stop != nil {
			close(e.stop)
			<-e.tickDone
		}
		// Snapshot before closing the pool (snapshots run on shard
		// workers). Any request that lands between the snapshot and
		// the pool close is still covered by the WAL suffix.
		if e.wal != nil {
			e.closeErr = e.Snapshot()
		}
		e.pool.Close()
		if e.wal != nil {
			if err := e.wal.Close(); e.closeErr == nil {
				e.closeErr = err
			}
		}
	})
	return e.closeErr
}

// --- recovery ---

const snapMagic = "OSN1"

func (e *Engine) recover() error {
	start, replayedBefore := time.Now(), e.met.replayed.Value()
	dir := e.cfg.DataDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// A crash mid-seed-install leaves a commit marker (and possibly a
	// half-swapped file set); finish or discard it before reading any
	// state files (see reseed.go).
	if err := e.completeSeedInstall(); err != nil {
		return err
	}
	// Everything below rebuilds in-memory state from the files alone, so
	// it starts from empty: a seed install recovers on a live engine.
	e.mu.Lock()
	e.modelOf = make(map[string]string)
	e.mu.Unlock()
	e.recovered = make(map[string]*shardState)
	e.snapped = make(map[string]uint64)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var (
		maxSnap uint64
		resume  bfResume // the cursor file's, if a snapshot persisted one
	)
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !isStateFile(name) {
			continue
		}
		if name == cursorFileName {
			b, err := os.ReadFile(filepath.Join(dir, name))
			if err == nil {
				resume, err = decodeCursorFile(b)
			}
			if err != nil {
				return err
			}
			continue
		}
		model, st, err := loadSnapshot(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("orfdisk: loading snapshot %s: %w", name, err)
		}
		e.recovered[model] = st
		e.snapped[model] = st.lastSeq
		maxSnap = max(maxSnap, st.lastSeq)
	}
	w, err := wal.Open(wal.Options{
		Dir:          filepath.Join(dir, walDirName),
		SegmentBytes: e.cfg.SegmentBytes,
		SyncBytes:    e.cfg.SyncBytes,
		SyncInterval: e.cfg.SyncInterval,
		Metrics:      e.reg,
	})
	if err != nil {
		return err
	}
	e.wal = w

	// Materialize snapshotted shards and rebuild serial->model routing
	// from their queue membership (a disk has a live queue iff it is
	// routed, so the two stay in lockstep).
	for model := range e.recovered {
		if err := e.pool.Do(model, func(s *shardState) {
			for _, serial := range s.p.TrackedSerials() {
				e.modelOf[serial] = model
			}
		}); err != nil {
			return err
		}
	}

	// The backfill resume point starts at the cursor file's (zero without
	// one); replayed backfill records with higher sequence numbers advance
	// it below.
	e.bf.mu.Lock()
	e.bf.bfResume, e.bf.pendingLow = resume, 0
	e.bf.mu.Unlock()

	// Replay the WAL suffix through the same function a follower applies
	// leader records with (see applyRecords).
	if _, err := e.applyRecords(applyRecovering, w.Replay); err != nil {
		return err
	}
	// Never reuse sequence numbers a snapshot already accounts for.
	w.SkipTo(maxSnap + 1)
	elapsed := time.Since(start)
	e.met.recoverySeconds.Set(elapsed.Seconds())
	replayed := e.met.replayed.Value() - replayedBefore // a seed install recovers again
	e.log.Info("recovery complete",
		"snapshots", len(e.recovered),
		"replayed", replayed,
		"skipped", e.met.replaySkipped.Value(),
		"elapsed", elapsed,
		"records_per_s", float64(replayed)/elapsed.Seconds())
	return nil
}

// applyMode says which door an already-durable record came in by; the
// doors differ in bookkeeping only, never in what reaches the shard.
type applyMode uint8

const (
	// applyRecovering replays the local WAL (startup, seed install):
	// records a model's snapshot covers are skipped, the rest count as
	// engine_recovery_replayed_records, and no frozen snapshot is
	// published on the way (the caller republishes every shard once
	// replay ends).
	applyRecovering applyMode = iota
	// applyReplicated applies a leader record on a follower: nothing is
	// skipped (ApplyReplicated drops duplicates by sequence number), it is
	// logged as its run crosses, and observations count as engine_ingests.
	applyReplicated
)

// applyRunCap bounds how many decoded rows wait for one crossing to their
// shard: long enough that the crossing (a channel send, a closure, two
// goroutine wake-ups) vanishes beside the rows, short enough that a run's
// decoded vectors stay a few hundred kilobytes. It is also the most rows
// a writer frames as one run record, so a decoded record never exceeds it.
const applyRunCap = 1024

// applyRecords decodes durable records and applies them to their shards.
// It is the whole of recovery replay and of follower apply, so a
// recovered engine and a follower walk the same code over the leader's
// bytes. feed pushes the records in log order (wal.Replay has exactly
// its shape).
//
// Consecutive records of one model cross to the shard together, as one
// run, and rows are absorbed without scoring: replay and replication
// rebuild state, the alarms were raised where the row first arrived, and
// Absorb leaves the state Ingest leaves. A run never reorders anything —
// a record of another model ends it — because routing memory is shared
// between shards, and never splits a record: its rows share a sequence
// number, so a snapshot taken between two crossings would cover half of
// them and recovery skip the rest.
//
// In replicated mode a run's closure first logs every record fed since
// the last crossing, as ingestSlice logs a leader's slice: the log keeps
// the leader's order and never holds a model record its shard has not
// applied. Cursor records after the last run are logged on the caller.
//
// last is the sequence number through which every fed record has been
// dealt with (applied, skipped as covered, or counted as a poison pill);
// on an error, records after it have not reached their shard or, in
// replicated mode, the log.
func (e *Engine) applyRecords(mode applyMode, feed func(func(seq uint64, payload []byte) error) error) (last uint64, err error) {
	type runRecord struct {
		walRecord
		seq uint64
	}
	type rejection struct {
		seq    uint64
		serial string
		err    error
	}
	var (
		model    string
		run      []runRecord
		rows     int         // observations in run
		retires  int         // retire records in run
		rejected []rejection // observations of run the predictor cannot read
		pending  uint64      // newest record fed, possibly still waiting in the run
		// Replicated mode: what was fed since the last crossing, to log.
		logSeqs     []uint64
		logPayloads [][]byte
		logErr      error
	)
	flush := func() error {
		if err := e.pool.Do(model, func(s *shardState) {
			if len(logSeqs) > 0 {
				if logErr = e.wal.AppendBatchAt(logSeqs, logPayloads); logErr != nil {
					return
				}
			}
			for i := range run {
				r := &run[i]
				if r.kind == recRetire {
					e.applyRetire(s, r.seq, r.serial)
					continue
				}
				// One rule for every run: gather the features the predictor
				// reads from the catalog indexes the run lists. A run whose
				// list lacks one of them is a run of poison pills.
				var misfit error
				pos, ok := s.p.positionsIn(r.index, s.pos)
				if s.pos = pos; !ok {
					misfit = fmt.Errorf("orfdisk: run lists catalog indexes %v, without every feature the model reads %v", r.index, s.p.features)
				}
				for j := range r.run {
					row := &r.run[j]
					if misfit != nil {
						e.noteSeq(s, r.seq) // the record is dealt with, as if applied
						rejected = append(rejected, rejection{r.seq, row.Serial, misfit})
						continue
					}
					e.applyRow(s, r.seq, row, s.p.project(row.Values, pos), false)
				}
			}
			if applied := rows - len(rejected); mode == applyRecovering {
				s.slot.applied.Add(int64(applied))
			} else if applied > 0 {
				e.noteApplied(s, applied)
			}
		}); err != nil {
			return err
		}
		if logErr != nil {
			return logErr
		}
		for _, r := range rejected {
			// A poison pill — a durable row this predictor cannot read, as
			// a binary with another catalog or feature list logs them — is
			// not a reason to refuse to start or to stop following: aborting
			// would brick the deployment, since every restart or reconnect
			// meets the record again. Count it, log it, move on; every
			// engine that reads the log skips it the same way.
			e.met.replaySkipped.Inc()
			e.log.Warn("predictor rejected durable row; skipping",
				"seq", r.seq, "model", model, "serial", r.serial, "err", r.err)
		}
		// Both counters are in rows, as at the door a row first came in by.
		if applied := uint64(rows - len(rejected)); mode == applyRecovering {
			e.met.replayed.Add(applied + uint64(retires))
		} else {
			e.met.ingests.Add(applied)
		}
		run, rows, retires, rejected, last = run[:0], 0, 0, rejected[:0], pending
		logSeqs, logPayloads = logSeqs[:0], logPayloads[:0]
		return nil
	}
	err = feed(func(seq uint64, payload []byte) error {
		rec, err := decodeRecord(payload)
		if err != nil {
			return fmt.Errorf("orfdisk: record at seq %d: %w", seq, err)
		}
		// Backfill resume accounting runs before the snapshot skip: a row a
		// model snapshot covers still counts toward rowsAfter when the cursor
		// file predates that snapshot (crash between the two writes). A
		// follower keeps it too, so that once promoted it can continue an
		// interrupted backfill exactly like a restarted leader.
		if rec.kind == recCursor || rec.kind == recObserveBFRun {
			e.noteBackfill(seq, uint64(len(rec.run)), rec.cur)
		}
		switch {
		case rec.kind == recCursor:
			// Cursor records carry no model state and end no run.
			if mode == applyRecovering {
				e.met.replayed.Inc()
			}
		case mode == applyRecovering && seq <= e.snapped[rec.model]:
			// Covered by the model's snapshot. e.snapped is stable here:
			// recovery runs before the snapshot loop starts, or under snapMu
			// during a seed install.
		default:
			if len(run) > 0 && (rec.model != model || rows+retires+max(len(rec.run), 1) > applyRunCap) {
				if err := flush(); err != nil {
					return err
				}
			}
			model = rec.model
			run = append(run, runRecord{walRecord: rec, seq: seq})
			if rec.kind == recRetire {
				retires++
			}
			rows += len(rec.run)
		}
		if mode == applyReplicated { // after the flush: logged with its own run
			logSeqs, logPayloads = append(logSeqs, seq), append(logPayloads, payload)
		}
		pending = seq
		return nil
	})
	if err == nil && len(run) > 0 {
		err = flush()
	}
	if err == nil && len(logSeqs) > 0 {
		err = e.wal.AppendBatchAt(logSeqs, logPayloads)
	}
	if err == nil {
		last = pending
	}
	return last, err
}

// writeSnapshot writes model's snapshot: the OSN1 magic, the shard's
// lastSeq and the model name's length (u64 little endian each), the name,
// then the predictor state.
func writeSnapshot(dir, model string, s *shardState) (int64, error) {
	return writeFileAtomic(dir, snapName(model), func(w *bufio.Writer) error {
		hdr := binary.LittleEndian.AppendUint64([]byte(snapMagic), s.lastSeq)
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(model)))
		if _, err := w.Write(append(hdr, model...)); err != nil {
			return err
		}
		return s.p.SaveState(w)
	})
}

func loadSnapshot(path string) (model string, st *shardState, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	head := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return "", nil, err
	}
	if string(head) != snapMagic {
		return "", nil, fmt.Errorf("bad snapshot magic %q", head)
	}
	var buf [8]byte
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		return "", nil, err
	}
	lastSeq := binary.LittleEndian.Uint64(buf[:])
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		return "", nil, err
	}
	n := binary.LittleEndian.Uint64(buf[:])
	if n > 1<<16 {
		return "", nil, fmt.Errorf("corrupt snapshot (model name of %d bytes)", n)
	}
	nameBuf := make([]byte, n)
	if _, err := io.ReadFull(br, nameBuf); err != nil {
		return "", nil, err
	}
	p, err := LoadPredictorState(br)
	if err != nil {
		return "", nil, err
	}
	return string(nameBuf), &shardState{p: p, lastSeq: lastSeq}, nil
}
