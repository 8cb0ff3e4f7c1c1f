package orfdisk

import (
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"orfdisk/internal/engine"
	"orfdisk/internal/metrics"
	"orfdisk/internal/replica"
	"orfdisk/internal/smart"
	"orfdisk/internal/wal"
)

// Engine is the durable sharded serving core: each drive model gets a
// dedicated worker goroutine owning its Predictor (the paper's per-model
// independence, §4.1, made into the concurrency unit), fed by a bounded
// mailbox. Requests for different models never contend; requests for one
// model are serialized by its worker, so predictors need no locking.
//
// With a DataDir, the engine is crash-safe: every mutation is recorded
// in a write-ahead log before it is applied, and periodic snapshot
// passes append each model's whole state (the model AND the labeling
// queues) to the same log, then truncate what they cover, which bounds
// replay time. Recovery replays the log; because predictor
// serialization includes the RNG streams, the recovered engine continues
// the exact stream an uninterrupted run would have produced.
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

	// snapMu serializes snapshot passes and follower resets. lastPass is
	// the sequence number of the newest pass record written or replayed,
	// passFirst that pass's first sequence number, and cut the cutoff a
	// follower last truncated its log before (replication goroutine only).
	snapMu    sync.Mutex
	lastPass  atomic.Uint64
	passFirst atomic.Uint64
	cut       uint64

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

	// The replication lifecycle (see replicate.go). roleMu serializes
	// ShipWAL, Follow, Promote, Demote and Close: shipAddr is where a
	// source listens once the engine leads, client the stream a follower
	// pulls, and closed refuses both after Close. src is the running
	// source, read without the lock by writes waiting for acks.
	roleMu   sync.Mutex
	shipAddr string
	client   *replica.Follower
	closed   bool
	src      atomic.Pointer[replica.Source]

	// Synchronous commit (see replicate.go): with syncAcks > 0 a leader
	// write returns only after that many followers fsync-ack its WAL
	// sequence number, via src.
	syncAcks       int
	syncAckTimeout time.Duration

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
	// DataDir enables durability: it holds the write-ahead log, in a
	// "wal" subdirectory. Empty means in-memory only (state is lost on
	// restart, exactly like the pre-engine Server).
	DataDir string
	// Mailbox is the per-model queue capacity (default 256).
	Mailbox int
	// EnqueueTimeout bounds how long an ingest blocks on a full
	// mailbox before failing with ErrBusy (default 50 ms).
	EnqueueTimeout time.Duration
	// SnapshotEvery, if positive and DataDir is set, runs a snapshot
	// pass on this interval (in addition to the final one Close runs),
	// appending every model's state to the log.
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
	// follower reports not-ready (default 256). A record is one append:
	// a run of up to 1024 rows (applyRunCap), or a whole model's state.
	// Leaders ignore it.
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
	// fsync-acknowledged the write's WAL records (via the source
	// ShipWAL starts). A write that times out waiting
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
	// enc is the WAL-encoding scratch, reused so steady-state ingest
	// allocates no record buffers, and xs (ingestSlice's projected rows,
	// back to back) and pos (applyRecords' gather positions) the same for
	// their callers. Only the shard's worker touches them.
	enc recordBatch
	xs  []float64
	pos []int
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
		snapshotEncode:  reg.Histogram("engine_snapshot_encode_seconds", "Wall time of one model's state record encode+append (parallel-compressed ORF2)."),
		snapshotBytes:   reg.Gauge("engine_snapshot_bytes", "State record bytes appended by the most recent snapshot pass."),
		replayed:        reg.Counter("engine_recovery_replayed_records_total", "Records replayed from the WAL during crash recovery: a run counts once per row, any other record once."),
		replaySkipped:   reg.Counter("engine_recovery_skipped_records_total", "Durable observations skipped during recovery because the predictor rejected them (poison pills)."),
		recoverySeconds: reg.Gauge("engine_recovery_seconds", "Wall time of the most recent recovery: WAL open and replay (set when it completes)."),
		freezes:         reg.Counter("engine_frozen_publishes_total", "Frozen scoring snapshots published for the lock-free read path."),
		predictRequests: reg.Counter("predict_requests_total", "Read-path scoring requests served from frozen snapshots (Score and ScoreBatch calls)."),
		predictSeconds:  reg.Histogram("predict_seconds", "Wall time of one read-path scoring request (single or batch)."),
	}
}

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
		logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
	}
	// Resolved once: every new predictor shares the list (none modifies
	// it), and IngestBackfill frames runs under it.
	cfg.Predictor.Features = cfg.Predictor.features()
	e := &Engine{
		cfg:     cfg,
		reg:     reg,
		met:     newEngineMetrics(reg),
		log:     logger,
		modelOf: make(map[string]string), // recovery fills it
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
		if err := e.open(); err != nil {
			e.pool.Close()
			if e.wal != nil {
				e.wal.Close()
			}
			return nil, err
		}
		// A follower resumes replication right after its own recovery
		// point: its log carries leader sequence numbers, so NextSeq-1
		// IS the last durably applied leader record.
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

func (e *Engine) newShard(model string) *shardState {
	st := &shardState{p: NewPredictor(e.cfg.Predictor)}
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
			// Best effort; the next tick (or Close) retries, and the log
			// keeps everything a pass has yet to cover.
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
// (the labeling queue copies x). Every door a row can come in by
// (Ingest, IngestBatch, IngestBackfill, a follower's ApplyReplicated,
// recovery replay) ends here, so model state and routing memory are a
// function of the ordered record stream alone. The row is already
// durable, which is what lets its route be committed: any earlier and a
// shed or failed request would leave a phantom route recovery cannot
// reconstruct. score selects Ingest's live prediction; without it the
// state is the same and no tree is walked.
//
// Routes follow the labeling queues row by row — an applied observation
// routes its serial, a failure forgets it, and a durable row that cannot
// be applied (applyRecords' poison pills) never reaches here — so a
// serial is routed exactly when its shard's labeler tracks it, the
// property a state record's routes are rebuilt from (replaceState).
func (e *Engine) applyRow(s *shardState, obs *FleetObservation, x []float64, score bool) Prediction {
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
func (e *Engine) applyRetire(s *shardState, serial string) {
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
// is applied individually so per-item results are preserved. The slice
// is logged and applied in one closure on the shard's worker, so a
// state record — another closure on the same worker — follows all of it
// or none. A WAL failure fails the whole slice — none of it is durable.
// It returns the sequence number of the slice's last record, or 0 if the
// append failed or the engine is memory-only.
func (e *Engine) ingestSlice(s *shardState, batch []FleetObservation, idxs []int, res []BatchResult) uint64 {
	xs := s.xs[:0]
	for _, i := range idxs {
		xs = smart.AppendProject(xs, batch[i].Values, s.p.features)
	}
	s.xs = xs
	nf := len(s.p.features)
	row := func(j int) []float64 { return xs[j*nf : (j+1)*nf : (j+1)*nf] }
	var first uint64
	if e.wal != nil {
		s.enc.reset()
		for lo := 0; lo < len(idxs); lo += applyRunCap {
			run := idxs[lo:min(lo+applyRunCap, len(idxs))]
			s.enc.beginRun(recObserveRun, &batch[run[0]], s.p.features, len(run))
			for j, i := range run {
				s.enc.addRow(&batch[i], row(lo+j))
			}
		}
		var err error
		if first, err = e.wal.AppendBatch(s.enc.payloads()); err != nil {
			e.met.ingestErrors.Add(uint64(len(idxs)))
			for _, i := range idxs {
				res[i].Err = err
			}
			return 0
		}
	}
	e.met.ingests.Add(uint64(len(idxs)))
	for j, i := range idxs {
		res[i].Prediction = e.applyRow(s, &batch[i], row(j), true)
	}
	// One cadence check per slice: snapshots publish at most once per
	// shard slice, which is exactly the "every K updates" granularity the
	// read path promises.
	e.noteApplied(s, len(idxs))
	if first == 0 {
		return 0
	}
	return first + uint64((len(idxs)-1)/applyRunCap)
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
		e.applyRetire(s, serial)
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
				Leaves:   st.Leaves,
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

// Snapshot runs a snapshot pass: it makes the log from the pass's first
// sequence number F on hold the engine's whole state, then truncates
// the log before F (or before what an attached follower still needs:
// the WAL's retain floor caps the cutoff). Under snapMu and the backfill
// gate, it
//
//  1. rotates the WAL; F names the new segment, so every record appended
//     from now on — of any model, including one created after step 2
//     lists the models — is at or above F;
//  2. appends each model's state record on the model's worker, after
//     every record of the model before it and before every record after;
//  3. appends a pass record holding F and the backfill resume point;
//  4. fsyncs, and truncates before F.
//
// A crash anywhere before the truncation leaves the previous pass's log
// whole, so replay is correct at every step. A pass with nothing
// appended since the previous pass record writes nothing. A follower's
// log holds its leader's records only, so there Snapshot is a no-op: the
// leader's passes reach it through the stream. A no-op without a DataDir.
func (e *Engine) Snapshot() error {
	// Under snapMu: a follower Reset replaces e.wal under it.
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	if e.wal == nil || e.follower.Load() {
		return nil
	}
	e.bf.gate.Lock()
	defer e.bf.gate.Unlock()
	if e.wal.NextSeq()-1 == e.lastPass.Load() {
		return nil
	}
	start := time.Now()
	failed := func(err error) error {
		e.met.snapshotErrors.Inc()
		e.log.Error("snapshot failed", "err", err)
		return err
	}
	first, err := e.wal.Rotate()
	if err != nil {
		return failed(err)
	}
	models := e.pool.Keys()
	var (
		buf   []byte // one model's state record at a time
		total int
	)
	for _, model := range models {
		var serr error
		if err := e.pool.Query(model, func(s *shardState) {
			encStart := time.Now()
			if buf, serr = appendStateRecord(buf[:0], model, s.p); serr == nil {
				_, serr = e.wal.Append(buf)
			}
			e.met.snapshotEncode.Observe(time.Since(encStart).Seconds())
		}); err != nil {
			return failed(err)
		}
		if serr != nil {
			return failed(fmt.Errorf("orfdisk: snapshot of model %q: %w", model, serr))
		}
		total += len(buf)
	}
	e.bf.mu.Lock()
	rec := passRecord{first: first, bf: e.bf.bfResume}
	rec.bf.cur = rec.bf.cur.clone()
	e.bf.mu.Unlock()
	seq, err := e.wal.Append(appendPassRecord(nil, rec))
	if err == nil {
		err = e.wal.Sync()
	}
	if err == nil {
		err = e.wal.TruncateBefore(first)
	}
	if err != nil {
		return failed(err)
	}
	e.lastPass.Store(seq)
	e.passFirst.Store(first)
	e.met.snapshots.Inc()
	e.met.snapshotSeconds.Observe(time.Since(start).Seconds())
	e.met.snapshotBytes.Set(float64(total))
	e.log.Info("snapshot complete",
		"models", len(models), "bytes", total,
		"first", first, "elapsed", time.Since(start))
	return nil
}

// Close stops the replication source and client, drains all shard
// mailboxes, runs a final snapshot pass (when durable) and releases the
// WAL. The engine is unusable afterwards.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		// Replication stops first: the client applies records on the
		// shards and the source tails the log, both closed below.
		e.roleMu.Lock()
		e.closed = true
		if e.client != nil {
			e.client.Close()
		}
		if src := e.src.Load(); src != nil {
			src.Close()
		}
		e.roleMu.Unlock()
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

// open recovers the engine from its data directory: it opens the log
// and replays it.
func (e *Engine) open() error {
	start := time.Now()
	dir := e.cfg.DataDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := refuseRetired(dir); err != nil {
		return err
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
	// Replay through the same function a follower applies leader records
	// with (see applyRecords).
	if _, err := e.applyRecords(applyRecovering, w.Replay); err != nil {
		return err
	}
	elapsed := time.Since(start)
	e.met.recoverySeconds.Set(elapsed.Seconds())
	replayed := e.met.replayed.Value()
	e.log.Info("recovery complete",
		"models", len(e.pool.Keys()),
		"replayed", replayed,
		"skipped", e.met.replaySkipped.Value(),
		"elapsed", elapsed,
		"records_per_s", float64(replayed)/elapsed.Seconds())
	// Republish every recovered shard's snapshot so readers start from
	// post-replay state, not the construction-time freeze.
	return e.refreezeAll()
}

// replaceState makes p the state of model's shard s, as a state record
// says it is, routes and all: the serials the old state tracked stop
// routing to the model, and those p tracks route to it.
func (e *Engine) replaceState(s *shardState, model string, p *Predictor) {
	e.mu.Lock()
	for _, serial := range s.p.TrackedSerials() {
		if e.modelOf[serial] == model {
			delete(e.modelOf, serial)
		}
	}
	for _, serial := range p.TrackedSerials() {
		e.modelOf[serial] = model
	}
	e.mu.Unlock()
	s.p = p
}

// applyMode says which door an already-durable record came in by; the
// doors differ in bookkeeping only, never in what reaches the shard.
type applyMode uint8

const (
	// applyRecovering replays the local WAL at startup: records count as
	// engine_recovery_replayed_records, and no frozen snapshot is
	// published on the way (the caller republishes every shard once
	// replay ends).
	applyRecovering applyMode = iota
	// applyReplicated applies a leader record on a follower (ApplyReplicated
	// drops duplicates by sequence number): it is logged as its run
	// crosses, observations count as engine_ingests, and a state record
	// republishes its model's frozen snapshot.
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
// between shards.
//
// A state record replaces its model's state and routes (replaceState).
// The records of the model between its pass's first sequence number and
// the state record are applied first and then superseded, which leaves
// what the live engine held when it wrote the record. A pass record sets
// the backfill resume point; cursor and pass records carry no model state
// and end no run.
//
// In replicated mode a run's closure first logs every record fed since
// the last crossing, as ingestSlice logs a leader's slice: the log keeps
// the leader's order and never holds a model record its shard has not
// applied. Cursor and pass records after the last run are logged on the
// caller.
//
// last is the sequence number through which every fed record has been
// dealt with (applied, or counted as a poison pill);
// on an error, records after it have not reached their shard or, in
// replicated mode, the log.
func (e *Engine) applyRecords(mode applyMode, feed func(func(seq uint64, payload []byte) error) error) (last uint64, err error) {
	type runRecord struct {
		walRecord
		seq   uint64
		state *Predictor // a state record's, decoded
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
		others   int         // retire and state records in run
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
				switch r.kind {
				case recRetire:
					e.applyRetire(s, r.serial)
					continue
				case recState:
					e.replaceState(s, model, r.state)
					if mode == applyReplicated {
						e.publish(s)
					}
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
						rejected = append(rejected, rejection{r.seq, row.Serial, misfit})
						continue
					}
					e.applyRow(s, row, s.p.project(row.Values, pos), false)
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
			e.met.replayed.Add(applied + uint64(others))
		} else {
			e.met.ingests.Add(applied)
		}
		clear(run) // drop the decoded rows and states
		run, rows, others, rejected, last = run[:0], 0, 0, rejected[:0], pending
		logSeqs, logPayloads = logSeqs[:0], logPayloads[:0]
		return nil
	}
	err = feed(func(seq uint64, payload []byte) error {
		rec, err := decodeRecord(payload)
		if err != nil {
			return fmt.Errorf("orfdisk: record at seq %d: %w", seq, err)
		}
		// A follower keeps the backfill resume point too, so that once
		// promoted it can continue an interrupted backfill exactly like a
		// restarted leader.
		if rec.kind == recCursor || rec.kind == recObserveBFRun || rec.kind == recObserveBFCodedRun {
			e.noteBackfill(uint64(len(rec.run)), rec.cur)
		}
		if rec.kind == recCursor || rec.kind == recPass {
			if rec.pass != nil {
				e.bf.mu.Lock()
				e.bf.bfResume = rec.pass.bf
				e.bf.mu.Unlock()
				e.lastPass.Store(seq)
				e.passFirst.Store(rec.pass.first)
			}
			if mode == applyRecovering {
				e.met.replayed.Inc()
			}
		} else {
			r := runRecord{walRecord: rec, seq: seq}
			if rec.kind == recState {
				if r.state, err = decodeState(rec.state); err != nil {
					return fmt.Errorf("orfdisk: state record at seq %d for model %q: %w", seq, rec.model, err)
				}
				r.walRecord.state = nil
			}
			if len(run) > 0 && (rec.model != model || rows+others+max(len(rec.run), 1) > applyRunCap) {
				if err := flush(); err != nil {
					return err
				}
			}
			model = rec.model
			run = append(run, r)
			if len(rec.run) == 0 {
				others++
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
