package orfdisk

import (
	"errors"
	"fmt"
	"time"

	"orfdisk/internal/replica"
	"orfdisk/internal/wal"
)

// Follower mode: an engine created with EngineConfig.Follower is a read
// replica. It refuses writes (Ingest/IngestBatch/Retire fail with
// ErrNotLeader), and instead implements replica.Applier: records shipped
// from the leader go through the function recovery replay uses
// (applyRecords), which appends each run to the follower's own WAL *at
// the leader's sequence numbers* (wal.AppendBatchAt) on the shard worker
// that applies it.
// Because the follower mirrors leader numbering, its log, crash recovery
// and replication-resume position all speak leader offsets — and after
// Promote, appends simply continue the leader's sequence, so a promoted
// follower's saved state is byte-identical to the state an uninterrupted
// leader would have saved. The leader's snapshot passes reach the
// follower as state and pass records like any other, and a pass record
// truncates the follower's log as the pass truncated the leader's.
// A follower the leader has truncated past, or whose log has diverged
// from the leader's, resets (Reset): it drops its log and state and
// streams the leader's whole log.
//
// The read path is fully live on a follower: shards publish frozen
// snapshots as replicated records are applied, so /v1/predict serves
// warm reads whose staleness is the replication lag plus the freeze
// cadence.

// ErrNotLeader reports a write routed to a follower replica. HTTP maps
// it to 409 Conflict; clients should retry against the leader.
var ErrNotLeader = errors.New("orfdisk: not the leader (follower replicas are read-only)")

// ErrSyncUnacked reports a synchronous-commit write that is durable on
// the leader but was not acknowledged by the configured number of
// followers in time. The record is NOT lost — it is fsynced locally
// and will ship when a follower reattaches — but it does not yet have
// the cross-node durability SyncAcks promises. HTTP maps it to 503
// with Retry-After; clients must treat the write as indeterminate.
var ErrSyncUnacked = errors.New("orfdisk: write durable locally but not acknowledged by enough followers")

// errNotFollower refuses Follow on an engine that leads or ships its
// log: a demoted leader rejoins a group by restarting as a follower.
var errNotFollower = errors.New("orfdisk: not a follower: refusing to re-point")

// ShipWAL makes addr (e.g. ":9480"; "127.0.0.1:0" in tests) where the
// engine serves its log to followers. On a leader it starts a
// replica.Source on the engine's log, metrics registry and logger at
// once; on a follower it only records addr, and Promote starts the
// source. The running source is the synchronous-commit ack waiter, and
// its address is what /v1/replication reports, so a routing tier can
// re-point survivors at it after a promotion. Requires a DataDir.
func (e *Engine) ShipWAL(addr string) error {
	if e.cfg.DataDir == "" {
		return errors.New("orfdisk: shipping the WAL requires a DataDir")
	}
	e.roleMu.Lock()
	defer e.roleMu.Unlock()
	if e.closed || e.src.Load() != nil {
		return errors.New("orfdisk: engine closed or already shipping its WAL")
	}
	e.shipAddr = addr
	if e.follower.Load() {
		return nil
	}
	return e.startSourceLocked()
}

// startSourceLocked starts shipping the log at shipAddr; roleMu held.
func (e *Engine) startSourceLocked() error {
	src, err := replica.NewSource(e.shipAddr, replica.SourceConfig{WAL: e.wal, Metrics: e.reg, Logger: e.log})
	if err != nil {
		return err
	}
	e.src.Store(src)
	e.log.Info("shipping WAL to followers", "addr", src.Addr(), "sync_acks", e.syncAcks)
	return nil
}

// Follow points a follower's replication client at the leader source
// at addr: the running client, if any, stops first, then one with the
// engine as its Applier dials addr. The routing tier calls it (POST
// /v1/follow) on survivors after a promotion. It refuses on a leader,
// and on a demoted one still shipping its log.
func (e *Engine) Follow(addr string) error {
	e.roleMu.Lock()
	defer e.roleMu.Unlock()
	if e.closed || !e.follower.Load() || e.src.Load() != nil {
		return errNotFollower
	}
	if e.client != nil {
		e.client.Close()
		e.client = nil
	}
	client, err := replica.StartFollower(addr, replica.FollowerConfig{Applier: e, Metrics: e.reg, Logger: e.log})
	if err != nil {
		return err
	}
	e.client = client
	e.log.Info("following leader", "leader", addr,
		"ready_max_lag", e.readyMaxLag, "ready_max_silence", e.readyMaxSilence)
	return nil
}

// waitSyncAcks gates a leader write behind follower acks when
// synchronous commit is on. The record is already applied and in the
// WAL; Sync makes it durable (and shippable — the source only streams
// fsynced records), then the waiter parks until SyncAcks followers
// have fsynced it too. Concurrent writers share fsyncs (group commit):
// a Sync that finds nothing dirty is a mutex acquire.
func (e *Engine) waitSyncAcks(seq uint64) error {
	if e.syncAcks <= 0 || e.follower.Load() {
		return nil
	}
	if err := e.wal.Sync(); err != nil {
		return err
	}
	src := e.src.Load()
	if src == nil {
		return fmt.Errorf("%w: no replication source attached", ErrSyncUnacked)
	}
	if err := src.WaitAcked(seq, e.syncAcks, e.syncAckTimeout); err != nil {
		return fmt.Errorf("%w: %v", ErrSyncUnacked, err)
	}
	return nil
}

// IsFollower reports whether the engine currently refuses writes.
func (e *Engine) IsFollower() bool { return e.follower.Load() }

// WAL exposes the engine's write-ahead log for replication (a
// replica.Source ships it to followers). Nil without a DataDir.
func (e *Engine) WAL() *wal.WAL { return e.wal }

// ReplicationResume returns the last leader sequence number this engine
// has durably applied (0 before any). Part of replica.Applier: it is
// the handshake resume position and the value of every ack.
func (e *Engine) ReplicationResume() uint64 { return e.replApplied.Load() }

// ObserveLeaderHead records the leader's newest committed sequence
// number and the leader-side send time of the frame that carried it.
// Part of replica.Applier; feeds the replica_lag_* gauges and Ready.
// The local receipt time is recorded too: Ready uses it to detect a
// silently dead stream, which freezes the observed head and would
// otherwise read as zero lag forever.
func (e *Engine) ObserveLeaderHead(head uint64, sentAt time.Time) {
	e.leaderHead.Store(head)
	e.leaderSent.Store(sentAt.UnixNano())
	e.lastFrame.Store(time.Now().UnixNano())
}

// ApplyReplicated durably applies a batch of leader records: applyRecords
// logs each run at the leader's sequence numbers and applies it on its
// shard's worker, and the log is fsynced before return, so the ack that
// follows only ever covers crash-safe state. Once a pass record is
// logged and fsynced, the log is truncated before the pass's first
// sequence number, as the leader's was. Part of replica.Applier.
func (e *Engine) ApplyReplicated(recs []replica.Record) error {
	if !e.follower.Load() {
		// A promoted (or misconfigured) engine must not mix a replication
		// stream into its own appends.
		return ErrNotLeader
	}
	// Drop duplicate deliveries (a reconnect resends from the last ack).
	// recs ascends strictly, as the leader's cursor emits it, so what is
	// left is a suffix of it, all above the log's tail.
	applied := e.replApplied.Load()
	for len(recs) > 0 && recs[0].Seq <= applied {
		recs = recs[1:]
	}
	last, err := e.applyRecords(applyReplicated, func(apply func(uint64, []byte) error) error {
		for _, r := range recs {
			if err := apply(r.Seq, r.Payload); err != nil {
				return err
			}
		}
		return nil
	})
	// The log ends where the shards do: a run a shard sheds (ErrBusy) is
	// neither logged nor applied, and is redelivered after the next
	// handshake, which acks last — so last is synced on an error too.
	if serr := e.wal.Sync(); err == nil {
		err = serr
	}
	if first := e.passFirst.Load(); err == nil && first > e.cut && e.lastPass.Load() <= last {
		if err = e.wal.TruncateBefore(first); err == nil {
			e.cut = first
		}
	}
	// Published last, so a reader of ReplicationResume finds the log
	// synced and truncated as far as the position says.
	if last > applied {
		e.replApplied.Store(last)
	}
	return err
}

// Reset implements replica.Resetter: it drops the follower's log and
// state, leaving an empty log whose next record is oldest, the leader's
// oldest segment, so the next session streams the leader's whole log.
// The log goes first (wal.WAL.Reset), so a crash at any step leaves the
// old log or none, and an empty log only resets again. Runs on the
// replication client's goroutine, the one that calls ApplyReplicated.
func (e *Engine) Reset(oldest uint64) error {
	if !e.follower.Load() {
		return ErrNotLeader
	}
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	w, err := e.wal.Reset(oldest)
	if err != nil {
		return err
	}
	e.wal = w
	if err := e.pool.Reset(); err != nil {
		return err
	}
	e.mu.Lock()
	e.modelOf = make(map[string]string)
	e.mu.Unlock()
	// A model the leader's log does not hold would otherwise keep
	// serving its last frozen snapshot: the read path reports it unknown
	// until a record of it arrives.
	e.frozen.Range(func(_, v any) bool {
		v.(*frozenSlot).pub.Store(nil)
		return true
	})
	e.bf.mu.Lock()
	e.bf.bfResume = bfResume{}
	e.bf.mu.Unlock()
	e.lastPass.Store(0)
	e.passFirst.Store(0)
	e.cut = 0
	e.replApplied.Store(oldest - 1)
	e.log.Warn("follower reset: streaming the leader's log from its oldest record", "oldest", oldest)
	return nil
}

// lagRecords returns how many leader records the follower has yet to
// apply (0 for leaders and caught-up followers).
func (e *Engine) lagRecords() uint64 {
	if !e.follower.Load() {
		return 0
	}
	head, applied := e.leaderHead.Load(), e.replApplied.Load()
	if head <= applied {
		return 0
	}
	return head - applied
}

// lagSeconds estimates replication staleness: 0 when caught up, else
// the age of the newest leader frame the follower has not fully applied.
func (e *Engine) lagSeconds() float64 {
	if e.lagRecords() == 0 {
		return 0
	}
	sent := e.leaderSent.Load()
	if sent == 0 {
		return 0
	}
	return time.Since(time.Unix(0, sent)).Seconds()
}

// ReplicationStatus is the GET /v1/replication report.
type ReplicationStatus struct {
	Role        string  `json:"role"` // "leader" | "follower"
	Applied     uint64  `json:"applied_seq"`
	LeaderHead  uint64  `json:"leader_head,omitempty"`
	LagRecords  uint64  `json:"lag_records"`
	LagSeconds  float64 `json:"lag_seconds"`
	ReadyMaxLag uint64  `json:"ready_max_lag,omitempty"`
	// SilenceSeconds is how long ago the follower last heard any frame
	// from its leader (0 until the first frame, and on leaders).
	SilenceSeconds float64 `json:"silence_seconds,omitempty"`
	// SyncAcks is the leader's synchronous-commit requirement: writes
	// are acknowledged only after this many followers fsync them
	// (0 = asynchronous replication).
	SyncAcks int `json:"sync_acks,omitempty"`
	// ReplicateAddr is the address of the replication listener this
	// leader serves, when ShipWAL started one — the routing tier re-points
	// surviving followers at it after a promotion.
	ReplicateAddr string `json:"replicate_addr,omitempty"`
}

// Replication reports the engine's replication role and lag. The
// follower branch deliberately avoids e.wal: a follower's WAL handle
// is swapped during a reset, and the applied position lives in an
// atomic either way.
func (e *Engine) Replication() ReplicationStatus {
	if e.follower.Load() {
		st := ReplicationStatus{
			Role:        "follower",
			Applied:     e.replApplied.Load(),
			LeaderHead:  e.leaderHead.Load(),
			LagRecords:  e.lagRecords(),
			LagSeconds:  e.lagSeconds(),
			ReadyMaxLag: e.readyMaxLag,
		}
		if last := e.lastFrame.Load(); last != 0 {
			st.SilenceSeconds = time.Since(time.Unix(0, last)).Seconds()
		}
		return st
	}
	st := ReplicationStatus{Role: "leader", Applied: e.wallessApplied(), SyncAcks: e.syncAcks}
	if src := e.src.Load(); src != nil {
		st.ReplicateAddr = src.Addr()
	}
	return st
}

// wallessApplied is the leader-side applied position (newest committed
// sequence number), tolerating the in-memory (no WAL) configuration.
func (e *Engine) wallessApplied() uint64 {
	if e.wal == nil {
		return 0
	}
	return e.wal.NextSeq() - 1
}

// Ready reports whether the engine should receive traffic: a leader is
// ready once NewEngine has returned (recovery complete); a follower is
// ready once it has heard from its leader (a replica.Source sends its
// status as the follower attaches, so a caught-up one is ready then,
// not a heartbeat later), its lag is at most EngineConfig.ReadyMaxLag
// records, and a leader frame has arrived within
// EngineConfig.ReadyMaxSilence. The reason is empty when ready.
func (e *Engine) Ready() (bool, string) {
	if !e.follower.Load() {
		return true, ""
	}
	if e.leaderSent.Load() == 0 {
		return false, "follower has not heard from its leader yet"
	}
	if lag := e.lagRecords(); lag > e.readyMaxLag {
		return false, fmt.Sprintf("replication lag %d records exceeds limit %d", lag, e.readyMaxLag)
	}
	// A dead stream freezes leaderHead, so the lag check above reads 0
	// exactly when the replica is at its stalest. Silence — no frame, not
	// even a heartbeat — is the signal that catches it.
	if last := e.lastFrame.Load(); last != 0 {
		if silence := time.Since(time.Unix(0, last)); silence > e.readyMaxSilence {
			return false, fmt.Sprintf("no leader frame for %s (limit %s): leader dead or partitioned",
				silence.Round(time.Millisecond), e.readyMaxSilence)
		}
	}
	return true, ""
}

// Promote turns a follower into a leader. Idempotent; safe to call on a
// leader (no-op). The replication client stops first, so no leader
// record lands after the engine's own; then the engine accepts writes,
// continuing the leader's sequence numbering, and starts shipping its
// log at the address ShipWAL recorded.
//
// Promote does not contact the old leader: the caller (a routing tier,
// an operator) decides when the leader is dead. Promoting while the old
// leader still accepts writes forks the logs — exactly the split-brain
// every external failover system risks; fence the old leader first.
func (e *Engine) Promote() {
	e.roleMu.Lock()
	defer e.roleMu.Unlock()
	if e.closed || !e.follower.Load() {
		return
	}
	if e.client != nil {
		e.client.Close()
		e.client = nil
	}
	e.follower.Store(false)
	e.log.Info("promoted to leader", "applied_seq", e.replApplied.Load())
	if e.shipAddr != "" && e.src.Load() == nil {
		if err := e.startSourceLocked(); err != nil {
			e.log.Error("promotion: replication listener failed", "addr", e.shipAddr, "err", err)
		}
	}
}

// Demote turns a leader back into a write-refusing follower: Ingest,
// IngestBatch and Retire fail with ErrNotLeader immediately. It is the
// fencing half of failover — a routing tier (or operator) demotes a
// suspect old leader before or after promoting a replacement, so a
// resurrected process cannot keep accepting direct writes and fork the
// log. A demoted engine has no replication client pulling from the new
// leader, and Follow refuses it while it ships its log; it also reports
// not-ready, keeping it out of read rotations until it is restarted as
// a follower to rejoin the group as a real replica. Idempotent; a no-op
// on an engine that is already a follower.
func (e *Engine) Demote() {
	e.roleMu.Lock()
	defer e.roleMu.Unlock()
	if !e.follower.CompareAndSwap(false, true) {
		return
	}
	// Seed the follower-side position from the leader-side one so
	// Replication() and any later resume speak the WAL tail, not zero.
	e.replApplied.Store(e.wallessApplied())
	e.log.Warn("demoted: refusing writes until restarted as a follower",
		"applied_seq", e.replApplied.Load())
}

// registerReplicaGauges surfaces follower lag for scraping. Registered
// for every engine: leaders (and promoted followers) read 0.
func (e *Engine) registerReplicaGauges() {
	e.reg.GaugeFunc("replica_lag_records",
		"Leader records not yet applied by this follower (0 on leaders); a record is one append: a run of up to 1024 rows, or a whole model's state.",
		func() float64 { return float64(e.lagRecords()) })
	e.reg.GaugeFunc("replica_lag_seconds",
		"Age of the newest unapplied leader frame (0 when caught up or leading).",
		func() float64 { return e.lagSeconds() })
}
