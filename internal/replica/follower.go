package replica

import (
	"errors"
	"io"
	"log/slog"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"orfdisk/internal/metrics"
)

// Applier is the follower-side sink for the replication stream —
// implemented by the engine's follower mode.
type Applier interface {
	// ApplyReplicated durably applies a batch of leader records in
	// order (sequence numbers ascend strictly, as the leader's log has
	// them). When it returns, the records must survive a follower crash
	// (they are acknowledged to the leader, which may then truncate).
	ApplyReplicated(recs []Record) error
	// ReplicationResume returns the last durably applied leader
	// sequence number (0 before any) — the handshake resume position
	// and the ack value.
	ReplicationResume() uint64
	// ObserveLeaderHead records the leader's newest committed sequence
	// number and the leader-side send time of the frame carrying it,
	// for lag accounting. Called for every frame, heartbeats included.
	ObserveLeaderHead(head uint64, sentAt time.Time)
}

// Resetter is what an Applier also implements to recover from
// divergence by itself. When the leader has truncated past the
// follower's resume position (ErrResumeTooOld), or the follower is ahead
// of the leader's durable head (ErrFollowerAhead), the follower calls
// Reset with the leader's oldest segment: the applier drops its durable
// log and state and continues from an empty log whose next record is
// oldest, so that ReplicationResume reports oldest-1 and the next
// session streams the leader's whole log. An Applier without it stops
// following for good on either error.
type Resetter interface {
	Reset(oldest uint64) error
}

// FollowerConfig configures a replication client. Zero values select
// defaults.
type FollowerConfig struct {
	// Applier consumes the stream. Required.
	Applier Applier
	// RetryInterval is the pause between reconnect attempts
	// (default 500 ms).
	RetryInterval time.Duration
	// ReadTimeout bounds the silence the follower tolerates between
	// leader frames before tearing the stream down and redialing. The
	// leader heartbeats every 500 ms by default, so the default (10 s)
	// is ~20 missed heartbeats: a silent partition (no RST ever
	// arrives), not jitter. Without it a dead link would block the read
	// forever while the follower kept reporting a live stream.
	ReadTimeout time.Duration
	// Metrics receives the replica_connection_* families. Nil registers
	// into a private registry.
	Metrics *metrics.Registry
	// Logger receives structured events. Nil discards them.
	Logger *slog.Logger
}

// dialTimeout bounds one connection attempt.
const dialTimeout = 5 * time.Second

var errClosed = errors.New("replica: follower closed")

func (c *FollowerConfig) fill() {
	if c.RetryInterval <= 0 {
		c.RetryInterval = 500 * time.Millisecond
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 10 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
	}
}

// Follower streams WAL records from a leader Source into an Applier,
// acknowledging applied positions and reconnecting (from the last
// durable position) after any failure.
type Follower struct {
	addr string
	cfg  FollowerConfig

	reconnects *metrics.Counter
	reseeds    *metrics.Counter
	connected  atomic.Bool
	fatal      atomic.Pointer[error]

	mu   sync.Mutex
	conn net.Conn
	stop chan struct{}
	done chan struct{}
}

// StartFollower connects to the leader source at addr and begins
// streaming in a background goroutine. It returns immediately; use
// Connected/Err to observe progress and Close to stop.
func StartFollower(addr string, cfg FollowerConfig) (*Follower, error) {
	if cfg.Applier == nil {
		return nil, errors.New("replica: FollowerConfig.Applier is required")
	}
	cfg.fill()
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	f := &Follower{
		addr: addr,
		cfg:  cfg,
		reconnects: reg.Counter("replica_connection_attempts_total",
			"Connections (initial and reconnect) the follower has made to its leader."),
		reseeds: reg.Counter("replica_reseeds_total",
			"Resets after divergence: the follower dropped its log and state to stream from the leader's oldest record."),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	reg.GaugeFunc("replica_connected", "1 while the follower holds a live replication stream.", func() float64 {
		if f.connected.Load() {
			return 1
		}
		return 0
	})
	go f.loop()
	return f, nil
}

// Connected reports whether a replication stream is currently live.
func (f *Follower) Connected() bool { return f.connected.Load() }

// Err returns the fatal error that permanently stopped the follower
// (e.g. ErrResumeTooOld), or nil while it is running/retrying.
func (f *Follower) Err() error {
	if p := f.fatal.Load(); p != nil {
		return *p
	}
	return nil
}

// Close stops the stream and waits for the background goroutine.
func (f *Follower) Close() error {
	f.mu.Lock()
	select {
	case <-f.stop:
		f.mu.Unlock()
		<-f.done
		return nil
	default:
	}
	close(f.stop)
	if f.conn != nil {
		f.conn.Close()
	}
	f.mu.Unlock()
	<-f.done
	return nil
}

func (f *Follower) stopped() bool {
	select {
	case <-f.stop:
		return true
	default:
		return false
	}
}

func (f *Follower) loop() {
	defer close(f.done)
	for !f.stopped() {
		f.reconnects.Inc()
		oldest, err := f.run()
		f.connected.Store(false)
		if f.stopped() {
			return
		}
		if errors.Is(err, ErrResumeTooOld) || errors.Is(err, ErrFollowerAhead) {
			r, ok := f.cfg.Applier.(Resetter)
			if ok {
				f.cfg.Logger.Warn("replication diverged; dropping local state to stream from the leader's oldest record",
					"err", err, "oldest", oldest)
				if err = r.Reset(oldest); err == nil {
					f.reseeds.Inc()
					continue
				}
			}
			e := err
			f.fatal.Store(&e)
			f.cfg.Logger.Error("replication permanently stopped", "err", err)
			return
		}
		if err != nil {
			f.cfg.Logger.Warn("replication stream lost; retrying", "leader", f.addr, "err", err)
		}
		select {
		case <-f.stop:
			return
		case <-time.After(f.cfg.RetryInterval):
		}
	}
}

// dial connects to the leader and registers the connection for Close to
// tear down; hangUp unregisters and closes it.
func (f *Follower) dial() (conn net.Conn, hangUp func(), err error) {
	if conn, err = net.DialTimeout("tcp", f.addr, dialTimeout); err != nil {
		return nil, nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stopped() {
		conn.Close()
		return nil, nil, errClosed
	}
	f.conn = conn
	return conn, func() {
		f.mu.Lock()
		f.conn = nil
		f.mu.Unlock()
		conn.Close()
	}, nil
}

// run is one session. On divergence it returns the leader's oldest
// segment with the error, for a reset.
func (f *Follower) run() (oldest uint64, err error) {
	conn, hangUp, err := f.dial()
	if err != nil {
		return 0, err
	}
	defer hangUp()

	resume := f.cfg.Applier.ReplicationResume()
	if err := writeHandshake(conn, resume); err != nil {
		return 0, err
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	oldest, head, err := readHandshakeReply(conn)
	if err != nil {
		return 0, err
	}
	if resume+1 < oldest {
		return oldest, ErrResumeTooOld
	}
	if resume > head {
		// The leader only reports (and ships) fsync-durable records, so
		// being ahead of its head means the logs diverged; resuming
		// would silently skip records.
		return oldest, ErrFollowerAhead
	}
	f.connected.Store(true)
	f.cfg.Logger.Info("replication stream established",
		"leader", f.addr, "resume_after", resume, "leader_head", head)

	var (
		buf, ackBuf []byte
		recs        []Record
		sentAt      time.Time
	)
	for {
		// Heartbeats arrive every Source.Heartbeat even when idle, so a
		// read deadline several multiples beyond it only ever fires on a
		// silent partition — without it this read blocks forever and the
		// follower serves unboundedly stale reads while reporting a live
		// stream.
		conn.SetReadDeadline(time.Now().Add(f.cfg.ReadTimeout))
		body, nbuf, err := readFrame(conn, frameRecords, buf)
		if err != nil {
			return 0, err
		}
		buf = nbuf
		// The whole frame is checked before any of it is applied: a bad
		// record tears the session down with nothing at or past it
		// applied or acked, and the next one resumes from the last ack.
		if head, sentAt, recs, err = decodeRecords(body, recs[:0]); err != nil {
			return 0, err
		}
		if len(recs) > 0 {
			if err := f.cfg.Applier.ApplyReplicated(recs); err != nil {
				return 0, err
			}
		}
		if cap(buf) > retainBytes {
			buf, recs = nil, nil // recs alias buf
		}
		f.cfg.Applier.ObserveLeaderHead(head, sentAt)
		ackBuf = appendAck(ackBuf, f.cfg.Applier.ReplicationResume())
		conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
		if _, err := conn.Write(ackBuf); err != nil {
			return 0, err
		}
	}
}
