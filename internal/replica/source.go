package replica

import (
	"bufio"
	"context"
	"errors"
	"log/slog"
	"net"
	"sort"
	"sync"
	"time"

	"orfdisk/internal/metrics"
	"orfdisk/internal/wal"
)

// SourceConfig configures a leader-side replication source. Zero values
// select defaults.
type SourceConfig struct {
	// WAL is the log to ship. Required.
	WAL *wal.WAL
	// Heartbeat is the idle keep-alive cadence carrying the leader's
	// head position to followers (default 500 ms). A follower does not
	// wait this long for its first status: one is sent as it attaches.
	Heartbeat time.Duration
	// Metrics receives the replication_* families. Nil registers into a
	// private registry.
	Metrics *metrics.Registry
	// Logger receives structured replication events. Nil discards them.
	Logger *slog.Logger
}

// batchRecords and batchBytes bound one records frame; writeTimeout, one
// frame write to a stalled follower.
const (
	batchRecords = 512
	batchBytes   = 1 << 20
	writeTimeout = 30 * time.Second
)

func (c *SourceConfig) fill() {
	if c.Heartbeat <= 0 {
		c.Heartbeat = 500 * time.Millisecond
	}
	if c.Logger == nil {
		c.Logger = slog.New(discardHandler{})
	}
}

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

type sourceMetrics struct {
	records      *metrics.Counter
	bytes        *metrics.Counter
	segments     *metrics.Counter
	frames       *metrics.Counter
	acked        *metrics.Gauge
	syncTimeouts *metrics.Counter
}

// Source is the leader side of WAL-shipping replication: it accepts
// follower connections, tails the WAL from each follower's acknowledged
// position, and streams committed records. Follower acks feed the WAL's
// retain floor so snapshots never truncate segments an attached
// follower still needs.
type Source struct {
	cfg SourceConfig
	ln  net.Listener
	met sourceMetrics

	mu         sync.Mutex
	conns      map[*srcConn]struct{}
	floor      uint64 // sticky min acked position across followers
	closed     bool
	waiters    []*ackWaiter
	ackScratch []uint64

	wg sync.WaitGroup
}

// ErrSourceClosed reports a WaitAcked call on a closed Source.
var ErrSourceClosed = errors.New("replica: source closed")

// ErrAckTimeout reports that WaitAcked gave up before enough followers
// acknowledged the sequence number.
var ErrAckTimeout = errors.New("replica: timed out waiting for follower acks")

// ackWaiter parks one WaitAcked call until k followers have durably
// acknowledged seq. The channel is buffered so noteAck never blocks.
type ackWaiter struct {
	seq uint64
	k   int
	ch  chan error
}

type srcConn struct {
	c      net.Conn
	acked  uint64 // guarded by Source.mu
	ready  bool   // handshake completed; guarded by Source.mu
	closed chan struct{}
	once   sync.Once
}

func (sc *srcConn) shutdown() {
	sc.once.Do(func() {
		close(sc.closed)
		sc.c.Close()
	})
}

// NewSource starts a replication source listening on addr
// (e.g. ":9480"; use "127.0.0.1:0" in tests).
func NewSource(addr string, cfg SourceConfig) (*Source, error) {
	if cfg.WAL == nil {
		return nil, errors.New("replica: SourceConfig.WAL is required")
	}
	cfg.fill()
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Source{
		cfg:   cfg,
		ln:    ln,
		conns: make(map[*srcConn]struct{}),
		met: sourceMetrics{
			records:      reg.Counter("replication_records_shipped_total", "WAL records streamed to follower replicas."),
			bytes:        reg.Counter("replication_bytes_shipped_total", "Payload bytes streamed to follower replicas."),
			segments:     reg.Counter("replication_segments_shipped_total", "WAL segments fully streamed to a follower (counted per stream)."),
			frames:       reg.Counter("replication_frames_shipped_total", "Protocol frames (records + heartbeats) sent to followers."),
			acked:        reg.Gauge("replication_min_acked_seq", "Lowest follower-acknowledged WAL sequence number (the truncation retain floor)."),
			syncTimeouts: reg.Counter("replication_sync_ack_timeouts_total", "Synchronous-commit waits that timed out before enough follower acks."),
		},
	}
	reg.GaugeFunc("replication_followers", "Follower replicas currently attached (handshake completed).", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		n := 0
		for c := range s.conns {
			if c.ready {
				n++
			}
		}
		return float64(n)
	})
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's address (useful with ":0").
func (s *Source) Addr() string { return s.ln.Addr().String() }

// Close stops accepting followers and tears down every stream.
func (s *Source) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for sc := range s.conns {
		sc.shutdown()
	}
	for _, w := range s.waiters {
		w.ch <- ErrSourceClosed
	}
	s.waiters = nil
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Source) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		sc := &srcConn{c: c, closed: make(chan struct{})}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[sc] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			err := s.serve(sc)
			if err != nil && !errors.Is(err, net.ErrClosed) {
				s.cfg.Logger.Warn("replication stream ended", "remote", c.RemoteAddr(), "err", err)
			}
			sc.shutdown()
			s.mu.Lock()
			delete(s.conns, sc)
			s.mu.Unlock()
		}()
	}
}

// noteAck records a follower's durable position and re-derives the WAL
// retain floor (sticky: the floor never drops when followers detach, so
// a briefly-disconnected replica can still resume after a snapshot).
// Only handshake-completed connections participate in the floor: an
// accepted-but-silent connection (a port scanner, a load balancer's TCP
// check) has no resume position and must not pin truncation at zero.
func (s *Source) noteAck(sc *srcConn, seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sc.ready = true
	if seq > sc.acked {
		sc.acked = seq
	}
	min := uint64(0)
	first := true
	for c := range s.conns {
		if !c.ready {
			continue
		}
		if first || c.acked < min {
			min, first = c.acked, false
		}
	}
	if first {
		return
	}
	s.floor = min + 1
	s.cfg.WAL.SetRetainFloor(s.floor)
	s.met.acked.Set(float64(min))
	s.wakeWaitersLocked()
}

// wakeWaitersLocked satisfies every parked WaitAcked call whose target
// is now covered by enough follower acks. Caller holds s.mu.
func (s *Source) wakeWaitersLocked() {
	if len(s.waiters) == 0 {
		return
	}
	vals := s.ackScratch[:0]
	for c := range s.conns {
		if c.ready {
			vals = append(vals, c.acked)
		}
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] > vals[j] })
	s.ackScratch = vals
	kept := s.waiters[:0]
	for _, w := range s.waiters {
		if w.k <= len(vals) && vals[w.k-1] >= w.seq {
			w.ch <- nil
		} else {
			kept = append(kept, w)
		}
	}
	for i := len(kept); i < len(s.waiters); i++ {
		s.waiters[i] = nil
	}
	s.waiters = kept
}

// ackedByLocked returns the k-th highest follower-acknowledged
// sequence number (0 when fewer than k streaming followers are
// attached).
// Caller holds s.mu.
func (s *Source) ackedByLocked(k int) uint64 {
	vals := s.ackScratch[:0]
	for c := range s.conns {
		if c.ready {
			vals = append(vals, c.acked)
		}
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] > vals[j] })
	s.ackScratch = vals
	if k > len(vals) {
		return 0
	}
	return vals[k-1]
}

// WaitAcked blocks until at least k attached followers have durably
// acknowledged seq, the timeout elapses (ErrAckTimeout), or the source
// closes (ErrSourceClosed). k <= 0 returns immediately. This is the
// synchronous-commit primitive: a leader that waits on the seq of a
// write before answering the client guarantees the write survives the
// loss of the leader plus k-1 followers.
func (s *Source) WaitAcked(seq uint64, k int, timeout time.Duration) error {
	if k <= 0 {
		return nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrSourceClosed
	}
	if s.ackedByLocked(k) >= seq {
		s.mu.Unlock()
		return nil
	}
	w := &ackWaiter{seq: seq, k: k, ch: make(chan error, 1)}
	s.waiters = append(s.waiters, w)
	s.mu.Unlock()

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case err := <-w.ch:
		return err
	case <-timer.C:
		s.mu.Lock()
		found := false
		for i, x := range s.waiters {
			if x == w {
				s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
				found = true
				break
			}
		}
		s.mu.Unlock()
		if !found {
			// Satisfied (or closed) between the timer firing and the
			// removal attempt; the verdict is already in the channel.
			return <-w.ch
		}
		s.met.syncTimeouts.Inc()
		return ErrAckTimeout
	}
}

func (s *Source) serve(sc *srcConn) error {
	// head is the durable (fsync-covered) tail, not the in-memory one:
	// a record shipped before its fsync could be retracted by a leader
	// power failure and its sequence number reused for different data —
	// divergence no CRC would ever catch.
	head := func() uint64 { return s.cfg.WAL.SyncedSeq() }

	// Handshake: learn the follower's resume position, refuse positions
	// truncation has already passed and positions past our own durable
	// head (the logs have diverged); either way the follower resets and
	// comes back from the oldest segment the reply names.
	sc.c.SetReadDeadline(time.Now().Add(10 * time.Second))
	resume, err := readHandshake(sc.c)
	if err != nil {
		return err
	}
	sc.c.SetReadDeadline(time.Time{})
	oldest, err := s.cfg.WAL.OldestSegment()
	if err != nil {
		return err
	}
	if err := writeHandshakeReply(sc.c, oldest, head()); err != nil {
		return err
	}
	if resume+1 < oldest {
		return ErrResumeTooOld
	}
	if resume > head() {
		return ErrFollowerAhead
	}
	s.cfg.Logger.Info("follower attached", "remote", sc.c.RemoteAddr(), "resume_after", resume)
	s.noteAck(sc, resume)

	cur, err := wal.OpenCursor(s.cfg.WAL.Dir(), resume)
	if err != nil {
		return err
	}
	defer cur.Close()

	// Ack reader: the only reader of this connection after handshake.
	go func() {
		var buf []byte
		for {
			typ, payload, nbuf, err := readFrame(sc.c, buf)
			if err != nil {
				sc.shutdown()
				return
			}
			buf = nbuf
			if typ != frameAck {
				s.cfg.Logger.Warn("unexpected frame from follower", "type", typ)
				sc.shutdown()
				return
			}
			seq, err := decodeAckPayload(payload)
			if err != nil {
				sc.shutdown()
				return
			}
			s.noteAck(sc, seq)
		}
	}()

	watch := s.cfg.WAL.Watch()
	defer s.cfg.WAL.Unwatch(watch)
	hb := time.NewTicker(s.cfg.Heartbeat)
	defer hb.Stop()

	bw := bufio.NewWriterSize(sc.c, 64<<10)
	send := func(typ byte, payload []byte) error {
		sc.c.SetWriteDeadline(time.Now().Add(writeTimeout))
		if err := writeFrame(bw, typ, payload); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		s.met.frames.Inc()
		return nil
	}

	// The follower learns where the head is as it attaches, not a
	// heartbeat interval later: until a status reaches it, it cannot tell
	// caught up from never connected and reports itself not ready.
	frameBuf := appendStatus(nil, head(), time.Now())
	if err := send(frameHeartbeat, frameBuf); err != nil {
		return err
	}

	var (
		data []byte // flat payload arena for one batch
		offs []int
		seqs []uint64
		recs []Record
		// Durability gate: a record read past the durable head is parked
		// here (copied — cursor payloads alias its buffer) until an fsync
		// covers it. The WAL notifies watchers on sync as well as append,
		// so the wait below wakes when the record becomes shippable. A
		// durable record that would take a non-empty frame past
		// batchBytes is parked too, and starts the next frame: a record
		// as large as the log allows then ships alone, within
		// maxFramePayload.
		pendSeq uint64
		pendBuf []byte
		pending bool
	)
	lastSeg := uint64(0)
	for {
		select {
		case <-sc.closed:
			return nil
		default:
		}
		// Gather up to one frame's worth of durable records.
		durable := head()
		data, offs, seqs = data[:0], offs[:0], seqs[:0]
		if pending && pendSeq <= durable {
			offs = append(offs, len(data))
			data = append(data, pendBuf...)
			seqs = append(seqs, pendSeq)
			pending = false
			if cap(pendBuf) > retainBytes {
				pendBuf = nil
			}
		}
		for !pending && len(seqs) < batchRecords && len(data) < batchBytes {
			seq, p, err := cur.Next()
			if errors.Is(err, wal.ErrNoMore) {
				break
			}
			if err != nil {
				return err
			}
			if seq > durable || len(seqs) > 0 && len(data)+len(p) > batchBytes {
				pendSeq, pendBuf, pending = seq, append(pendBuf[:0], p...), true
				break
			}
			offs = append(offs, len(data))
			data = append(data, p...)
			seqs = append(seqs, seq)
		}
		if seg := cur.Segment(); seg != lastSeg {
			if lastSeg != 0 {
				s.met.segments.Inc()
			}
			lastSeg = seg
		}
		if len(seqs) == 0 {
			select {
			case <-sc.closed:
				return nil
			case <-watch:
			case <-hb.C:
				frameBuf = appendStatus(frameBuf[:0], head(), time.Now())
				if err := send(frameHeartbeat, frameBuf); err != nil {
					return err
				}
			}
			continue
		}
		recs = recs[:0]
		for i, off := range offs {
			end := len(data)
			if i+1 < len(offs) {
				end = offs[i+1]
			}
			recs = append(recs, Record{Seq: seqs[i], Payload: data[off:end]})
		}
		frameBuf = appendRecordsPayload(frameBuf[:0], head(), time.Now(), recs)
		if err := send(frameRecords, frameBuf); err != nil {
			return err
		}
		s.met.records.Add(uint64(len(recs)))
		s.met.bytes.Add(uint64(len(data)))
		if cap(frameBuf) > retainBytes {
			data, frameBuf, recs = nil, nil, nil
		}
	}
}
