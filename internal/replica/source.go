package replica

import (
	"encoding/binary"
	"errors"
	"io"
	"log/slog"
	"math"
	"net"
	"slices"
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
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
	}
}

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
	acks := s.acksLocked()
	if len(acks) == 0 {
		return // sc left s.conns while its last ack was in flight
	}
	s.floor = acks[0] + 1
	s.cfg.WAL.SetRetainFloor(s.floor)
	s.met.acked.Set(float64(acks[0]))
	// Satisfy every parked WaitAcked call whose target is now covered by
	// enough follower acks.
	kept := s.waiters[:0]
	for _, w := range s.waiters {
		if ackedBy(acks, w.k) >= w.seq {
			w.ch <- nil
		} else {
			kept = append(kept, w)
		}
	}
	clear(s.waiters[len(kept):])
	s.waiters = kept
}

// acksLocked returns the acknowledged positions of the followers that
// completed their handshake, ascending. The slice is reused by the next
// call. Caller holds s.mu.
func (s *Source) acksLocked() []uint64 {
	acks := s.ackScratch[:0]
	for c := range s.conns {
		if c.ready {
			acks = append(acks, c.acked)
		}
	}
	slices.Sort(acks)
	s.ackScratch = acks
	return acks
}

// ackedBy returns the k-th highest of the ascending positions acks, the
// newest sequence number at least k followers hold (0 when fewer than k
// are attached).
func ackedBy(acks []uint64, k int) uint64 {
	if k > len(acks) {
		return 0
	}
	return acks[len(acks)-k]
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
	if ackedBy(s.acksLocked(), k) >= seq {
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
			body, nbuf, err := readFrame(sc.c, frameAck, buf)
			if err != nil {
				sc.shutdown()
				return
			}
			buf = nbuf
			s.noteAck(sc, binary.LittleEndian.Uint64(body))
		}
	}()

	watch := s.cfg.WAL.Watch()
	defer s.cfg.WAL.Unwatch(watch)
	hb := time.NewTicker(s.cfg.Heartbeat)
	defer hb.Stop()

	// frame is the records frame being built: recordsPrefix bytes of room
	// for its header and status, then records appended as the cursor
	// reads them from the log. With none, it is a heartbeat.
	frame := make([]byte, recordsPrefix)
	send := func() error {
		frame = sealRecords(frame, head(), time.Now())
		sc.c.SetWriteDeadline(time.Now().Add(writeTimeout))
		if _, err := sc.c.Write(frame); err != nil {
			return err
		}
		s.met.frames.Inc()
		return nil
	}

	// The follower learns where the head is as it attaches, not a
	// heartbeat interval later: until a status reaches it, it cannot tell
	// caught up from never connected and reports itself not ready.
	if err := send(); err != nil {
		return err
	}

	var (
		// Durability gate: a record read past the durable head is parked
		// here (copied — cursor records alias its buffer) until an fsync
		// covers it. The WAL notifies watchers on sync as well as append,
		// so the wait below wakes when the record becomes shippable. A
		// durable record that would take a non-empty frame past
		// batchBytes is parked too, and starts the next frame: a record
		// as large as the log allows then ships alone, within
		// maxFramePayload.
		pendSeq uint64
		pendRec []byte
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
		frame = frame[:recordsPrefix]
		n := 0
		if pending && pendSeq <= durable {
			frame = append(frame, pendRec...)
			n, pending = 1, false
			if cap(pendRec) > retainBytes {
				pendRec = nil
			}
		}
		for !pending && n < batchRecords && len(frame) < batchBytes {
			seq, rec, err := cur.NextRecord()
			if errors.Is(err, wal.ErrNoMore) {
				break
			}
			if err != nil {
				return err
			}
			if seq > durable || n > 0 && len(frame)+len(rec) > batchBytes {
				pendSeq, pendRec, pending = seq, append(pendRec[:0], rec...), true
				break
			}
			frame = append(frame, rec...)
			n++
		}
		if seg := cur.Segment(); seg != lastSeg {
			if lastSeg != 0 {
				s.met.segments.Inc()
			}
			lastSeg = seg
		}
		if n == 0 {
			select {
			case <-sc.closed:
				return nil
			case <-watch:
			case <-hb.C:
				if err := send(); err != nil {
					return err
				}
			}
			continue
		}
		if err := send(); err != nil {
			return err
		}
		s.met.records.Add(uint64(n))
		s.met.bytes.Add(uint64(len(frame) - recordsPrefix - n*wal.HeaderSize))
		if cap(frame) > retainBytes {
			frame = make([]byte, recordsPrefix)
		}
	}
}
