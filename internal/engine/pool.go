// Package engine provides the serving engine's concurrency substrate: a
// pool of per-key worker goroutines ("shards"), each owning one state
// value and draining a bounded mailbox of closures. All work for one
// key is executed serially by that key's worker, so shard state needs
// no locking; work for different keys runs in parallel.
//
// Backpressure is explicit: when a mailbox is full, Submit blocks up to
// a configured timeout and then fails with ErrBusy, which callers
// surface as overload (HTTP 503) instead of queueing unboundedly.
package engine

import (
	"errors"
	"sort"
	"sync"
	"time"

	"orfdisk/internal/metrics"
)

var (
	// ErrBusy means a shard's mailbox stayed full past the enqueue
	// timeout — the caller should shed the request.
	ErrBusy = errors.New("engine: shard mailbox full")
	// ErrClosed means the pool has been closed.
	ErrClosed = errors.New("engine: pool closed")
	// ErrUnknownShard is returned by Query for a key with no shard.
	ErrUnknownShard = errors.New("engine: unknown shard")
)

// Config sizes the pool. Zero values select defaults.
type Config struct {
	// Mailbox is the per-shard queue capacity. Default 256.
	Mailbox int
	// EnqueueTimeout bounds how long Submit blocks on a full mailbox
	// before returning ErrBusy. Default 50 ms.
	EnqueueTimeout time.Duration
	// Metrics receives the pool's instrumentation (engine_* families).
	// Nil registers into a private registry.
	Metrics *metrics.Registry
}

func (c *Config) fill() {
	if c.Mailbox <= 0 {
		c.Mailbox = 256
	}
	if c.EnqueueTimeout <= 0 {
		c.EnqueueTimeout = 50 * time.Millisecond
	}
}

// Pool manages one worker goroutine per key, created lazily by a
// factory. S is the per-shard state type, owned exclusively by the
// shard's worker.
type Pool[S any] struct {
	cfg     Config
	factory func(key string) S
	met     poolMetrics

	mu     sync.RWMutex
	shards map[string]*shard[S]
	closed bool
	wg     sync.WaitGroup
}

type shard[S any] struct {
	mbox chan func(S)
	done chan struct{} // closed when the worker exits
	dead bool          // retired by Reset; guarded by Pool.mu
}

// errShardDead is an internal retry signal: the shard a caller looked
// up was retired by Reset between lookup and send.
var errShardDead = errors.New("engine: shard retired")

// poolMetrics is the pool's instrument set. Mailbox depth and shard
// count are gauge functions read only at scrape time, so idle serving
// pays nothing for them; the histograms cost two clock reads per
// message on the paths they time.
type poolMetrics struct {
	enqueueWait *metrics.Histogram
	handler     *metrics.Histogram
	busy        *metrics.Counter
}

// New creates a pool whose shards are built by factory on first use.
// The factory runs under the pool's lock: it must not call back into
// the pool.
func New[S any](cfg Config, factory func(key string) S) *Pool[S] {
	cfg.fill()
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	p := &Pool[S]{
		cfg:     cfg,
		factory: factory,
		shards:  make(map[string]*shard[S]),
		met: poolMetrics{
			enqueueWait: reg.Histogram("engine_enqueue_wait_seconds",
				"Time spent blocked on a full shard mailbox before enqueue (only contended enqueues are observed)."),
			handler: reg.Histogram("engine_handler_seconds",
				"Shard worker time spent executing one unit of work."),
			busy: reg.Counter("engine_busy_total",
				"Work rejected with ErrBusy because a shard mailbox stayed full past the enqueue timeout."),
		},
	}
	reg.GaugeFunc("engine_shards", "Live shard workers.", func() float64 {
		p.mu.RLock()
		defer p.mu.RUnlock()
		return float64(len(p.shards))
	})
	reg.GaugeFuncVec("engine_shard_mailbox_depth",
		"Pending work per shard mailbox, sampled at scrape time.",
		[]string{"shard"},
		func(emit func(v float64, labelValues ...string)) {
			p.mu.RLock()
			keys := make([]string, 0, len(p.shards))
			for k := range p.shards {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			depths := make([]int, len(keys))
			for i, k := range keys {
				depths[i] = len(p.shards[k].mbox)
			}
			p.mu.RUnlock()
			for i, k := range keys {
				emit(float64(depths[i]), k)
			}
		})
	return p
}

func (p *Pool[S]) shardFor(key string, create bool) (*shard[S], error) {
	p.mu.RLock()
	sh, closed := p.shards[key], p.closed
	p.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	if sh != nil {
		return sh, nil
	}
	if !create {
		return nil, ErrUnknownShard
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrClosed
	}
	if sh = p.shards[key]; sh != nil {
		return sh, nil
	}
	sh = &shard[S]{mbox: make(chan func(S), p.cfg.Mailbox), done: make(chan struct{})}
	p.shards[key] = sh
	state := p.factory(key)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer close(sh.done)
		for fn := range sh.mbox {
			start := time.Now()
			fn(state)
			p.met.handler.Observe(time.Since(start).Seconds())
		}
	}()
	return sh, nil
}

// Submit enqueues fn on key's shard (creating it if needed) and returns
// without waiting for execution. If the mailbox stays full past the
// enqueue timeout it returns ErrBusy.
func (p *Pool[S]) Submit(key string, fn func(S)) error {
	for {
		sh, err := p.shardFor(key, true)
		if err != nil {
			return err
		}
		if err := p.send(sh, fn); !errors.Is(err, errShardDead) {
			return err
		}
	}
}

func (p *Pool[S]) send(sh *shard[S], fn func(S)) error {
	// The read lock pins the mailbox open: Close and Reset take the
	// write lock before closing channels, so a send in progress cannot
	// panic.
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	if sh.dead {
		return errShardDead
	}
	select {
	case sh.mbox <- fn:
		return nil
	default:
	}
	start := time.Now()
	t := time.NewTimer(p.cfg.EnqueueTimeout)
	defer t.Stop()
	select {
	case sh.mbox <- fn:
		p.met.enqueueWait.Observe(time.Since(start).Seconds())
		return nil
	case <-t.C:
		p.met.busy.Inc()
		return ErrBusy
	}
}

// Do enqueues fn on key's shard (creating it if needed) and waits until
// it has executed.
func (p *Pool[S]) Do(key string, fn func(S)) error {
	return p.doSync(key, true, fn)
}

// Query is Do without shard creation: it returns ErrUnknownShard if the
// key has never been used. Use for read paths that must not materialize
// state.
func (p *Pool[S]) Query(key string, fn func(S)) error {
	return p.doSync(key, false, fn)
}

func (p *Pool[S]) doSync(key string, create bool, fn func(S)) error {
	for {
		sh, err := p.shardFor(key, create)
		if err != nil {
			return err
		}
		done := make(chan struct{})
		err = p.send(sh, func(s S) {
			defer close(done)
			fn(s)
		})
		if errors.Is(err, errShardDead) {
			// Retired by Reset between lookup and send; with create the
			// retry builds a fresh shard, without it the fresh map
			// reports ErrUnknownShard.
			continue
		}
		if err != nil {
			return err
		}
		<-done
		return nil
	}
}

// Keys returns the keys of all live shards, sorted.
func (p *Pool[S]) Keys() []string {
	p.mu.RLock()
	out := make([]string, 0, len(p.shards))
	for k := range p.shards {
		out = append(out, k)
	}
	p.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Reset retires every shard: current mailboxes drain, their workers
// exit, and the next use of any key builds a fresh shard from the
// factory. Used when the backing state is wholesale dropped (a
// follower that resets to stream its leader's log) — Close would kill
// the pool for good, Reset only evicts state. Blocks until all retired workers have
// exited.
func (p *Pool[S]) Reset() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	old := p.shards
	p.shards = make(map[string]*shard[S])
	for _, sh := range old {
		sh.dead = true
		close(sh.mbox)
	}
	p.mu.Unlock()
	for _, sh := range old {
		<-sh.done
	}
	return nil
}

// Close stops accepting work, drains every mailbox, and waits for all
// workers to exit. Closing twice is safe.
func (p *Pool[S]) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for _, sh := range p.shards {
		close(sh.mbox)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
