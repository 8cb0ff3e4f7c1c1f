// Package labeling implements the paper's automatic online label method
// (Figure 1, Algorithm 2): SMART samples cannot be labeled when they
// arrive because the disk's fate is still unknown, so each disk keeps a
// fixed-length queue of its most recent samples.
//
//   - When a new sample arrives and the queue is full, the oldest queued
//     sample is at least the horizon old; the disk demonstrably survived
//     the horizon after reporting it, so it is released as NEGATIVE.
//   - When the disk fails, every queued sample lies within the horizon
//     before the failure, so all of them are released as POSITIVE.
//
// The Labeler drives any online learner through an Update callback and
// returns the model's live prediction for each arriving sample, exactly
// mirroring Algorithm 2's update-then-predict loop.
package labeling

import (
	"fmt"
	"sort"

	"orfdisk/internal/smart"
)

// Queue is the fixed-length per-disk sample buffer Q_i of Algorithm 2,
// implemented as a ring over arrays sized once at construction. The
// previous slice-based version resliced its backing array forward on
// every Dequeue, so the next Enqueue's append had to reallocate — one
// steady-state allocation per sample of every tracked disk. The ring
// allocates only in NewQueue.
type Queue struct {
	x    [][]float64
	days []int
	head int // index of the oldest sample
	n    int // buffered samples
}

// NewQueue returns a queue holding up to capacity samples.
func NewQueue(capacity int) *Queue {
	if capacity <= 0 {
		panic(fmt.Sprintf("labeling: non-positive queue capacity %d", capacity))
	}
	return &Queue{x: make([][]float64, capacity), days: make([]int, capacity)}
}

// Len returns the number of buffered samples.
func (q *Queue) Len() int { return q.n }

// Full reports whether the queue is at capacity.
func (q *Queue) Full() bool { return q.n == len(q.x) }

// Enqueue appends a sample (feature vector + acquisition day).
func (q *Queue) Enqueue(x []float64, day int) {
	if q.Full() {
		panic("labeling: enqueue on full queue")
	}
	i := q.slot(q.n)
	q.x[i], q.days[i] = x, day
	q.n++
}

// Dequeue removes and returns the oldest sample.
func (q *Queue) Dequeue() (x []float64, day int) {
	if q.n == 0 {
		panic("labeling: dequeue on empty queue")
	}
	x, day = q.x[q.head], q.days[q.head]
	q.x[q.head] = nil // do not retain the released sample
	q.head = q.slot(1)
	q.n--
	return x, day
}

// slot maps a logical offset from the oldest sample to an array index.
func (q *Queue) slot(off int) int { return (q.head + off) % len(q.x) }

// At returns the sample at logical position i (0 = oldest). The vector
// is the queue's own, not a copy.
func (q *Queue) At(i int) (x []float64, day int) {
	j := q.slot(i)
	return q.x[j], q.days[j]
}

// reset empties the queue for reuse, dropping sample references.
func (q *Queue) reset() {
	for i := 0; i < q.n; i++ {
		q.x[q.slot(i)] = nil
	}
	q.head, q.n = 0, 0
}

// Labeled is a released training sample.
type Labeled struct {
	X    []float64
	Y    smart.Label
	Day  int    // acquisition day of the sample
	Disk string // originating disk
}

// Labeler runs the automatic online label method over a fleet.
// It is not safe for concurrent use.
type Labeler struct {
	horizon int
	queues  map[string]*Queue
	// free recycles the ring buffers of failed/retired disks so a churn
	// of disks through the fleet does not allocate a fresh queue per
	// (re)appearance — the last steady-state allocation on the Observe
	// path.
	free []*Queue
	// relBuf is reused scratch for multi-sample releases (Fail).
	relBuf []Labeled
	// Update receives each released labeled sample (model update phase).
	Update func(Labeled)
	// UpdateBatch, if non-nil, receives multi-sample releases (a failed
	// disk's whole queue) as one ordered slice instead of per-sample
	// Update calls, letting the model apply them with one batch update.
	// The slice is scratch owned by the labeler: use it only within the
	// call. Single-sample releases always go through Update. Only
	// cmd/orfbench's twin still sets it; the predictor releases through
	// Update alone.
	UpdateBatch func([]Labeled)
}

// NewLabeler creates a labeler with the given horizon (queue capacity, in
// samples; the paper uses one week of daily samples, so 7).
func NewLabeler(horizon int, update func(Labeled)) *Labeler {
	if horizon <= 0 {
		horizon = smart.PredictionHorizonDays
	}
	return &Labeler{
		horizon: horizon,
		queues:  make(map[string]*Queue),
		Update:  update,
	}
}

// Horizon returns the queue capacity.
func (l *Labeler) Horizon() int { return l.horizon }

// ActiveDisks returns the number of disks currently tracked.
func (l *Labeler) ActiveDisks() int { return len(l.queues) }

// Pending returns the number of currently unlabeled buffered samples.
func (l *Labeler) Pending() int {
	n := 0
	for _, q := range l.queues {
		n += q.Len()
	}
	return n
}

// Observe processes one operating-disk sample (Algorithm 2, y == 0
// branch): if the disk's queue is full the oldest sample is released as
// negative, then the new sample is enqueued.
func (l *Labeler) Observe(disk string, x []float64, day int) {
	q := l.queues[disk]
	if q == nil {
		q = l.newOrRecycledQueue()
		l.queues[disk] = q
	}
	if q.Full() {
		old, oldDay := q.Dequeue()
		l.release(Labeled{X: old, Y: smart.Negative, Day: oldDay, Disk: disk})
	}
	q.Enqueue(x, day)
}

// Fail processes a disk failure (Algorithm 2, y == 1 branch): all queued
// samples are released as positive, oldest first, and the disk is
// forgotten. When UpdateBatch is set, the whole queue is handed over in
// one call; otherwise each sample is released through Update.
func (l *Labeler) Fail(disk string) {
	q := l.queues[disk]
	if q == nil {
		return
	}
	if l.UpdateBatch != nil && q.Len() > 1 {
		l.relBuf = l.relBuf[:0]
		for q.Len() > 0 {
			x, day := q.Dequeue()
			l.relBuf = append(l.relBuf, Labeled{X: x, Y: smart.Positive, Day: day, Disk: disk})
		}
		l.UpdateBatch(l.relBuf)
		for i := range l.relBuf {
			l.relBuf[i] = Labeled{} // drop sample references
		}
	} else {
		for q.Len() > 0 {
			x, day := q.Dequeue()
			l.release(Labeled{X: x, Y: smart.Positive, Day: day, Disk: disk})
		}
	}
	delete(l.queues, disk)
	l.recycle(q)
}

// Disks returns the serials of all tracked disks, sorted.
func (l *Labeler) Disks() []string {
	out := make([]string, 0, len(l.queues))
	for d := range l.queues {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// Queue returns disk's live queue, nil when the disk is not tracked: the
// read-only view a serializer walks (Disks, then Len and At) without the
// per-sample copies Export makes.
func (l *Labeler) Queue(disk string) *Queue { return l.queues[disk] }

// QueueState is the serializable content of one disk's queue, oldest
// sample first. Export/Import exist so a snapshotting deployment can
// capture the labeler exactly: replaying the post-snapshot stream then
// reproduces the uninterrupted run bit for bit, which a restart with
// empty queues cannot (the queued window's labels would be lost).
type QueueState struct {
	Disk string
	Days []int
	X    [][]float64
}

// Export returns every tracked disk's queued samples, sorted by disk,
// oldest sample first. The snapshot is a deep copy: mutating the live
// labeler afterwards (new observations, failures) cannot corrupt it, and
// mutating the snapshot cannot corrupt the labeler.
func (l *Labeler) Export() []QueueState {
	out := make([]QueueState, 0, len(l.queues))
	for _, d := range l.Disks() {
		q := l.queues[d]
		st := QueueState{
			Disk: d,
			Days: make([]int, q.Len()),
			X:    make([][]float64, q.Len()),
		}
		for i := 0; i < q.Len(); i++ {
			x, day := q.At(i)
			st.Days[i] = day
			st.X[i] = append([]float64(nil), x...)
		}
		out = append(out, st)
	}
	return out
}

// Import replaces the labeler's queues with previously Exported state.
// The labeler takes ownership of the imported vectors: they become the
// queued samples themselves, not copies, so the caller must neither
// modify nor reuse them afterwards (a decoder hands over what it just
// allocated). Export's deep copy is the state to import twice.
func (l *Labeler) Import(states []QueueState) error {
	fresh := make(map[string]*Queue, len(states))
	for _, st := range states {
		if len(st.Days) != len(st.X) {
			return fmt.Errorf("labeling: disk %q has %d days for %d samples",
				st.Disk, len(st.Days), len(st.X))
		}
		if len(st.X) > l.horizon {
			return fmt.Errorf("labeling: disk %q imports %d samples, horizon %d",
				st.Disk, len(st.X), l.horizon)
		}
		if _, dup := fresh[st.Disk]; dup {
			return fmt.Errorf("labeling: duplicate disk %q in import", st.Disk)
		}
		q := NewQueue(l.horizon)
		for i := range st.X {
			q.Enqueue(st.X[i], st.Days[i])
		}
		fresh[st.Disk] = q
	}
	l.queues = fresh
	l.free = l.free[:0]
	return nil
}

// Retire drops a disk without labeling its queued samples (the disk left
// the fleet healthy; its last week is indeterminate, matching how the
// paper leaves a good disk's latest week unlabeled).
func (l *Labeler) Retire(disk string) {
	q := l.queues[disk]
	if q == nil {
		return
	}
	delete(l.queues, disk)
	l.recycle(q)
}

// RetireAll drops every tracked disk without labeling queued samples.
// Use at end-of-stream: the final week of surviving disks cannot be
// labeled.
func (l *Labeler) RetireAll() {
	for d, q := range l.queues {
		delete(l.queues, d)
		l.recycle(q)
	}
}

func (l *Labeler) release(s Labeled) {
	if l.Update != nil {
		l.Update(s)
	}
}

// newOrRecycledQueue pops a reset queue from the freelist, or allocates
// one if the freelist is empty.
func (l *Labeler) newOrRecycledQueue() *Queue {
	if n := len(l.free); n > 0 {
		q := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		return q
	}
	return NewQueue(l.horizon)
}

// recycle resets a dropped disk's queue and returns it to the freelist.
func (l *Labeler) recycle(q *Queue) {
	q.reset()
	l.free = append(l.free, q)
}
