// Package labeling implements the paper's automatic online label method
// (Figure 1, Algorithm 2): SMART samples cannot be labeled when they
// arrive because the disk's fate is still unknown, so each disk keeps a
// fixed-length queue of its most recent samples.
//
//   - When a new sample arrives and the queue is full, the oldest queued
//     sample is released as NEGATIVE: the disk has reported horizon more
//     samples since and is still operating. The queue counts samples,
//     not days, so that sample is the horizon old only on a gap-free
//     daily stream; a disk that skipped days released it later than
//     that, one that reported twice on a day sooner.
//   - When the disk fails, every queued sample is among its last horizon
//     reports before the failure, so all of them are released as
//     POSITIVE.
//
// The Labeler drives any online learner through an Update callback and
// returns the model's live prediction for each arriving sample, exactly
// mirroring Algorithm 2's update-then-predict loop.
package labeling

import (
	"encoding/binary"
	"fmt"
	"slices"

	"orfdisk/internal/packed"
	"orfdisk/internal/smart"
)

// Queue is the fixed-length per-disk sample buffer Q_i of Algorithm 2.
// It holds its samples packed, oldest first and back to back in one
// byte slice: per sample the day (varint), the value count (uvarint)
// and the values as packed.Append codes them on their own, bit for bit.
// A SMART sample of the paper's 19 features takes ~30 bytes there, where
// a []float64 of it took 152 and a slice header; the fleet's per-disk
// state is what a serving process's memory follows.
//
// A queue copies what it is given and hands out copies: Enqueue keeps
// none of x, and Dequeue and At decode into vectors the caller owns.
type Queue struct {
	buf      []byte
	n        int // queued samples
	capacity int
}

// NewQueue returns a queue holding up to capacity samples.
func NewQueue(capacity int) *Queue {
	if capacity <= 0 {
		panic(fmt.Sprintf("labeling: non-positive queue capacity %d", capacity))
	}
	return &Queue{capacity: capacity}
}

// Len returns the number of buffered samples.
func (q *Queue) Len() int { return q.n }

// Full reports whether the queue is at capacity.
func (q *Queue) Full() bool { return q.n == q.capacity }

// Enqueue appends a copy of sample x, acquired on day. The sample is
// packed into stack scratch and its exact bytes appended, so neither x
// nor the encoder's worst-case room stays with the queue.
func (q *Queue) Enqueue(x []float64, day int) {
	if q.Full() {
		panic("labeling: enqueue on full queue")
	}
	var scratch [256]byte // a sample of up to 26 values packs in place
	b := binary.AppendVarint(scratch[:0], int64(day))
	b = binary.AppendUvarint(b, uint64(len(x)))
	b = packed.Append(b, x, nil)
	if need := len(q.buf) + len(b); need > cap(q.buf) {
		// Size for a full queue of samples this long, plus an eighth, so
		// that a queue filling up or a sample growing a byte does not
		// reallocate at every Enqueue. A queue never shrinks: a disk's
		// samples keep to a size, and a recycled queue is another disk's.
		want := need / (q.n + 1) * q.capacity
		want = max(need, want+want/8)
		q.buf = append(slices.Grow([]byte(nil), want), q.buf...)
	}
	q.buf = append(q.buf, b...)
	q.n++
}

// Dequeue removes the oldest sample and returns it decoded into dst's
// storage (reallocated when its capacity is short of the sample).
func (q *Queue) Dequeue(dst []float64) (x []float64, day int) {
	if q.n == 0 {
		panic("labeling: dequeue on empty queue")
	}
	x, day, rest := decodeSample(q.buf, dst)
	q.buf = q.buf[:copy(q.buf, rest)]
	q.n--
	return x, day
}

// At returns a copy of the sample at logical position i (0 = oldest),
// found by the codes of the samples before it, which are not decoded.
func (q *Queue) At(i int) (x []float64, day int) {
	if i < 0 || i >= q.n {
		panic(fmt.Sprintf("labeling: sample %d of a %d-sample queue", i, q.n))
	}
	b := q.buf
	for ; i > 0; i-- {
		_, _, _, b = nextSample(b)
	}
	x, day, _ = decodeSample(b, nil)
	return x, day
}

// Each calls fn with every queued sample, oldest first, undecoded: its
// day, its value count and bytes that start with its values as
// packed.Append coded them on their own — the later samples follow, so
// that a reader's 8-byte loads stay in bounds — valid until the queue
// changes (fn must not change it). It stops at fn's first error. A
// serializer recodes the values (packed.Recoder) without decoding one.
func (q *Queue) Each(fn func(day, nv int, vals []byte) error) error {
	b := q.buf
	for i := 0; i < q.n; i++ {
		day, nv, vals, rest := nextSample(b)
		if err := fn(day, nv, vals); err != nil {
			return err
		}
		b = rest
	}
	return nil
}

// nextSample splits the sample at the front of b, reading its values'
// codes only: its day and value count, the bytes from its values on, and
// the bytes after it.
func nextSample(b []byte) (day, nv int, vals, rest []byte) {
	d, k := binary.Varint(b)
	n, m := binary.Uvarint(b[k:])
	vals = b[k+m:]
	return int(d), int(n), vals, vals[packed.Len(vals, int(n)):]
}

// decodeSample decodes the sample at the front of b into dst's storage
// and returns it with the bytes after it.
func decodeSample(b []byte, dst []float64) (x []float64, day int, rest []byte) {
	d, k := binary.Varint(b)
	nv, m := binary.Uvarint(b[k:])
	if x = dst[:0]; cap(x) < int(nv) {
		x = make([]float64, nv)
	}
	x = x[:nv]
	rest, err := packed.DecodeInto(x, b[k+m:], nil)
	if err != nil {
		panic("labeling: a queue holds a sample Enqueue did not pack: " + err.Error())
	}
	return x, int(d), rest
}

// reset empties the queue for reuse, keeping its storage.
func (q *Queue) reset() { q.buf, q.n = q.buf[:0], 0 }

// Labeled is a released training sample.
type Labeled struct {
	// X is the sample's features, decoded into scratch the labeler owns:
	// valid only during the Update or UpdateBatch call that receives it
	// (copy what outlives the call). A caller may recycle it as its next
	// x: Observe copies x into the queue before it releases anything, and
	// never decodes a release into the x it was passed.
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
	// serials are the tracked disks, kept sorted as disks come and go so
	// that a snapshot walks them in order without sorting the fleet.
	serials []string
	// free recycles the queues of failed/retired disks so a churn of
	// disks through the fleet does not allocate a fresh queue per
	// (re)appearance — the last steady-state allocation on the Observe
	// path.
	free []*Queue
	// vecs are the vectors releases decode into: a failed disk's queue
	// into the first Len of them, a single release into vecs[0] or, when
	// that is the x being observed, vecs[1].
	vecs [][]float64
	// relBuf is reused scratch for multi-sample releases (Fail).
	relBuf []Labeled
	// Update receives each released labeled sample (model update phase).
	Update func(Labeled)
	// UpdateBatch, if non-nil, receives multi-sample releases (a failed
	// disk's whole queue) as one ordered slice instead of per-sample
	// Update calls, letting the model apply them with one batch update.
	// The slice and its vectors are scratch owned by the labeler, each
	// vector distinct: use them only within the call. Single-sample
	// releases always go through Update. Only cmd/orfbench's twin still
	// sets it; the predictor releases through Update alone.
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
		vecs:    make([][]float64, max(horizon, 2)),
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
// negative, then the new sample is enqueued. The queue keeps a copy of
// x, made before the release, so x is the caller's again on return,
// unchanged even if it is a vector an earlier release handed out.
func (l *Labeler) Observe(disk string, x []float64, day int) {
	q := l.queues[disk]
	if q == nil {
		q = l.track(disk)
	}
	if !q.Full() {
		q.Enqueue(x, day)
		return
	}
	v := &l.vecs[0]
	if cap(x) > 0 && cap(*v) > 0 && &x[:1][0] == &(*v)[:1][0] {
		v = &l.vecs[1]
	}
	old, oldDay := q.Dequeue(*v)
	*v = old
	q.Enqueue(x, day)
	l.release(Labeled{X: old, Y: smart.Negative, Day: oldDay, Disk: disk})
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
		for i := 0; q.Len() > 0; i++ {
			x, day := q.Dequeue(l.vecs[i])
			l.vecs[i] = x
			l.relBuf = append(l.relBuf, Labeled{X: x, Y: smart.Positive, Day: day, Disk: disk})
		}
		l.UpdateBatch(l.relBuf)
		clear(l.relBuf) // drop sample references
	} else {
		for q.Len() > 0 {
			x, day := q.Dequeue(l.vecs[0])
			l.vecs[0] = x
			l.release(Labeled{X: x, Y: smart.Positive, Day: day, Disk: disk})
		}
	}
	l.untrack(disk, q)
}

// Disks returns the serials of all tracked disks, sorted (a copy).
func (l *Labeler) Disks() []string { return slices.Clone(l.serials) }

// Walk calls fn with each tracked disk and its live queue, in serial
// order, and stops at fn's first error: the read-only view a serializer
// walks (then Len and Each). fn must not change the labeler.
func (l *Labeler) Walk(fn func(disk string, q *Queue) error) error {
	for _, d := range l.serials {
		if err := fn(d, l.queues[d]); err != nil {
			return err
		}
	}
	return nil
}

// Queue returns disk's live queue, nil when the disk is not tracked.
func (l *Labeler) Queue(disk string) *Queue { return l.queues[disk] }

// Restore appends a copy of a saved sample to disk's queue, tracking the
// disk if it is not yet: a snapshotting deployment rebuilds its labeler
// this way, each disk's samples oldest first, and then replaying the
// post-snapshot stream reproduces the uninterrupted run bit for bit,
// which a restart with empty queues cannot (the queued window's labels
// would be lost). Disks restored in serial order are appended to the
// sorted serials. A sample past the horizon is an error.
func (l *Labeler) Restore(disk string, x []float64, day int) error {
	q := l.queues[disk]
	if q == nil {
		q = l.track(disk)
	}
	if q.Full() {
		return fmt.Errorf("labeling: disk %q restores more than its horizon of %d samples", disk, l.horizon)
	}
	q.Enqueue(x, day)
	return nil
}

// Retire drops a disk without labeling its queued samples (the disk left
// the fleet healthy; its last week is indeterminate, matching how the
// paper leaves a good disk's latest week unlabeled).
func (l *Labeler) Retire(disk string) {
	if q := l.queues[disk]; q != nil {
		l.untrack(disk, q)
	}
}

func (l *Labeler) release(s Labeled) {
	if l.Update != nil {
		l.Update(s)
	}
}

// track starts an empty queue for disk — a recycled one when the
// freelist has one — and inserts disk into the sorted serials.
func (l *Labeler) track(disk string) *Queue {
	var q *Queue
	if n := len(l.free); n > 0 {
		q = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
	} else {
		q = NewQueue(l.horizon)
	}
	l.queues[disk] = q
	i, _ := slices.BinarySearch(l.serials, disk)
	l.serials = slices.Insert(l.serials, i, disk)
	return q
}

// untrack forgets disk, whose queue is q, and recycles q.
func (l *Labeler) untrack(disk string, q *Queue) {
	delete(l.queues, disk)
	i, _ := slices.BinarySearch(l.serials, disk)
	l.serials = slices.Delete(l.serials, i, i+1)
	l.recycle(q)
}

// recycle resets a dropped disk's queue and returns it to the freelist.
func (l *Labeler) recycle(q *Queue) {
	q.reset()
	l.free = append(l.free, q)
}
