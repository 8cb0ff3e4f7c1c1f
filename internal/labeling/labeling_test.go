package labeling

import (
	"testing"

	"orfdisk/internal/smart"
)

func collect() (*[]Labeled, func(Labeled)) {
	var out []Labeled
	return &out, func(s Labeled) { out = append(out, s) }
}

func vec(v float64) []float64 { return []float64{v} }

func TestQueueBasics(t *testing.T) {
	q := NewQueue(2)
	if q.Full() || q.Len() != 0 {
		t.Fatal("fresh queue not empty")
	}
	q.Enqueue(vec(1), 10)
	q.Enqueue(vec(2), 11)
	if !q.Full() {
		t.Fatal("queue should be full")
	}
	x, day := q.Dequeue(nil)
	if x[0] != 1 || day != 10 {
		t.Fatalf("FIFO violated: got %v day %d", x, day)
	}
}

func TestQueuePanics(t *testing.T) {
	q := NewQueue(1)
	q.Enqueue(vec(1), 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("enqueue on full queue did not panic")
			}
		}()
		q.Enqueue(vec(2), 1)
	}()
	q.Dequeue(nil)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("dequeue on empty queue did not panic")
			}
		}()
		q.Dequeue(nil)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("NewQueue(0) did not panic")
			}
		}()
		NewQueue(0)
	}()
}

func TestSurvivingDiskReleasesNegatives(t *testing.T) {
	out, upd := collect()
	l := NewLabeler(3, upd)
	for day := 0; day < 10; day++ {
		l.Observe("d1", vec(float64(day)), day)
	}
	// 10 samples through a 3-deep queue: 7 released as negative, the
	// last 3 still pending.
	if len(*out) != 7 {
		t.Fatalf("released %d samples, want 7", len(*out))
	}
	for i, s := range *out {
		if s.Y != smart.Negative {
			t.Fatalf("sample %d labeled %v, want negative", i, s.Y)
		}
		if s.Day != i {
			t.Fatalf("sample %d has day %d: release order broken", i, s.Day)
		}
	}
	if l.Pending() != 3 {
		t.Fatalf("pending %d, want 3", l.Pending())
	}
}

func TestFailureReleasesQueueAsPositive(t *testing.T) {
	out, upd := collect()
	l := NewLabeler(7, upd)
	for day := 0; day < 5; day++ {
		l.Observe("d1", vec(float64(day)), day)
	}
	l.Fail("d1")
	if len(*out) != 5 {
		t.Fatalf("released %d samples, want 5", len(*out))
	}
	for i, s := range *out {
		if s.Y != smart.Positive {
			t.Fatalf("sample %d labeled %v, want positive", i, s.Y)
		}
	}
	if l.ActiveDisks() != 0 {
		t.Fatal("failed disk still tracked")
	}
}

func TestHorizonBoundary(t *testing.T) {
	// With horizon 7 and a disk that fails after 20 observations, the
	// samples released as negative must all be at least 7 days older
	// than the failure-day observation, and exactly the last 7 must be
	// positive — the paper's labeling rule.
	out, upd := collect()
	l := NewLabeler(7, upd)
	const days = 20
	for day := 0; day < days; day++ {
		l.Observe("d1", vec(float64(day)), day)
	}
	l.Fail("d1")
	var neg, pos int
	for _, s := range *out {
		switch s.Y {
		case smart.Negative:
			neg++
			if s.Day >= days-7 {
				t.Fatalf("negative sample from day %d is within the last week", s.Day)
			}
		case smart.Positive:
			pos++
			if s.Day < days-7 {
				t.Fatalf("positive sample from day %d precedes the last week", s.Day)
			}
		}
	}
	if neg != days-7 || pos != 7 {
		t.Fatalf("released %d negative / %d positive, want %d / 7", neg, pos, days-7)
	}
}

func TestMultipleDisksIndependent(t *testing.T) {
	out, upd := collect()
	l := NewLabeler(2, upd)
	l.Observe("a", vec(1), 0)
	l.Observe("b", vec(2), 0)
	l.Observe("a", vec(3), 1)
	l.Observe("b", vec(4), 1)
	l.Fail("a")
	if l.ActiveDisks() != 1 {
		t.Fatalf("tracked %d disks, want 1", l.ActiveDisks())
	}
	var aPos, bAny int
	for _, s := range *out {
		if s.Disk == "a" && s.Y == smart.Positive {
			aPos++
		}
		if s.Disk == "b" {
			bAny++
		}
	}
	if aPos != 2 {
		t.Fatalf("disk a released %d positives, want 2", aPos)
	}
	if bAny != 0 {
		t.Fatalf("disk b leaked %d samples", bAny)
	}
}

func TestRetireDiscardsSilently(t *testing.T) {
	out, upd := collect()
	l := NewLabeler(3, upd)
	l.Observe("d", vec(1), 0)
	l.Observe("d", vec(2), 1)
	l.Retire("d")
	if len(*out) != 0 {
		t.Fatalf("retire released %d samples", len(*out))
	}
	if l.ActiveDisks() != 0 {
		t.Fatal("retired disk still tracked")
	}
}

func TestFailUnknownDiskIsNoop(t *testing.T) {
	out, upd := collect()
	l := NewLabeler(3, upd)
	l.Fail("ghost")
	if len(*out) != 0 {
		t.Fatal("unknown disk released samples")
	}
}

func TestDefaultHorizon(t *testing.T) {
	l := NewLabeler(0, nil)
	if l.Horizon() != smart.PredictionHorizonDays {
		t.Fatalf("default horizon %d, want %d", l.Horizon(), smart.PredictionHorizonDays)
	}
}

func TestNilUpdateSafe(t *testing.T) {
	l := NewLabeler(1, nil)
	l.Observe("d", vec(1), 0)
	l.Observe("d", vec(2), 1) // releases through nil Update
	l.Fail("d")
}

// TestRestoreRoundTrip: a labeler rebuilt by walking another's queues
// and restoring each sample tracks the same disks, in order, and goes on
// exactly like the original.
func TestRestoreRoundTrip(t *testing.T) {
	out, upd := collect()
	l := NewLabeler(3, upd)
	l.Observe("b", vec(1), 0)
	l.Observe("a", vec(2), 0)
	l.Observe("a", vec(3), 1)

	m := NewLabeler(3, upd)
	err := l.Walk(func(disk string, q *Queue) error {
		for i := 0; i < q.Len(); i++ {
			x, day := q.At(i)
			if err := m.Restore(disk, x, day); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := m.Disks(); len(d) != 2 || d[0] != "a" || d[1] != "b" || m.Pending() != 3 {
		t.Fatalf("restore: disks %v, %d pending", d, m.Pending())
	}
	if x, day := m.Queue("a").At(1); x[0] != 3 || day != 1 {
		t.Fatalf("restored sample 1 of a is %v on day %d", x, day)
	}
	// The restored queues must behave exactly like the originals:
	// two more observations on "a" overflow its horizon-3 queue.
	*out = (*out)[:0]
	m.Observe("a", vec(4), 2)
	m.Observe("a", vec(5), 3)
	if len(*out) != 1 || (*out)[0].X[0] != 2 || (*out)[0].Y != smart.Negative {
		t.Fatalf("restored queue released %+v", *out)
	}
}

// TestRestoreRejectsOverHorizon: a saved queue longer than the horizon
// is refused, and the disk keeps the samples that fit.
func TestRestoreRejectsOverHorizon(t *testing.T) {
	l := NewLabeler(2, nil)
	for day := 0; day < 2; day++ {
		if err := l.Restore("a", vec(1), day); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Restore("a", vec(1), 2); err == nil {
		t.Fatal("over-horizon queue accepted")
	}
	if l.Pending() != 2 {
		t.Fatalf("%d pending after a refused restore, want 2", l.Pending())
	}
}

// TestObserveSteadyStateZeroAllocs guards the ring-buffer conversion: a
// long Observe stream over a stable fleet must not allocate once every
// disk's queue exists. The old slice-backed Queue resliced its backing
// array forward on each Dequeue, forcing the next Enqueue to reallocate.
func TestObserveSteadyStateZeroAllocs(t *testing.T) {
	l := NewLabeler(7, func(Labeled) {})
	disks := []string{"d0", "d1", "d2", "d3"}
	x := vec(1)
	day := 0
	warm := func() {
		for _, d := range disks {
			l.Observe(d, x, day)
		}
		day++
	}
	for i := 0; i < 20; i++ { // fill queues and settle map internals
		warm()
	}
	if allocs := testing.AllocsPerRun(100, warm); allocs != 0 {
		t.Fatalf("steady-state Observe allocates %v times per round", allocs)
	}
}

// TestFailedDiskQueueRecycledZeroAllocs extends the steady-state
// guarantee across disk churn: a disk failing and a new one appearing
// reuses the failed disk's ring buffer from the freelist.
func TestFailedDiskQueueRecycledZeroAllocs(t *testing.T) {
	l := NewLabeler(3, func(Labeled) {})
	x := vec(1)
	serials := []string{"a", "b"}
	for _, d := range serials { // pre-create map entries and one spare queue
		for i := 0; i < 4; i++ {
			l.Observe(d, x, i)
		}
	}
	l.Fail("spare")
	round := func() {
		for _, d := range serials {
			l.Observe(d, x, 0)
			l.Fail(d)
			l.Observe(d, x, 0)
		}
	}
	round()
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("disk churn allocates %v times per round", allocs)
	}
}

// TestQueueCopiesInAndOut: a queue keeps a copy of each sample it is
// given and hands out copies, so neither the caller's vectors nor a
// released one can change what stays queued.
func TestQueueCopiesInAndOut(t *testing.T) {
	out, update := collect()
	l := NewLabeler(3, update)
	x := []float64{1, 2}
	l.Observe("a", x, 0)
	x[0] = 3
	l.Observe("a", x, 1)
	x[0] = 99 // the caller's vector is its own again

	got, day := l.Queue("a").At(0)
	if got[0] != 1 || day != 0 {
		t.Fatalf("queued sample 0 is %v on day %d, want [1 2] on day 0", got, day)
	}
	got[0] = 42 // and so is a copy At hands out
	if again, _ := l.Queue("a").At(0); again[0] != 1 {
		t.Fatalf("mutating At's copy changed the queue: %v", again)
	}

	// The labeler's release scratch is recycled too: overwriting a
	// released vector after its callback cannot reach the queue.
	l.Observe("a", []float64{5, 6}, 2)
	l.Observe("a", []float64{7, 8}, 3) // overflows: releases day-0 sample
	if len(*out) != 1 || (*out)[0].X[0] != 1 {
		t.Fatalf("released %+v, want the day-0 sample", *out)
	}
	(*out)[0].X[0] = -1
	*out = (*out)[:0]
	l.Fail("a") // releases days 1,2,3 as positives
	if len(*out) != 3 || (*out)[0].Day != 1 {
		t.Fatalf("released %+v", *out)
	}
	if x := (*out)[2].X; x[0] != 7 || x[1] != 8 {
		t.Fatalf("last positive is %v, want [7 8]", x)
	}
}

// TestFailUsesUpdateBatch verifies multi-sample releases go through the
// batch callback in order while single-sample releases use Update.
func TestFailUsesUpdateBatch(t *testing.T) {
	var batched [][]Labeled
	var singles []Labeled
	l := NewLabeler(3, func(s Labeled) { singles = append(singles, s) })
	l.UpdateBatch = func(batch []Labeled) {
		cp := append([]Labeled(nil), batch...)
		batched = append(batched, cp)
	}
	for i := 0; i < 3; i++ {
		l.Observe("a", vec(float64(i)), i)
	}
	l.Fail("a")
	if len(singles) != 0 {
		t.Fatalf("multi-sample Fail used Update: %+v", singles)
	}
	if len(batched) != 1 || len(batched[0]) != 3 {
		t.Fatalf("batch release shape: %+v", batched)
	}
	for i, s := range batched[0] {
		if s.Day != i || s.X[0] != float64(i) || s.Y != smart.Positive || s.Disk != "a" {
			t.Fatalf("batch sample %d out of order: %+v", i, s)
		}
	}

	// A single queued sample still goes through Update.
	l.Observe("b", vec(9), 0)
	l.Fail("b")
	if len(batched) != 1 || len(singles) != 1 || singles[0].X[0] != 9 {
		t.Fatalf("single-sample Fail: batched=%d singles=%+v", len(batched), singles)
	}
}
