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
	x, day := q.Dequeue()
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
	q.Dequeue()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("dequeue on empty queue did not panic")
			}
		}()
		q.Dequeue()
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

func TestRetireAll(t *testing.T) {
	out, upd := collect()
	l := NewLabeler(3, upd)
	l.Observe("a", vec(1), 0)
	l.Observe("b", vec(2), 0)
	l.RetireAll()
	if l.ActiveDisks() != 0 || l.Pending() != 0 {
		t.Fatal("RetireAll left state behind")
	}
	if len(*out) != 0 {
		t.Fatal("RetireAll released samples")
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

func TestExportImportRoundTrip(t *testing.T) {
	out, upd := collect()
	l := NewLabeler(3, upd)
	l.Observe("b", vec(1), 0)
	l.Observe("a", vec(2), 0)
	l.Observe("a", vec(3), 1)
	states := l.Export()
	if len(states) != 2 || states[0].Disk != "a" || states[1].Disk != "b" {
		t.Fatalf("export %+v", states)
	}
	if len(states[0].X) != 2 || states[0].Days[1] != 1 {
		t.Fatalf("export lost samples: %+v", states[0])
	}

	m := NewLabeler(3, upd)
	if err := m.Import(states); err != nil {
		t.Fatal(err)
	}
	if m.ActiveDisks() != 2 || m.Pending() != 3 {
		t.Fatalf("import: %d disks, %d pending", m.ActiveDisks(), m.Pending())
	}
	// The imported queues must behave exactly like the originals:
	// two more observations on "a" overflow its horizon-3 queue.
	*out = (*out)[:0]
	m.Observe("a", vec(4), 2)
	m.Observe("a", vec(5), 3)
	if len(*out) != 1 || (*out)[0].X[0] != 2 || (*out)[0].Y != smart.Negative {
		t.Fatalf("imported queue released %+v", *out)
	}
}

func TestImportRejectsBadState(t *testing.T) {
	l := NewLabeler(2, nil)
	if err := l.Import([]QueueState{{Disk: "a", Days: []int{0}, X: nil}}); err == nil {
		t.Fatal("mismatched days/samples accepted")
	}
	if err := l.Import([]QueueState{{
		Disk: "a", Days: []int{0, 1, 2}, X: [][]float64{vec(1), vec(2), vec(3)},
	}}); err == nil {
		t.Fatal("over-horizon queue accepted")
	}
	if err := l.Import([]QueueState{
		{Disk: "a", Days: []int{0}, X: [][]float64{vec(1)}},
		{Disk: "a", Days: []int{0}, X: [][]float64{vec(1)}},
	}); err == nil {
		t.Fatal("duplicate disk accepted")
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

// TestExportIsDeepCopy verifies snapshots and live queues are isolated
// in both directions after the ring-buffer conversion, and that Import
// keeps the vectors it is handed instead of copying them.
func TestExportIsDeepCopy(t *testing.T) {
	out, update := collect()
	l := NewLabeler(3, update)
	l.Observe("a", []float64{1, 2}, 0)
	l.Observe("a", []float64{3, 4}, 1)
	snap := l.Export()

	// Mutating the live labeler must not change the snapshot.
	l.Observe("a", []float64{5, 6}, 2)
	l.Observe("a", []float64{7, 8}, 3) // overflows: releases day-0 sample
	if len(snap) != 1 || len(snap[0].X) != 2 {
		t.Fatalf("snapshot shape changed: %+v", snap)
	}
	if snap[0].Days[0] != 0 || snap[0].X[0][0] != 1 || snap[0].X[1][0] != 3 {
		t.Fatalf("snapshot content changed: %+v", snap[0])
	}

	// Mutating the snapshot must not change the live queues.
	snap[0].X[0][0] = 99
	snap[0].Days[0] = 99
	*out = (*out)[:0]
	l.Fail("a") // releases days 1,2,3 as positives
	if len(*out) != 3 || (*out)[0].X[0] != 3 || (*out)[0].Day != 1 {
		t.Fatalf("live queue corrupted by snapshot mutation: %+v", *out)
	}

	// Import, by contrast, takes ownership: the queued sample is the
	// caller's vector itself, not a copy of it.
	st := []QueueState{{Disk: "b", Days: []int{5}, X: [][]float64{{42}}}}
	if err := l.Import(st); err != nil {
		t.Fatal(err)
	}
	*out = (*out)[:0]
	l.Fail("b")
	if len(*out) != 1 || (*out)[0].X[0] != 42 || &(*out)[0].X[0] != &st[0].X[0][0] {
		t.Fatalf("imported queue released %+v, not the imported vector", *out)
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
