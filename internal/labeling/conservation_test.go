package labeling

import (
	"fmt"
	"math/rand"
	"testing"

	"orfdisk/internal/smart"
)

// TestLabelingConservesSamples drives random Observe/Fail/Retire
// sequences over many disks — single releases through Update, and a
// failed disk's queue through UpdateBatch when one is set — and accounts
// for every sample ever queued: at the end each was released exactly
// once, positive or negative and never both, or was discarded by the
// retire of its disk, or is still pending. A negative comes only from the
// disk's own Observe, a positive only from its Fail, and both carry the
// disk and day they were queued with. The model's training set is the
// released samples, so a sample dropped or released twice is a silently
// wrong model.
func TestLabelingConservesSamples(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			horizon, disks := 1+rng.Intn(8), 2+rng.Intn(40)
			type queued struct {
				disk string
				day  int
			}
			var (
				samples  []queued // by id, the sample's x[0]
				released = map[int]smart.Label{}
				retired  = map[int]bool{}
				op       string // the call in progress, and its disk
				opDisk   string
			)
			take := func(s Labeled) {
				id := int(s.X[0])
				if prev, dup := released[id]; dup {
					t.Fatalf("sample %d released twice: %v, then %v by %s(%s)", id, prev, s.Y, op, opDisk)
				}
				want := map[string]smart.Label{"Observe": smart.Negative, "Fail": smart.Positive}[op]
				if s.Y != want || s.Disk != opDisk || samples[id].disk != s.Disk || samples[id].day != s.Day {
					t.Fatalf("%s(%s) released sample %d of %v as %v (disk %s, day %d)", op, opDisk, id, samples[id], s.Y, s.Disk, s.Day)
				}
				released[id] = s.Y
			}
			l := NewLabeler(horizon, take)
			if seed%2 == 0 {
				l.UpdateBatch = func(batch []Labeled) {
					for _, s := range batch {
						take(s)
					}
				}
			}
			day := 0
			for step := 0; step < 3000; step++ {
				opDisk = fmt.Sprintf("d%d", rng.Intn(disks))
				switch r := rng.Intn(20); {
				case r < 16:
					op = "Observe"
					day += rng.Intn(2)
					samples = append(samples, queued{opDisk, day})
					l.Observe(opDisk, []float64{float64(len(samples) - 1)}, day)
				case r < 18:
					op = "Fail"
					l.Fail(opDisk)
				default:
					op = "Retire"
					if q := l.Queue(opDisk); q != nil {
						for i := 0; i < q.Len(); i++ {
							x, _ := q.At(i)
							retired[int(x[0])] = true
						}
					}
					l.Retire(opDisk)
				}
			}
			pending := map[int]bool{}
			for _, d := range l.Disks() {
				q := l.Queue(d)
				for i := 0; i < q.Len(); i++ {
					x, _ := q.At(i)
					pending[int(x[0])] = true
				}
			}
			if got := l.Pending(); got != len(pending) {
				t.Fatalf("Pending() = %d, queues hold %d", got, len(pending))
			}
			for id := range samples {
				_, rel := released[id]
				if n := btoi(rel) + btoi(retired[id]) + btoi(pending[id]); n != 1 {
					t.Fatalf("sample %d of %v: released %v, retired %v, pending %v", id, samples[id], rel, retired[id], pending[id])
				}
			}
			if len(released) == 0 || len(retired) == 0 {
				t.Fatalf("horizon %d over %d disks: %d released, %d retired — the draw exercises too little",
					horizon, disks, len(released), len(retired))
			}
		})
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
