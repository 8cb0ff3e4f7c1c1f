package labeling

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"orfdisk/internal/packed"
	"orfdisk/internal/smart"
)

// release is one labeled sample as a labeler handed it out, its values
// as bits so NaN payloads and -0 compare exactly.
type release struct {
	disk string
	day  int
	y    smart.Label
	bits []uint64
}

func releaseOf(disk string, day int, y smart.Label, x []float64) release {
	r := release{disk: disk, day: day, y: y, bits: make([]uint64, len(x))}
	for i, v := range x {
		r.bits[i] = math.Float64bits(v)
	}
	return r
}

func (r release) equal(o release) bool {
	return r.disk == o.disk && r.day == o.day && r.y == o.y && slices.Equal(r.bits, o.bits)
}

func (r release) String() string {
	return fmt.Sprintf("%s day %d %v %016x", r.disk, r.day, r.y, r.bits)
}

// refSample is a queued sample of refLabeler, kept as the caller gave it.
type refSample struct {
	x   []float64
	day int
}

// refLabeler is Algorithm 2's labeling over plain vectors: per disk, a
// slice of at most horizon copies of the samples observed, oldest first.
type refLabeler struct {
	horizon int
	queues  map[string][]refSample
	out     []release
}

func (r *refLabeler) observe(disk string, x []float64, day int) {
	q := r.queues[disk]
	if len(q) == r.horizon {
		r.out = append(r.out, releaseOf(disk, q[0].day, smart.Negative, q[0].x))
		q = q[1:]
	}
	r.queues[disk] = append(q, refSample{slices.Clone(x), day})
}

func (r *refLabeler) fail(disk string) {
	for _, s := range r.queues[disk] {
		r.out = append(r.out, releaseOf(disk, s.day, smart.Positive, s.x))
	}
	delete(r.queues, disk)
}

func (r *refLabeler) disks() []string {
	var out []string
	for d := range r.queues {
		out = append(out, d)
	}
	slices.Sort(out)
	return out
}

func (r *refLabeler) pending() int {
	n := 0
	for _, q := range r.queues {
		n += len(q)
	}
	return n
}

// fuzzSpecials are the bit patterns the packed coding has edges at.
var fuzzSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7ff8_dead_beef_0001), math.Float64frombits(0xfff0_0000_0000_0001),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000f_ffff_ffff_ffff),
	1<<48 - 1, 1 << 48, 1<<48 + 1, 1, 255, 256, 0.5, -1, math.MaxFloat64,
}

// FuzzLabelerQueue drives a labeler and refLabeler through the same
// Observe/Fail/Retire sequence over four disks and requires the same
// released (disk, day, label, value bits) sequence, Pending, ActiveDisks,
// Disks after every step, and the same queued samples (At, Each) at the
// end. Values are arbitrary bit
// patterns, fuzzSpecials among them, in vectors of 0 to 4 values; days
// are any int. batch releases a failed disk's queue through UpdateBatch,
// whose vectors must be distinct. recycle makes the caller gather each
// new sample into the vector the last release handed out, as a caller
// recycling its buffers does, and requires Observe to leave it intact.
func FuzzLabelerQueue(f *testing.F) {
	f.Add([]byte{3, 0, 2, 1, 0, 2, 4, 0, 1, 2, 8, 1, 1, 3}, false, false)
	f.Add([]byte{2, 0x10, 3, 1, 2, 3, 0x14, 3, 4, 5, 6, 0x10, 3, 7, 8, 9, 0x10, 3, 10, 11, 12, 0x18, 0x1c}, true, true)
	f.Add([]byte{7, 0, 4, 200, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0, 4, 16, 17, 18, 15, 0, 4, 14, 12, 11, 10, 0x18}, true, false)
	f.Add([]byte{1, 1, 1, 255, 1, 1, 254, 1, 5, 1, 1, 1, 0, 0x19, 0x1d}, false, true)
	f.Fuzz(func(t *testing.T, data []byte, batch, recycle bool) {
		if len(data) == 0 {
			return
		}
		horizon := 1 + int(data[0]%8)
		data = data[1:]
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		ref := &refLabeler{horizon: horizon, queues: map[string][]refSample{}}
		var got []release
		var reuse []float64 // the vector the last release handed out
		l := NewLabeler(horizon, func(s Labeled) {
			got = append(got, releaseOf(s.Disk, s.Day, s.Y, s.X))
			reuse = s.X
		})
		if batch {
			l.UpdateBatch = func(b []Labeled) {
				for i, s := range b {
					for _, o := range b[:i] {
						if cap(s.X) > 0 && cap(o.X) > 0 && &s.X[:1][0] == &o.X[:1][0] {
							t.Fatalf("UpdateBatch samples share a vector")
						}
					}
					got = append(got, releaseOf(s.Disk, s.Day, s.Y, s.X))
					reuse = s.X
				}
			}
		}
		day, checked := 0, 0 // checked: releases compared so far
		for step := 0; len(data) > 0; step++ {
			op := next()
			disk := fmt.Sprintf("d%d", op&3)
			switch kind := (op >> 2) % 8; {
			case kind < 6:
				switch b := next(); b {
				case 255:
					day = math.MaxInt
				case 254:
					day = math.MinInt
				default:
					day += int(int8(b))
				}
				n := int(next() % 5)
				var x []float64
				if recycle {
					x = reuse[:0]
				}
				for i := 0; i < n; i++ {
					v := fuzzSpecials[int(next())%len(fuzzSpecials)]
					if s := next(); s >= 128 && len(data) >= 8 {
						v = math.Float64frombits(binary.LittleEndian.Uint64(data))
						data = data[8:]
					}
					x = append(x, v)
				}
				want := releaseOf(disk, day, 0, x)
				ref.observe(disk, x, day)
				l.Observe(disk, x, day)
				if after := releaseOf(disk, day, 0, x); !slices.Equal(after.bits, want.bits) {
					t.Fatalf("step %d: Observe changed its x from %016x to %016x", step, want.bits, after.bits)
				}
			case kind == 6:
				ref.fail(disk)
				l.Fail(disk)
			default:
				delete(ref.queues, disk)
				l.Retire(disk)
			}
			if len(got) != len(ref.out) {
				t.Fatalf("step %d: %d releases, want %d:\n%v\n%v", step, len(got), len(ref.out), got, ref.out)
			}
			for i := checked; i < len(got); i++ {
				if !got[i].equal(ref.out[i]) {
					t.Fatalf("step %d: release %d is %v, want %v", step, i, got[i], ref.out[i])
				}
			}
			checked = len(got)
			if l.Pending() != ref.pending() || l.ActiveDisks() != len(ref.queues) {
				t.Fatalf("step %d: %d pending on %d disks, want %d on %d",
					step, l.Pending(), l.ActiveDisks(), ref.pending(), len(ref.queues))
			}
			if got, want := l.Disks(), ref.disks(); !slices.Equal(got, want) {
				t.Fatalf("step %d: Disks() = %v, want %v", step, got, want)
			}
		}
		for _, d := range ref.disks() {
			q := l.Queue(d)
			if q.Len() != len(ref.queues[d]) {
				t.Fatalf("disk %s queues %d samples, want %d", d, q.Len(), len(ref.queues[d]))
			}
			var each []release
			q.Each(func(day, nv int, vals []byte) error {
				x, _, err := packed.Decode(vals, uint64(nv), nil)
				if err != nil {
					t.Fatalf("Each of %s handed out %d values in % x: %v", d, nv, vals, err)
				}
				each = append(each, releaseOf(d, day, 0, x))
				return nil
			})
			for i, s := range ref.queues[d] {
				x, day := q.At(i)
				want := releaseOf(d, s.day, 0, s.x)
				if got := releaseOf(d, day, 0, x); !got.equal(want) {
					t.Fatalf("At(%d) of %s is %v, want %v", i, d, got, want)
				}
				if !each[i].equal(want) {
					t.Fatalf("Each's sample %d of %s is %v, want %v", i, d, each[i], want)
				}
			}
		}
	})
}
