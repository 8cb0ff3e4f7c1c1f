package dataset

import (
	"fmt"
	"sort"

	"orfdisk/internal/rng"
	"orfdisk/internal/smart"
)

// DiskMeta is the ground-truth record of one simulated disk.
type DiskMeta struct {
	Serial string
	Index  int
	Failed bool
	// Unpredictable marks failures with no SMART signature (sudden
	// mechanical/electronic deaths); the model cannot detect these from
	// the data, which bounds FDR below 100%.
	Unpredictable bool
	// InstallDay may be negative: the disk was already in service when
	// the observation window opened (its counters are pre-aged).
	InstallDay int
	// FailDay is the disk's last reporting day; -1 for good disks.
	FailDay int
	// OnsetDay is the first day of the degradation ramp; -1 if none.
	OnsetDay int
}

// FirstObservedDay returns the first day within the window on which the
// disk reports.
func (m DiskMeta) FirstObservedDay() int {
	if m.InstallDay > 0 {
		return m.InstallDay
	}
	return 0
}

// LastObservedDay returns the last day within [0, windowDays) on which the
// disk reports.
func (m DiskMeta) LastObservedDay(windowDays int) int {
	if m.Failed {
		return m.FailDay
	}
	return windowDays - 1
}

// Generator produces the synthetic fleet for one profile. It is safe for
// concurrent readers after construction.
type Generator struct {
	prof  Profile
	seed  uint64
	disks []DiskMeta
	// diskSeed[i] seeds disk i's private random stream, so any disk's
	// trajectory regenerates identically in isolation.
	diskSeed []uint64
}

// New builds the fleet metadata (install/fail/onset days) for prof.
func New(prof Profile, seed uint64) (*Generator, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{prof: prof, seed: seed}
	r := rng.New(seed)
	days := prof.Days()
	n := prof.TotalDisks()
	g.disks = make([]DiskMeta, 0, n)
	g.diskSeed = make([]uint64, 0, n)

	for i := 0; i < n; i++ {
		failed := i < prof.FailedDisks
		m := DiskMeta{
			Serial:   fmt.Sprintf("%s-%06d", prof.Name, i),
			Index:    i,
			Failed:   failed,
			FailDay:  -1,
			OnsetDay: -1,
		}
		if failed {
			// Spread failures across the whole window so every month of
			// the long-term experiments contains failure events.
			m.FailDay = 15 + r.Intn(maxInt(1, days-15))
			// Failing disks tend to be old at failure: lifetime of about
			// a year plus an exponential tail. This is what makes
			// Power-On Hours (Table 2 rank 5) genuinely informative.
			lifetime := 150 + int(r.ExpFloat64()*400)
			if lifetime > 1800 {
				lifetime = 1800
			}
			m.InstallDay = m.FailDay - lifetime
			m.Unpredictable = r.Bernoulli(prof.UnpredictableFrac)
			if !m.Unpredictable {
				onsetWindow := 10 + int(r.ExpFloat64()*25)
				if onsetWindow < 3 {
					onsetWindow = 3
				}
				m.OnsetDay = m.FailDay - onsetWindow
				if m.OnsetDay < m.InstallDay {
					m.OnsetDay = m.InstallDay
				}
			}
		} else {
			// Good disks: a mix of pre-window vintages and mid-window
			// arrivals (the fleet keeps growing, as Backblaze's did).
			lo, hi := -600, int(float64(days)*0.6)
			m.InstallDay = lo + r.Intn(hi-lo+1)
		}
		g.disks = append(g.disks, m)
		g.diskSeed = append(g.diskSeed, r.Uint64())
	}
	return g, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.prof }

// Disks returns the fleet metadata. The slice is shared; do not modify.
func (g *Generator) Disks() []DiskMeta { return g.disks }

// DiskSamples materializes the full in-window trajectory of one disk.
func (g *Generator) DiskSamples(m DiskMeta) []smart.Sample {
	st := newDiskState(g.prof, m, g.diskSeed[m.Index])
	first := m.FirstObservedDay()
	last := m.LastObservedDay(g.prof.Days())
	if last < first {
		return nil
	}
	out := make([]smart.Sample, 0, last-first+1)
	// The state machine requires consecutive days starting at the first
	// in-window day; pre-window days were folded into newDiskState.
	for d := first; d <= last; d++ {
		out = append(out, st.step(d))
	}
	return out
}

// Stream generates the whole fleet in chronological order (day-major,
// disk-index order within a day) and calls fn for every sample. This is
// the arrival order the online protocols consume. fn returning an error
// aborts the stream.
func (g *Generator) Stream(fn func(smart.Sample) error) error {
	return g.StreamDisks(g.disks, fn)
}

// StreamDisks streams only the given disks (e.g. the training split) in
// chronological order.
func (g *Generator) StreamDisks(disks []DiskMeta, fn func(smart.Sample) error) error {
	fs, err := newFleetStream(g, disks)
	if err != nil {
		return err
	}
	for day := 0; day < g.prof.Days(); day++ {
		if err := fs.emitDay(day, fn); err != nil {
			return err
		}
	}
	return nil
}

// fleetStream is the per-day stepper behind StreamDisks and
// StreamMerged: it holds the active disk states of one generator and
// emits one day at a time, so multiple fleets can be interleaved
// day-by-day without materializing either.
type fleetStream struct {
	// byStart keys pending disk states by first observation day.
	byStart map[int][]*diskState
	active  []*diskState
}

func newFleetStream(g *Generator, disks []DiskMeta) (*fleetStream, error) {
	fs := &fleetStream{byStart: make(map[int][]*diskState)}
	for _, m := range disks {
		if m.Index < 0 || m.Index >= len(g.disks) || g.disks[m.Index].Serial != m.Serial {
			return nil, fmt.Errorf("dataset: disk %q does not belong to this generator", m.Serial)
		}
		fs.byStart[m.FirstObservedDay()] = append(fs.byStart[m.FirstObservedDay()],
			newDiskState(g.prof, m, g.diskSeed[m.Index]))
	}
	return fs, nil
}

// emitDay steps every disk active on day and calls fn for each sample,
// in deterministic disk-index order. Days must be visited consecutively
// from 0; the disk state machines require it.
func (fs *fleetStream) emitDay(day int, fn func(smart.Sample) error) error {
	if starts := fs.byStart[day]; len(starts) > 0 {
		fs.active = append(fs.active, starts...)
		delete(fs.byStart, day)
		// Keep deterministic disk-index order within a day.
		sort.Slice(fs.active, func(i, j int) bool {
			return fs.active[i].meta.Index < fs.active[j].meta.Index
		})
	}
	w := 0
	for _, st := range fs.active {
		if err := fn(st.step(day)); err != nil {
			return err
		}
		if !(st.meta.Failed && day == st.meta.FailDay) {
			fs.active[w] = st
			w++
		}
	}
	fs.active = fs.active[:w]
	return nil
}

// StreamMerged interleaves several fleets into one chronological stream:
// day-major over the union of windows, generator order then disk-index
// order within a day. This produces the mixed-model daily snapshots a
// real data center reports — exactly the shape a Backblaze export has —
// without materializing any fleet. Generators must have distinct profile
// names or serials would collide.
func StreamMerged(gens []*Generator, fn func(smart.Sample) error) error {
	days := 0
	streams := make([]*fleetStream, len(gens))
	for i, g := range gens {
		for j := 0; j < i; j++ {
			if gens[j].prof.Name == g.prof.Name {
				return fmt.Errorf("dataset: StreamMerged needs distinct profile names, got %q twice", g.prof.Name)
			}
		}
		fs, err := newFleetStream(g, g.disks)
		if err != nil {
			return err
		}
		streams[i] = fs
		if d := g.prof.Days(); d > days {
			days = d
		}
	}
	for day := 0; day < days; day++ {
		for i, fs := range streams {
			if day >= gens[i].prof.Days() {
				continue
			}
			if err := fs.emitDay(day, fn); err != nil {
				return err
			}
		}
	}
	return nil
}
