// Package eval implements the paper's experiment protocols: the
// hyper-parameter tables (Tables 3-4), the monthly convergence comparison
// of ORF against offline models (Figures 2-3), the long-term deployment
// simulation with offline update strategies (Figures 4-7), and the
// feature-selection pipeline (Table 2).
//
// All protocols consume a Corpus: the materialized, scaled,
// selected-feature view of one simulated fleet, split 70/30 by disk.
package eval

import (
	"fmt"
	"sort"

	"orfdisk/internal/dataset"
	"orfdisk/internal/smart"
)

// Options configures corpus construction.
type Options struct {
	// Profile describes the fleet (dataset.STA / dataset.STB scaled).
	Profile dataset.Profile
	// Seed drives generation and the train/test split.
	Seed uint64
	// TrainFrac is the training share of disks (default 0.7).
	TrainFrac float64
	// Features are catalog indexes of the model inputs (default: the 19
	// Table 2 features).
	Features []int
}

func (o Options) withDefaults() Options {
	if o.TrainFrac <= 0 || o.TrainFrac >= 1 {
		o.TrainFrac = 0.7
	}
	if len(o.Features) == 0 {
		o.Features = smart.SelectedIndexes()
	}
	return o
}

// Arrival is one chronological training observation: the scaled feature
// vector a disk reported on a day, plus whether this is the disk's
// failure event.
type Arrival struct {
	DiskIdx int32 // index into Corpus.TrainDisks
	Day     int32
	Fail    bool
	X       []float64
}

// TestDisk is one held-out disk with its full scaled trajectory.
type TestDisk struct {
	Meta dataset.DiskMeta
	Days []int
	X    [][]float64
}

// Corpus is the materialized experiment view of one fleet.
type Corpus struct {
	// Gen is the simulator behind a synthetic corpus; nil for corpora
	// built from CSV data (BuildCorpusFromSamples).
	Gen      *dataset.Generator
	Name     string
	Days     int // observation window length in days
	Features []int
	Scaler   *smart.Scaler

	// TrainDisks and TrainArrivals hold the training split: per-disk
	// metadata and the flat chronological stream of scaled observations.
	TrainDisks    []dataset.DiskMeta
	TrainArrivals []Arrival
	// trainLastDay[i] is TrainDisks[i]'s last observed day.
	trainLastDay []int

	TestDisks []TestDisk

	// allDisks caches AllDiskViews' result.
	allDisks []TestDisk
}

// BuildCorpus generates the fleet, splits it by disk, fits the min-max
// scaler on the training split and materializes scaled trajectories.
func BuildCorpus(opt Options) (*Corpus, error) {
	opt = opt.withDefaults()
	gen, err := dataset.New(opt.Profile, opt.Seed)
	if err != nil {
		return nil, err
	}
	split := dataset.SplitDisks(gen.Disks(), opt.TrainFrac, opt.Seed^0x5eed)
	c := &Corpus{
		Gen:        gen,
		Name:       opt.Profile.Name,
		Days:       opt.Profile.Days(),
		Features:   opt.Features,
		TrainDisks: split.Train,
	}

	// Pass 1: raw projected trajectories for the training split, fitting
	// the scaler per Eq. 5 over the training data of this disk model.
	c.Scaler = smart.NewScaler(len(opt.Features))
	type rawDisk struct {
		days []int
		xs   [][]float64
		fail bool
	}
	raws := make([]rawDisk, len(split.Train))
	for i, m := range split.Train {
		ss := gen.DiskSamples(m)
		rd := rawDisk{fail: m.Failed}
		for _, s := range ss {
			x := smart.Project(s.Values, opt.Features)
			c.Scaler.Observe(x)
			rd.days = append(rd.days, s.Day)
			rd.xs = append(rd.xs, x)
		}
		raws[i] = rd
	}

	// Pass 2: scale in place and flatten into chronological arrivals.
	total := 0
	for i := range raws {
		total += len(raws[i].xs)
	}
	c.TrainArrivals = make([]Arrival, 0, total)
	c.trainLastDay = make([]int, len(split.Train))
	for i := range raws {
		rd := &raws[i]
		if len(rd.days) > 0 {
			c.trainLastDay[i] = rd.days[len(rd.days)-1]
		}
		for j, x := range rd.xs {
			c.Scaler.Transform(x, x)
			c.TrainArrivals = append(c.TrainArrivals, Arrival{
				DiskIdx: int32(i),
				Day:     int32(rd.days[j]),
				Fail:    rd.fail && j == len(rd.xs)-1,
				X:       x,
			})
		}
	}
	sort.SliceStable(c.TrainArrivals, func(a, b int) bool {
		if c.TrainArrivals[a].Day != c.TrainArrivals[b].Day {
			return c.TrainArrivals[a].Day < c.TrainArrivals[b].Day
		}
		return c.TrainArrivals[a].DiskIdx < c.TrainArrivals[b].DiskIdx
	})

	// Test split: full scaled trajectories.
	c.TestDisks = make([]TestDisk, 0, len(split.Test))
	for _, m := range split.Test {
		ss := gen.DiskSamples(m)
		td := TestDisk{Meta: m}
		for _, s := range ss {
			x := smart.Project(s.Values, opt.Features)
			c.Scaler.Transform(x, x)
			td.Days = append(td.Days, s.Day)
			td.X = append(td.X, x)
		}
		c.TestDisks = append(c.TestDisks, td)
	}
	return c, nil
}

// Months returns the number of whole months in the observation window.
func (c *Corpus) Months() int { return c.Days / smart.DaysPerMonth }

// OfflineTrainingSet assembles the offline-labeled training set from all
// arrivals with Day < maxDay. See OfflineTrainingSetRange.
func (c *Corpus) OfflineTrainingSet(maxDay int) (X [][]float64, y []int) {
	return c.OfflineTrainingSetRange(0, maxDay)
}

// OfflineTrainingSetRange assembles the offline-labeled training set from
// arrivals with minDay <= Day < maxDay, following section 4.4's labeling:
// for a failed disk the samples of its last week are positive and the
// rest negative; for a good disk the latest week is unlabeled (skipped)
// and the rest negative. The returned X rows alias corpus storage —
// callers must not modify them.
func (c *Corpus) OfflineTrainingSetRange(minDay, maxDay int) (X [][]float64, y []int) {
	return c.offlineSetRangeH(minDay, maxDay, smart.PredictionHorizonDays)
}

// offlineSetRangeH is OfflineTrainingSetRange with an explicit prediction
// horizon (used by the horizon-sweep experiment).
func (c *Corpus) offlineSetRangeH(minDay, maxDay, horizon int) (X [][]float64, y []int) {
	for i := range c.TrainArrivals {
		a := &c.TrainArrivals[i]
		if int(a.Day) < minDay || int(a.Day) >= maxDay {
			continue
		}
		m := &c.TrainDisks[a.DiskIdx]
		// A disk only counts as failed if its failure has already been
		// observed by the cutoff — a disk that will fail after maxDay is
		// indistinguishable from a good disk at training time.
		if m.Failed && m.FailDay < maxDay {
			if int(a.Day) > m.FailDay-horizon {
				X = append(X, a.X)
				y = append(y, 1)
			} else {
				X = append(X, a.X)
				y = append(y, 0)
			}
		} else {
			// The still-operating disk's latest observed week is
			// unlabeled. When training at a cutoff, "latest" is relative
			// to the cutoff: the disk may still fail within the horizon
			// after it.
			last := c.trainLastDay[a.DiskIdx]
			if maxDay-1 < last {
				last = maxDay - 1
			}
			if int(a.Day) > last-horizon {
				continue
			}
			X = append(X, a.X)
			y = append(y, 0)
		}
	}
	return X, y
}

// AllDiskViews returns per-disk trajectory views for the WHOLE fleet
// (training disks reconstructed from the arrival stream, then the test
// disks). The long-term protocol evaluates each month over all disks,
// like the paper's section 4.5 — the offline models are trained on
// earlier months, so the same disks' later months are still out of
// sample temporally. The views alias corpus storage; do not modify.
func (c *Corpus) AllDiskViews() []TestDisk {
	if c.allDisks != nil {
		return c.allDisks
	}
	views := make([]TestDisk, len(c.TrainDisks))
	for i, m := range c.TrainDisks {
		views[i].Meta = m
	}
	for i := range c.TrainArrivals {
		a := &c.TrainArrivals[i]
		v := &views[a.DiskIdx]
		v.Days = append(v.Days, int(a.Day))
		v.X = append(v.X, a.X)
	}
	c.allDisks = append(views, c.TestDisks...)
	return c.allDisks
}

// String summarizes the corpus.
func (c *Corpus) String() string {
	return fmt.Sprintf("corpus %s: %d train disks (%d arrivals), %d test disks, %d features",
		c.Name, len(c.TrainDisks), len(c.TrainArrivals),
		len(c.TestDisks), len(c.Features))
}
