// Package eval implements the paper's experiment protocols: the
// hyper-parameter tables (Tables 3-4), the monthly convergence comparison
// of ORF against offline models (Figures 2-3), the long-term deployment
// simulation with offline update strategies (Figures 4-7), and the
// feature-selection pipeline (Table 2).
//
// All protocols consume a Corpus: the materialized selected-feature
// view of one simulated fleet, split 70/30 by disk. It holds every
// vector twice: unscaled, as a disk reports it, for the ORF, which runs
// the service's Predictor and scales online; and scaled by a min-max
// scaler fitted on the whole training split, for the offline models and
// the drift report (the paper's offline protocol, section 4.4).
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

// Arrival is one chronological training observation: the feature
// vector a disk reported on a day, plus whether this is the disk's
// failure event.
type Arrival struct {
	DiskIdx int32 // index into Corpus.TrainDisks
	Day     int32
	Fail    bool
	X       []float64 // scaled by Corpus.Scaler
	Raw     []float64 // unscaled
}

// TestDisk is one held-out disk with its full trajectory.
type TestDisk struct {
	Meta dataset.DiskMeta
	Days []int
	X    [][]float64 // scaled by Corpus.Scaler
	Raw  [][]float64 // unscaled
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
	// metadata and the flat chronological stream of observations.
	TrainDisks    []dataset.DiskMeta
	TrainArrivals []Arrival
	// trainLastDay[i] is TrainDisks[i]'s last observed day.
	trainLastDay []int

	TestDisks []TestDisk

	// allDisks caches AllDiskViews' result.
	allDisks []TestDisk
}

// BuildCorpus generates the fleet, splits it by disk, fits the min-max
// scaler on the training split and materializes the trajectories.
func BuildCorpus(opt Options) (*Corpus, error) {
	opt = opt.withDefaults()
	gen, err := dataset.New(opt.Profile, opt.Seed)
	if err != nil {
		return nil, err
	}
	split := dataset.SplitDisks(gen.Disks(), opt.TrainFrac, opt.Seed^0x5eed)
	c := &Corpus{
		Gen:      gen,
		Name:     opt.Profile.Name,
		Days:     opt.Profile.Days(),
		Features: opt.Features,
	}
	c.materialize(split, func(m dataset.DiskMeta) (days []int, xs [][]float64) {
		for _, s := range gen.DiskSamples(m) {
			days = append(days, s.Day)
			xs = append(xs, smart.Project(s.Values, opt.Features))
		}
		return days, xs
	})
	return c, nil
}

// materialize fills the corpus from a disk split: it fits the min-max
// scaler per Eq. 5 on the training split, flattens the training
// trajectories into the chronological arrival stream, and keeps a
// scaled copy of every vector beside the unscaled one. trajectory
// returns one disk's observation days and its projected, unscaled
// feature vectors, which the corpus keeps; it is called for every
// training disk, then every test disk, in split order.
func (c *Corpus) materialize(split dataset.Split, trajectory func(dataset.DiskMeta) (days []int, xs [][]float64)) {
	type rawDisk struct {
		days []int
		xs   [][]float64
	}
	c.TrainDisks = split.Train
	c.Scaler = smart.NewScaler(len(c.Features))
	raws := make([]rawDisk, len(split.Train))
	total := 0
	for i, m := range split.Train {
		days, xs := trajectory(m)
		for _, x := range xs {
			c.Scaler.Observe(x)
		}
		raws[i] = rawDisk{days: days, xs: xs}
		total += len(xs)
	}

	c.TrainArrivals = make([]Arrival, 0, total)
	c.trainLastDay = make([]int, len(split.Train))
	for i, rd := range raws {
		if len(rd.days) > 0 {
			c.trainLastDay[i] = rd.days[len(rd.days)-1]
		}
		for j, x := range rd.xs {
			c.TrainArrivals = append(c.TrainArrivals, Arrival{
				DiskIdx: int32(i),
				Day:     int32(rd.days[j]),
				Fail:    split.Train[i].Failed && j == len(rd.xs)-1,
				X:       c.Scaler.Transform(x, nil),
				Raw:     x,
			})
		}
	}
	sort.SliceStable(c.TrainArrivals, func(a, b int) bool {
		if c.TrainArrivals[a].Day != c.TrainArrivals[b].Day {
			return c.TrainArrivals[a].Day < c.TrainArrivals[b].Day
		}
		return c.TrainArrivals[a].DiskIdx < c.TrainArrivals[b].DiskIdx
	})

	c.TestDisks = make([]TestDisk, 0, len(split.Test))
	for _, m := range split.Test {
		days, xs := trajectory(m)
		d := TestDisk{Meta: m, Days: days, X: make([][]float64, len(xs)), Raw: xs}
		for j, x := range xs {
			d.X[j] = c.Scaler.Transform(x, nil)
		}
		c.TestDisks = append(c.TestDisks, d)
	}
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
		v.Raw = append(v.Raw, a.Raw)
	}
	c.allDisks = append(views, c.TestDisks...)
	return c.allDisks
}

// unscaled returns copies of disks whose X is their unscaled Raw: the
// input the ORF's own running scaler expects.
func unscaled(disks []TestDisk) []TestDisk {
	out := make([]TestDisk, len(disks))
	for i, d := range disks {
		d.X = d.Raw
		out[i] = d
	}
	return out
}

// String summarizes the corpus.
func (c *Corpus) String() string {
	return fmt.Sprintf("corpus %s: %d train disks (%d arrivals), %d test disks, %d features",
		c.Name, len(c.TrainDisks), len(c.TrainArrivals),
		len(c.TestDisks), len(c.Features))
}
