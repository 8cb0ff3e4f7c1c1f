package eval

import (
	"fmt"
	"io"
	"sort"

	"orfdisk/internal/dataset"
	"orfdisk/internal/smart"
)

// SampleOptions configures corpus construction from raw samples (e.g. a
// real Backblaze CSV export).
type SampleOptions struct {
	// Name labels the corpus in reports; defaults to the majority drive
	// model in the data.
	Name string
	// Seed drives the train/test split.
	Seed uint64
	// TrainFrac is the training share of disks (default 0.7).
	TrainFrac float64
	// Features are catalog indexes of the model inputs (default: the 19
	// Table 2 features).
	Features []int
	// MinSamplesPerDisk drops disks with fewer snapshots (default 1).
	MinSamplesPerDisk int
}

// BuildCorpusFromSamples materializes an experiment corpus from raw
// SMART samples, making every protocol in this package (Tables 3-4,
// Figures 2-7) runnable on real field data (BuildCorpusFromCSV reads a
// Backblaze CSV into it).
//
// Disk ground truth is derived from the data itself, the way the paper
// derives it from the Backblaze snapshots: a disk is failed iff its last
// snapshot carries failure=1; day indexes are shifted so the earliest
// snapshot is day 0.
func BuildCorpusFromSamples(samples []smart.Sample, opt SampleOptions) (*Corpus, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("eval: no samples")
	}
	if opt.TrainFrac <= 0 || opt.TrainFrac >= 1 {
		opt.TrainFrac = 0.7
	}
	if len(opt.Features) == 0 {
		opt.Features = smart.SelectedIndexes()
	}
	if opt.MinSamplesPerDisk <= 0 {
		opt.MinSamplesPerDisk = 1
	}

	// Group by disk, tracking the observation window.
	minDay := samples[0].Day
	byDisk := map[string][]*smart.Sample{}
	modelCount := map[string]int{}
	for i := range samples {
		s := &samples[i]
		if s.Day < minDay {
			minDay = s.Day
		}
		byDisk[s.Serial] = append(byDisk[s.Serial], s)
		modelCount[s.Model]++
	}
	if opt.Name == "" {
		best := 0
		for m, n := range modelCount {
			if n > best {
				best, opt.Name = n, m
			}
		}
	}

	// Build disk metadata (sorted serials for determinism).
	serials := make([]string, 0, len(byDisk))
	for serial := range byDisk {
		serials = append(serials, serial)
	}
	sort.Strings(serials)

	var disks []dataset.DiskMeta
	maxDay := 0
	for _, serial := range serials {
		ss := byDisk[serial]
		sort.Slice(ss, func(a, b int) bool { return ss[a].Day < ss[b].Day })
		if len(ss) < opt.MinSamplesPerDisk {
			continue
		}
		first := ss[0].Day - minDay
		last := ss[len(ss)-1].Day - minDay
		if last > maxDay {
			maxDay = last
		}
		m := dataset.DiskMeta{
			Serial:     serial,
			Index:      len(disks),
			InstallDay: first,
			FailDay:    -1,
			OnsetDay:   -1,
		}
		if ss[len(ss)-1].Failure {
			m.Failed = true
			m.FailDay = last
		}
		disks = append(disks, m)
	}
	if len(disks) == 0 {
		return nil, fmt.Errorf("eval: no disks with >= %d samples", opt.MinSamplesPerDisk)
	}

	c := &Corpus{
		Name:     opt.Name,
		Days:     maxDay + 1,
		Features: opt.Features,
	}
	c.materialize(dataset.SplitDisks(disks, opt.TrainFrac, opt.Seed^0x5eed), func(m dataset.DiskMeta) ([]int, [][]float64) {
		ss := byDisk[m.Serial]
		days := make([]int, len(ss))
		xs := make([][]float64, len(ss))
		for j, s := range ss {
			days[j] = s.Day - minDay
			xs[j] = smart.Project(s.Values, opt.Features)
		}
		return days, xs
	})
	return c, nil
}

// BuildCorpusFromCSV reads a Backblaze-format CSV stream with
// smart.FastReader and builds a corpus from it. The first malformed row
// is an error.
func BuildCorpusFromCSV(r io.Reader, opt SampleOptions) (*Corpus, error) {
	fr, err := smart.NewFastReader(r)
	if err != nil {
		return nil, err
	}
	var samples []smart.Sample
	for {
		var s smart.Sample // its own Values: Read reuses the slice it is given
		if err := fr.Read(&s); err == io.EOF {
			return BuildCorpusFromSamples(samples, opt)
		} else if err != nil {
			return nil, err
		}
		samples = append(samples, s)
	}
}
