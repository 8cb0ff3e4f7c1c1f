package eval

import (
	"fmt"

	"orfdisk/internal/core"
	"orfdisk/internal/dtree"
	"orfdisk/internal/forest"
	"orfdisk/internal/labeling"
	"orfdisk/internal/rng"
	"orfdisk/internal/smart"
	"orfdisk/internal/svm"
)

// OfflineLearner fits a scorer on an offline-labeled training set. The
// experiment protocols treat all offline baselines uniformly through
// this interface.
type OfflineLearner interface {
	Name() string
	// Fit trains on (X, y); implementations apply their own balancing
	// (e.g. NegSampleRatio downsampling) internally. It returns an error
	// when the data cannot support training (e.g. a single class).
	Fit(X [][]float64, y []int, seed uint64) (Scorer, error)
}

// countClasses returns (negatives, positives).
func countClasses(y []int) (neg, pos int) {
	for _, v := range y {
		if v == 1 {
			pos++
		} else {
			neg++
		}
	}
	return neg, pos
}

// RFLearner is the offline Random Forest baseline with the paper's
// NegSampleRatio balance (λ, Eq. 4).
type RFLearner struct {
	Lambda float64 // NegSampleRatio; <= 0 means no downsampling (λ=Max)
	Config forest.Config
	// MaxRows, when > 0, caps the training set by uniform subsampling
	// AFTER the λ balance is applied. It preserves the class mix, so the
	// λ=Max row's "biased toward the majority" behaviour is intact while
	// unlimited-depth training on the full multi-hundred-thousand-row
	// set stays tractable.
	MaxRows int
}

// Name implements OfflineLearner.
func (l RFLearner) Name() string {
	if l.Lambda <= 0 {
		return "RF(λ=Max)"
	}
	return fmt.Sprintf("RF(λ=%g)", l.Lambda)
}

// Fit implements OfflineLearner.
func (l RFLearner) Fit(X [][]float64, y []int, seed uint64) (Scorer, error) {
	neg, pos := countClasses(y)
	if pos == 0 || neg == 0 {
		return nil, fmt.Errorf("rf: single-class training set (%d neg, %d pos)", neg, pos)
	}
	idx := forest.Downsample(y, l.Lambda, seed)
	bx, by := forest.Gather(X, y, idx)
	if l.MaxRows > 0 && len(bx) > l.MaxRows {
		keep := rng.New(seed^0x5f5f).Sample(len(bx), l.MaxRows)
		bx, by = forest.Gather(bx, by, keep)
		if n, p := countClasses(by); n == 0 || p == 0 {
			return nil, fmt.Errorf("rf: degenerate subsample (%d neg, %d pos)", n, p)
		}
	}
	cfg := l.Config
	cfg.Seed = seed
	f := forest.Train(bx, by, cfg)
	return f.PredictProba, nil
}

// DTLearner is the offline CART baseline (fitctree-style: Gini, capped
// splits, class weights) trained on the λ-downsampled set.
type DTLearner struct {
	Lambda float64
	Config dtree.Config
}

// Name implements OfflineLearner.
func (l DTLearner) Name() string { return "DT" }

// Fit implements OfflineLearner.
func (l DTLearner) Fit(X [][]float64, y []int, seed uint64) (Scorer, error) {
	neg, pos := countClasses(y)
	if pos == 0 || neg == 0 {
		return nil, fmt.Errorf("dt: single-class training set (%d neg, %d pos)", neg, pos)
	}
	idx := forest.Downsample(y, l.Lambda, seed)
	bx, by := forest.Gather(X, y, idx)
	cfg := l.Config
	if cfg.MaxSplits == 0 {
		cfg.MaxSplits = 100 // the paper's MaxNumSplits
	}
	t := dtree.Grow(bx, by, cfg)
	return t.PredictProba, nil
}

// SVMLearner is the C-SVC RBF baseline trained on the λ-downsampled set.
type SVMLearner struct {
	Lambda float64
	Config svm.Config
	// MaxRows caps the training set (balanced subsample) because SMO
	// training is O(n^2) in memory and worse in time; LIBSVM has the
	// same practical ceiling. 0 means 2000.
	MaxRows int
}

// Name implements OfflineLearner.
func (l SVMLearner) Name() string { return "SVM" }

// Fit implements OfflineLearner.
func (l SVMLearner) Fit(X [][]float64, y []int, seed uint64) (Scorer, error) {
	neg, pos := countClasses(y)
	if pos == 0 || neg == 0 {
		return nil, fmt.Errorf("svm: single-class training set (%d neg, %d pos)", neg, pos)
	}
	idx := forest.Downsample(y, l.Lambda, seed)
	bx, by := forest.Gather(X, y, idx)
	maxRows := l.MaxRows
	if maxRows <= 0 {
		maxRows = 2000
	}
	if len(bx) > maxRows {
		keep := rng.New(seed^0xabcd).Sample(len(bx), maxRows)
		bx, by = forest.Gather(bx, by, keep)
	}
	// Guard: downsampling cannot create a single-class set (positives
	// are always kept), but tiny early-month sets can be degenerate.
	if n, p := countClasses(by); n == 0 || p == 0 {
		return nil, fmt.Errorf("svm: degenerate downsampled set (%d neg, %d pos)", n, p)
	}
	m := svm.Train(bx, by, l.Config)
	return m.Decision, nil
}

// ORFRunner streams a corpus's training arrivals through the automatic
// online label method (Algorithm 2) into an online random forest. It
// exposes the forest's scorer at any point of the stream, which is how
// the monthly protocols snapshot the model.
type ORFRunner struct {
	Forest  *core.Forest
	labeler *labeling.Labeler
	pos     int
	neg     int
}

// NewORFRunner creates a runner with the given ORF configuration over
// dim-dimensional inputs, labeling a disk's last horizon days before its
// failure positive (smart.PredictionHorizonDays in the paper).
func NewORFRunner(dim, horizon int, cfg core.Config) *ORFRunner {
	r := &ORFRunner{Forest: core.New(dim, cfg)}
	r.labeler = labeling.NewLabeler(horizon, func(s labeling.Labeled) {
		yi := 0
		if s.Y == smart.Positive {
			yi = 1
			r.pos++
		} else {
			r.neg++
		}
		r.Forest.Update(s.X, yi)
	})
	return r
}

// Consume feeds arrivals[lo:hi] (a chronological slice of the corpus
// stream) through the labeler into the forest.
func (r *ORFRunner) Consume(c *Corpus, lo, hi int) {
	for i := lo; i < hi; i++ {
		a := &c.TrainArrivals[i]
		disk := c.TrainDisks[a.DiskIdx].Serial
		r.labeler.Observe(disk, a.X, int(a.Day))
		if a.Fail {
			r.labeler.Fail(disk)
		}
	}
}

// ConsumeThroughDay advances the stream cursor (the index into
// TrainArrivals) through all arrivals with Day < day and returns the new
// cursor.
func (r *ORFRunner) ConsumeThroughDay(c *Corpus, cursor, day int) int {
	hi := cursor
	for hi < len(c.TrainArrivals) && int(c.TrainArrivals[hi].Day) < day {
		hi++
	}
	r.Consume(c, cursor, hi)
	return hi
}

// Scorer returns the forest's probability scorer. The forest must not be
// updated while the scorer is in use.
func (r *ORFRunner) Scorer() Scorer { return r.Forest.PredictProba }

// LabeledCounts returns how many positive and negative samples the
// labeler has released into the forest so far.
func (r *ORFRunner) LabeledCounts() (pos, neg int) { return r.pos, r.neg }
