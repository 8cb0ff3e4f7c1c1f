package eval

import (
	"fmt"
	"sync"

	"orfdisk"
	"orfdisk/internal/core"
	"orfdisk/internal/dtree"
	"orfdisk/internal/forest"
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

// orfStream drives the service's Predictor over a corpus's training
// stream: Algorithm 2 with the online min-max scaler, exactly as the
// engine runs it for one drive model. Each unscaled arrival is laid into
// a catalog-width row for Absorb, which gathers the same values back.
type orfStream struct {
	c      *Corpus
	p      *orfdisk.Predictor
	next   int       // the first arrival not yet absorbed
	values []float64 // reused catalog-width row
}

// newORFStream creates the stream's predictor, labeling a disk's last
// horizon days before its failure positive (smart.PredictionHorizonDays
// in the paper).
func newORFStream(c *Corpus, horizon int, cfg core.Config) *orfStream {
	return &orfStream{
		c:      c,
		p:      orfdisk.NewPredictor(orfdisk.Config{Features: c.Features, Horizon: horizon, ORF: cfg}),
		values: make([]float64, smart.NumFeatures()),
	}
}

// absorbUntil feeds the predictor every arrival with Day < day.
func (s *orfStream) absorbUntil(day int) {
	for ; s.next < len(s.c.TrainArrivals) && int(s.c.TrainArrivals[s.next].Day) < day; s.next++ {
		a := &s.c.TrainArrivals[s.next]
		layCatalog(s.values, s.c.Features, a.Raw)
		obs := orfdisk.Observation{Serial: s.c.TrainDisks[a.DiskIdx].Serial, Day: int(a.Day), Failed: a.Fail, Values: s.values}
		if err := s.p.Absorb(obs); err != nil {
			panic(err) // values is catalog-width
		}
	}
}

// scorer freezes the predictor and scores unscaled vectors (see
// unscaled) through the snapshot, the service's /v1/predict path. It is
// safe for concurrent use.
func (s *orfStream) scorer() Scorer {
	fm := s.p.Freeze()
	rows := sync.Pool{New: func() any {
		values := make([]float64, smart.NumFeatures())
		return &values
	}}
	return func(x []float64) float64 {
		values := rows.Get().(*[]float64)
		defer rows.Put(values)
		layCatalog(*values, s.c.Features, x)
		score, err := fm.Score(*values)
		if err != nil {
			panic(err) // values is catalog-width
		}
		return score
	}
}

// layCatalog writes x, projected onto features, back into the catalog
// row values. Positions outside features keep whatever they held.
func layCatalog(values []float64, features []int, x []float64) {
	for i, f := range features {
		values[f] = x[i]
	}
}
