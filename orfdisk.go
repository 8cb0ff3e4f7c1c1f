// Package orfdisk is an online-learning disk failure predictor for data
// centers, reproducing Xiao et al., "Disk Failure Prediction in Data
// Centers via Online Learning" (ICPP 2018).
//
// The heart of the library is Predictor, which implements the paper's
// Algorithm 2 end to end over a stream of daily SMART snapshots:
//
//   - min-max feature scaling maintained online (Eq. 5);
//   - the automatic online label method: each disk's recent samples wait
//     in a fixed-length queue until the disk either survives the
//     prediction horizon (negative) or fails (positive);
//   - an Online Random Forest (Algorithm 1) with two-Poisson online
//     bagging for class imbalance, Gini-driven online tree growth, and
//     OOBE-triggered replacement of outdated trees;
//   - a live risk prediction for every arriving snapshot.
//
// Supporting packages under internal/ provide the evaluation substrate:
// a Backblaze-like fleet simulator, offline RF/DT/SVM/NB baselines, the
// Wilcoxon feature-selection pipeline and the paper's experiment
// protocols. The cmd/orfexp binary regenerates every table and figure of
// the paper's evaluation section.
package orfdisk

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"orfdisk/internal/core"
	"orfdisk/internal/labeling"
	"orfdisk/internal/smart"
)

// ORFConfig re-exports the online random forest hyper-parameters
// (Algorithm 1). The zero value selects the paper's defaults: T=30 trees,
// alpha=200, beta=0.1, lambda_p=1, lambda_n=0.02.
type ORFConfig = core.Config

// Observation is one daily SMART snapshot of one disk, the Predictor's
// input unit.
type Observation struct {
	// Serial uniquely identifies the disk.
	Serial string
	// Day is the acquisition day (any monotonically increasing integer
	// clock shared by the fleet).
	Day int
	// Failed marks the disk's final report: the disk was diagnosed
	// failed when this snapshot was taken.
	Failed bool
	// Values holds the full candidate feature vector in catalog order;
	// see CatalogSize and FeatureNames. Build it with PackValues or from
	// a Backblaze CSV via internal/smart.FastReader.
	Values []float64
}

// Prediction is the Predictor's output for one observation.
type Prediction struct {
	Serial string
	Day    int
	// Score is the forest's failure probability for this snapshot
	// (NaN for failure events, which produce no prediction).
	Score float64
	// Risky reports Score >= the alarm threshold: the paper recommends
	// immediate data migration when set.
	Risky bool
	// Final marks a failure event (the disk left the fleet).
	Final bool
}

// Config configures a Predictor.
type Config struct {
	// Features are catalog indexes of the model inputs; nil selects the
	// paper's 19 features (Table 2).
	Features []int
	// ORF holds the forest hyper-parameters (zero = paper defaults).
	ORF ORFConfig
	// Horizon is the prediction window in days (and the per-disk queue
	// length); 0 selects the paper's 7. LoadPredictorState takes a
	// horizon above 65536 for damage.
	Horizon int
	// Threshold is the alarm probability threshold; 0 selects 0.5.
	Threshold float64
}

// Predictor runs the paper's online learning pipeline. Not safe for
// concurrent use; wrap with a mutex or shard by disk if needed.
type Predictor struct {
	features  []int
	scaler    *smart.Scaler
	labeler   *labeling.Labeler
	forest    *core.Forest
	threshold float64
	horizon   int
	scaled    []float64 // scratch buffer
	// proj is project's scratch: a row's features gathered out of its
	// values, which the labeling queue copies (packed) when it queues
	// them.
	proj []float64
	// Read-path snapshot state (see Freeze/Frozen): the last published
	// FrozenModel and the scratch pools its snapshots share. The pools
	// are rebuilt whenever scorePoolDim disagrees with len(features), so
	// snapshots never score through a wrong-width pooled buffer.
	frozen       atomic.Pointer[FrozenModel]
	scorePool    *sync.Pool
	scorePoolDim int
	batchPool    *sync.Pool
}

// features returns the catalog indexes a predictor built from cfg reads.
func (cfg Config) features() []int {
	if len(cfg.Features) == 0 {
		return smart.SelectedIndexes()
	}
	return cfg.Features
}

// NewPredictor creates a Predictor.
func NewPredictor(cfg Config) *Predictor {
	features := cfg.features()
	horizon := cfg.Horizon
	if horizon <= 0 {
		horizon = smart.PredictionHorizonDays
	}
	threshold := cfg.Threshold
	if threshold <= 0 {
		threshold = 0.5
	}
	p := &Predictor{
		features:  features,
		scaler:    smart.NewScaler(len(features)),
		forest:    core.New(len(features), cfg.ORF),
		threshold: threshold,
		horizon:   horizon,
		scaled:    make([]float64, len(features)),
	}
	p.bindLabeler()
	return p
}

// bindLabeler wires the predictor's labeling queues to the forest.
// Queued samples are stored raw and scaled at release time, so label
// releases always use the freshest feature ranges.
func (p *Predictor) bindLabeler() {
	p.labeler = labeling.NewLabeler(p.horizon, func(s labeling.Labeled) {
		y := 0
		if s.Y == smart.Positive {
			y = 1
		}
		p.forest.Update(p.scaler.Transform(s.X, p.scaled), y)
	})
}

// project gathers the features p reads out of a row into p's scratch
// vector, valid until the next project: pos[i] is where feature i sits
// in values (p.features itself for a catalog vector).
func (p *Predictor) project(values []float64, pos []int) []float64 {
	p.proj = smart.AppendProject(p.proj[:0], values, pos)
	return p.proj
}

// positionsIn returns, appended to buf[:0], where each feature p reads
// sits in a row holding the catalog values at index; ok is false when
// index lacks one of them.
func (p *Predictor) positionsIn(index, buf []int) (pos []int, ok bool) {
	pos = buf[:0]
	for _, f := range p.features {
		j := slices.Index(index, f)
		if j < 0 {
			return pos, false
		}
		pos = append(pos, j)
	}
	return pos, true
}

// checkCatalog is the one check every door that takes a caller's row
// makes of it (Ingest, Absorb, Score, the frozen model's and the
// engine's): it carries the whole catalog.
func checkCatalog(values []float64) error {
	if len(values) != smart.NumFeatures() {
		return fmt.Errorf("orfdisk: %d values, want the %d-feature catalog",
			len(values), smart.NumFeatures())
	}
	return nil
}

// Ingest processes one observation per Algorithm 2: it updates the model
// with whatever the labeling queues release, then (for operating disks)
// returns the live risk prediction for the new snapshot.
func (p *Predictor) Ingest(obs Observation) (Prediction, error) {
	if err := checkCatalog(obs.Values); err != nil {
		return Prediction{}, err
	}
	return p.apply(&obs, p.project(obs.Values, p.features), true), nil
}

// Absorb processes one observation exactly like Ingest but skips the
// live risk prediction. Scoring is a pure read (the forest, scaler and
// labeling queues only move on updates), so after Absorb the predictor
// is in bit-for-bit the state an Ingest of the same observation would
// have left — minus the dominant PredictProba tree walk. Bulk replay
// (internal/backfill) runs on this path: historical rows need the
// model's state, not day-by-day alarms.
func (p *Predictor) Absorb(obs Observation) error {
	if err := checkCatalog(obs.Values); err != nil {
		return err
	}
	p.apply(&obs, p.project(obs.Values, p.features), false)
	return nil
}

// apply is Algorithm 2 for one observation whose features p has already
// projected into x, which the labeling queue copies and apply leaves
// unchanged. Ingest and Absorb are a check, a projection and this; the
// engine applies the vector it logged or gathered from a log record.
// score selects Ingest's live prediction; without it the Prediction is
// zero.
func (p *Predictor) apply(obs *Observation, x []float64, score bool) Prediction {
	p.scaler.Observe(x)
	// Rotate the queue (an operating disk's oldest sample may be released
	// as negative); a failed disk's whole queue is then labeled positive
	// (Alg. 2 lines 2-8), and no prediction is made for a dead disk.
	p.labeler.Observe(obs.Serial, x, obs.Day)
	if obs.Failed {
		p.labeler.Fail(obs.Serial)
	}
	switch {
	case !score:
		return Prediction{}
	case obs.Failed:
		return Prediction{Serial: obs.Serial, Day: obs.Day, Score: math.NaN(), Final: true}
	}
	// Alarms are suppressed until the forest has absorbed at least one
	// positive sample: an untrained ensemble outputs the 0.5 prior for
	// everything, which would alarm the whole fleet on day one.
	s := p.forest.PredictProba(p.scaler.Transform(x, p.scaled))
	return Prediction{
		Serial: obs.Serial,
		Day:    obs.Day,
		Score:  s,
		// PosSeen (O(1)) instead of Stats().PosSeen: Stats walks every
		// node of every tree, which dominated the per-observation cost.
		Risky: s >= p.threshold && p.forest.PosSeen() > 0,
	}
}

// Retire drops a disk that left the fleet without failing (e.g. planned
// decommission). Its queued samples are discarded unlabeled.
func (p *Predictor) Retire(serial string) { p.labeler.Retire(serial) }

// Score returns the current failure probability for a raw catalog vector
// without updating any state. Steady state it allocates nothing: it
// projects into the same scratch Ingest does.
func (p *Predictor) Score(values []float64) (float64, error) {
	if err := checkCatalog(values); err != nil {
		return 0, err
	}
	x := p.project(values, p.features)
	return p.forest.PredictProba(p.scaler.Transform(x, p.scaled)), nil
}

// SetThreshold changes the alarm threshold (e.g. after calibrating to a
// FAR budget).
func (p *Predictor) SetThreshold(t float64) { p.threshold = t }

// Threshold returns the current alarm threshold.
func (p *Predictor) Threshold() float64 { return p.threshold }

// Horizon returns the prediction window in days.
func (p *Predictor) Horizon() int { return p.horizon }

// Stats reports the underlying forest's state.
func (p *Predictor) Stats() core.Stats { return p.forest.Stats() }

// FeatureImportance is one of the paper's stated ORF advantages: the
// model is interpretable and "can be used to reveal the real cause of
// disk failures". It returns the features the forest's splits currently
// rely on, most important first.
type FeatureImportance struct {
	Feature    string  // canonical name, e.g. "smart_187_raw"
	Label      string  // human-readable, e.g. "Reported Uncorrectable Errors (Raw)"
	Importance float64 // normalized; all entries sum to <= 1
}

// FeatureImportance returns the model's current per-feature importance,
// sorted descending. Zero-importance features are omitted.
func (p *Predictor) FeatureImportance() []FeatureImportance {
	imp := p.forest.FeatureImportance()
	out := make([]FeatureImportance, 0, len(imp))
	for i, v := range imp {
		if v == 0 {
			continue
		}
		f := smart.Catalog()[p.features[i]]
		out = append(out, FeatureImportance{
			Feature:    f.Name(),
			Label:      f.Label(),
			Importance: v,
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Importance > out[b].Importance })
	return out
}

// PendingSamples returns the number of queued, not-yet-labeled samples.
func (p *Predictor) PendingSamples() int { return p.labeler.Pending() }

// TrackedDisks returns the number of disks with live queues.
func (p *Predictor) TrackedDisks() int { return p.labeler.ActiveDisks() }

// CatalogSize returns the length of the full candidate feature vector an
// Observation must carry.
func CatalogSize() int { return smart.NumFeatures() }

// FeatureNames returns the catalog's canonical column names
// ("smart_5_raw", ...), index-aligned with Observation.Values.
func FeatureNames() []string {
	names := make([]string, smart.NumFeatures())
	for i, f := range smart.Catalog() {
		names[i] = f.Name()
	}
	return names
}

// DefaultFeatures returns the catalog indexes of the paper's 19 selected
// features (Table 2).
func DefaultFeatures() []int { return smart.SelectedIndexes() }

// PackValues builds a catalog vector from attribute readings. Each key
// is a SMART attribute ID; norm and raw supply the two values. Missing
// attributes stay zero.
func PackValues(norm, raw map[int]float64) []float64 {
	v := make([]float64, smart.NumFeatures())
	for id, val := range norm {
		if i := smart.FeatureIndex(id, smart.Norm); i >= 0 {
			v[i] = val
		}
	}
	for id, val := range raw {
		if i := smart.FeatureIndex(id, smart.Raw); i >= 0 {
			v[i] = val
		}
	}
	return v
}
