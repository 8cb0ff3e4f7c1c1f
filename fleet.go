package orfdisk

import (
	"fmt"
	"sort"
)

// Fleet routes observations to per-model Predictors. The paper is
// explicit that SMART attributes are manufacturer- and model-specific
// ("separate training is in demand for different disk models", section
// 4.1), so a production deployment runs one online model per drive
// model. Fleet creates predictors lazily as new models appear in the
// stream — exactly the situation of a growing data center.
//
// Not safe for concurrent use, like Predictor. The serving stack runs on
// Engine; Fleet stays as the single-threaded reference the engine's
// tests compare against (and as the simplest library entry point), so
// its routing rules are the ones Engine must reproduce.
type Fleet struct {
	cfg        Config
	predictors map[string]*Predictor
	// modelOf remembers each disk's model so failure events route
	// correctly even if the final report is malformed.
	modelOf map[string]string
}

// NewFleet creates a fleet whose per-model predictors share cfg.
func NewFleet(cfg Config) *Fleet {
	return &Fleet{
		cfg:        cfg,
		predictors: make(map[string]*Predictor),
		modelOf:    make(map[string]string),
	}
}

// FleetObservation is an Observation tagged with the drive model.
type FleetObservation struct {
	Observation
	Model string
}

// Ingest routes one observation to its model's predictor, creating the
// predictor on first sight of the model.
func (f *Fleet) Ingest(obs FleetObservation) (Prediction, error) {
	if obs.Model == "" {
		if known, ok := f.modelOf[obs.Serial]; ok {
			obs.Model = known
		} else {
			return Prediction{}, fmt.Errorf("orfdisk: observation for %q has no model", obs.Serial)
		}
	}
	if prev, ok := f.modelOf[obs.Serial]; ok && prev != obs.Model {
		return Prediction{}, fmt.Errorf("orfdisk: disk %q changed model %q -> %q",
			obs.Serial, prev, obs.Model)
	}
	p, ok := f.predictors[obs.Model]
	if !ok {
		p = NewPredictor(f.cfg)
		f.predictors[obs.Model] = p
	}
	f.modelOf[obs.Serial] = obs.Model
	pred, err := p.Ingest(obs.Observation)
	if err != nil {
		return pred, err
	}
	if obs.Failed {
		delete(f.modelOf, obs.Serial)
	}
	return pred, nil
}

// Retire drops a disk (planned decommission) from its model's predictor.
func (f *Fleet) Retire(serial string) {
	if model, ok := f.modelOf[serial]; ok {
		if p := f.predictors[model]; p != nil {
			p.Retire(serial)
		}
		delete(f.modelOf, serial)
	}
}

// Predictor returns the predictor of a model, or nil if the model has
// not been seen.
func (f *Fleet) Predictor(model string) *Predictor { return f.predictors[model] }

// Models returns the drive models seen so far, sorted.
func (f *Fleet) Models() []string {
	out := make([]string, 0, len(f.predictors))
	for m := range f.predictors {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// TrackedDisks returns the number of disks with live labeling queues
// across all models.
func (f *Fleet) TrackedDisks() int {
	n := 0
	for _, p := range f.predictors {
		n += p.TrackedDisks()
	}
	return n
}

// SetThreshold updates the alarm threshold of every current and future
// predictor.
func (f *Fleet) SetThreshold(t float64) {
	f.cfg.Threshold = t
	for _, p := range f.predictors {
		p.SetThreshold(t)
	}
}
