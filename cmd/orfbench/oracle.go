package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"time"

	"orfdisk"
)

// serveConfig is the predictor configuration orfserve derives from its
// default flags (-trees 30 -lambdan 0.02 -threshold 0.5 -horizon 7);
// orfload's zero Config resolves to the same values. The harness never
// overrides those flags, so the oracle is built from this.
var serveConfig = orfdisk.Config{
	Threshold: 0.5,
	Horizon:   7,
	ORF:       orfdisk.ORFConfig{Trees: 30, LambdaNeg: 0.02},
}

// Oracle rebuilds, in this process and in memory, the state the
// binaries under test must have reached: the same rows in the same
// per-model order through the library's own entry points.
type Oracle struct {
	eng *orfdisk.Engine
	fz  map[string]*orfdisk.FrozenModel // per model, built on first Check
}

func newOracle() (*Oracle, error) {
	eng, err := orfdisk.NewEngine(orfdisk.EngineConfig{
		Predictor: serveConfig,
		// The oracle never reads through the engine's published
		// snapshot (Check freezes the final state itself), so it need
		// not pay for republishing one.
		FreezeEvery: -1,
		// The oracle is the only caller; never shed.
		EnqueueTimeout: time.Minute,
	})
	if err != nil {
		return nil, err
	}
	return &Oracle{eng: eng, fz: map[string]*orfdisk.FrozenModel{}}, nil
}

func (o *Oracle) Close() { o.eng.Close() } //nolint:errcheck // in-memory: nothing to flush

// LoadHistory feeds the history through IngestBackfill in file order,
// orfload's canonical merge order for a one-stripe archive, in
// orfload's default batches.
func (o *Oracle) LoadHistory(rows []orfdisk.FleetObservation) error {
	const batchRows = 1024
	for i := 0; i < len(rows); i += batchRows {
		if err := o.eng.IngestBackfill(rows[i:min(i+batchRows, len(rows))], nil); err != nil {
			return err
		}
	}
	return nil
}

// Known reports whether the engine routes serial: the disks a
// serial-addressed /v1/predict can resolve.
func (o *Oracle) Known(serial string) bool {
	_, ok := o.eng.ModelOf(serial)
	return ok
}

// Observe applies live rows the way /v1/observe/batch does. Rows of one
// model must arrive in the order the server saw them; models are
// independent.
func (o *Oracle) Observe(rows []orfdisk.FleetObservation, batch int) error {
	for i := 0; i < len(rows); i += batch {
		end := i + batch
		if end > len(rows) {
			end = len(rows)
		}
		// IngestBatch fills in Model on its argument; rows already carry
		// it, so passing the corpus slice is harmless.
		for k, res := range o.eng.IngestBatch(rows[i:end]) {
			if res.Err != nil {
				return fmt.Errorf("oracle: row %d (%s day %d): %w", i+k, rows[i+k].Serial, rows[i+k].Day, res.Err)
			}
		}
	}
	return nil
}

// Probe is a fixed set of vectors per model whose scores must match
// bit for bit.
type Probe struct {
	Model string
	Body  []byte
	X     [][]float64
}

// probeVectors per model, evenly spaced over the model's live rows so
// the set holds healthy, degrading and failing disks alike.
const probeVectors = 256

func buildProbes(c *Corpus) []Probe {
	var out []Probe
	for _, m := range c.Models {
		rows := c.ByModel[m]
		n := probeVectors
		if n > len(rows) {
			n = len(rows)
		}
		picked := make([]orfdisk.FleetObservation, n)
		X := make([][]float64, n)
		for i := range picked {
			picked[i] = rows[i*len(rows)/n]
			X[i] = picked[i].Values
		}
		out = append(out, Probe{Model: m, Body: predictBatchBody(m, picked), X: X})
	}
	return out
}

// frozen freezes the model's current state: what a server that
// restarted on the same state publishes.
func (o *Oracle) frozen(model string) (*orfdisk.FrozenModel, error) {
	if fm, ok := o.fz[model]; ok {
		return fm, nil
	}
	var buf bytes.Buffer
	if err := o.eng.DumpModel(model, &buf); err != nil {
		return nil, err
	}
	p, err := orfdisk.LoadPredictorState(&buf)
	if err != nil {
		return nil, err
	}
	fm := p.Freeze()
	o.fz[model] = fm
	return fm, nil
}

// Check compares one node against the oracle: /v1/stats exactly, then
// every probe score bit for bit. It returns the mismatches found.
func (o *Oracle) Check(ctx context.Context, node, addr string, probes []Probe) []string {
	var bad []string
	c := newConn(addr)
	defer c.Close()

	status, body, err := c.Get(ctx, "/v1/stats")
	if err != nil || status != http.StatusOK {
		return []string{fmt.Sprintf("%s: GET /v1/stats: status %d err %v", node, status, err)}
	}
	var got []orfdisk.ModelStats
	if err := json.Unmarshal(body, &got); err != nil {
		return []string{fmt.Sprintf("%s: /v1/stats: %v", node, err)}
	}
	want := o.eng.Stats()
	sort.Slice(got, func(i, j int) bool { return got[i].Model < got[j].Model })
	sort.Slice(want, func(i, j int) bool { return want[i].Model < want[j].Model })
	if len(got) != len(want) {
		bad = append(bad, fmt.Sprintf("%s: /v1/stats lists %d models, oracle %d", node, len(got), len(want)))
	} else {
		for i := range want {
			if got[i] != want[i] {
				bad = append(bad, fmt.Sprintf("%s: stats %+v, oracle %+v", node, got[i], want[i]))
			}
		}
	}

	for _, p := range probes {
		status, body, err := c.Post(ctx, "/v1/predict/batch", p.Body)
		if err != nil || status != http.StatusOK {
			bad = append(bad, fmt.Sprintf("%s: probe %s: status %d err %v", node, p.Model, status, err))
			continue
		}
		var resp orfdisk.PredictBatchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			bad = append(bad, fmt.Sprintf("%s: probe %s: %v", node, p.Model, err))
			continue
		}
		fm, err := o.frozen(p.Model)
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: probe %s: oracle: %v", node, p.Model, err))
			continue
		}
		ref, err := fm.ScoreBatchInto(nil, p.X)
		if err != nil || len(ref) != len(resp.Results) {
			bad = append(bad, fmt.Sprintf("%s: probe %s: %d results, oracle %d (%v)", node, p.Model, len(resp.Results), len(ref), err))
			continue
		}
		diff := 0
		for i := range ref {
			r := resp.Results[i]
			if r.Error != "" || math.Float64bits(r.Score) != math.Float64bits(ref[i]) || r.Risky != fm.Risky(ref[i]) {
				if diff == 0 {
					bad = append(bad, fmt.Sprintf("%s: probe %s item %d: got %v/%v %q, oracle %v/%v",
						node, p.Model, i, r.Score, r.Risky, r.Error, ref[i], fm.Risky(ref[i])))
				}
				diff++
			}
		}
		if diff > 1 {
			bad = append(bad, fmt.Sprintf("%s: probe %s: %d of %d scores differ", node, p.Model, diff, len(ref)))
		}
	}
	return bad
}
