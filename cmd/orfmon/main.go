// Command orfmon is the online monitoring daemon of Algorithm 2: it feeds
// a chronological stream of Backblaze-format SMART snapshots (stdin or a
// file) to an Engine, which keeps one online random forest per drive
// model (§4.1) and a labeling queue per disk, and prints an alarm line
// for every disk whose live prediction crosses the risk threshold. With
// -data DIR the engine logs to DIR, and a later run on DIR resumes the
// models bit for bit.
//
// Usage:
//
//	orfgen -profile STA -scale 0.005 | orfmon
//	orfmon -in fleet.csv -threshold 0.6 -v
//	orfmon -in jan.csv -data state/ && orfmon -in feb.csv -data state/
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"orfdisk"
	"orfdisk/internal/smart"
)

// batchCap bounds the rows one IngestBatch carries; a batch also ends
// at each day change, so -v reports each day before any of its rows.
const batchCap = 1024

func main() {
	var (
		in        = flag.String("in", "", "input CSV (default stdin)")
		threshold = flag.Float64("threshold", 0.5, "alarm probability threshold")
		trees     = flag.Int("trees", 30, "ensemble size T")
		lambdaN   = flag.Float64("lambdan", 0.02, "negative-class Poisson rate λn")
		verbose   = flag.Bool("v", false, "print daily forest statistics")
		dataDir   = flag.String("data", "", "keep the models' log in this directory and resume from it")
	)
	flag.Parse()
	m := &monitor{verbose: *verbose, known: map[string]bool{}, alarmed: map[string]bool{}, lastDay: -1}
	err := m.run(*in, orfdisk.EngineConfig{
		Predictor: orfdisk.Config{
			Threshold: *threshold,
			ORF:       orfdisk.ORFConfig{Trees: *trees, LambdaNeg: *lambdaN},
		},
		DataDir:        *dataDir,
		FreezeEvery:    -1, // nothing scores from frozen snapshots here
		FreezeInterval: -1,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "orfmon:", err)
		os.Exit(1)
	}
}

// monitor turns the engine's live predictions into orfmon's report. A
// disk alarms once until it fails or the process ends; a failure counts
// as caught when its disk alarmed before it. known names the models the
// engine has a shard for; a new one starts as a fresh forest of
// freshNodes root nodes.
type monitor struct {
	eng        *orfdisk.Engine
	verbose    bool
	known      map[string]bool
	freshNodes int
	alarmed    map[string]bool
	lastDay    int

	samples, alarms, failures, caught int
}

func (m *monitor) run(in string, cfg orfdisk.EngineConfig) (err error) {
	var r io.Reader = os.Stdin
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	fr, err := smart.NewFastReaderSize(r, 1<<20)
	if err != nil {
		return err
	}
	if m.eng, err = orfdisk.NewEngine(cfg); err != nil {
		return err
	}
	defer func() {
		if cerr := m.eng.Close(); err == nil {
			err = cerr
		}
	}()
	for _, model := range m.eng.Models() {
		m.known[model] = true
	}
	m.freshNodes = orfdisk.NewPredictor(cfg.Predictor).Stats().Nodes

	batch := make([]orfdisk.FleetObservation, 0, batchCap)
	for {
		var s smart.Sample // its own Values: Read reuses the slice it is given
		rerr := fr.Read(&s)
		if len(batch) > 0 && (rerr != nil || len(batch) == batchCap || s.Day != batch[0].Day) {
			if err := m.ingest(batch); err != nil {
				return err
			}
			batch = batch[:0]
		}
		if rerr == io.EOF {
			m.summary()
			return nil
		} else if rerr != nil {
			return rerr
		}
		batch = append(batch, orfdisk.FleetObservation{Model: s.Model, Observation: orfdisk.Observation{
			Serial: s.Serial, Day: s.Day, Failed: s.Failure, Values: s.Values,
		}})
	}
}

// ingest applies a non-empty batch of one day's rows and reports them in
// input order. The engine applies every row of a batch it does not
// refuse, so the rows after a refused one are reported too, and the
// first refusal is returned once the batch is.
func (m *monitor) ingest(batch []orfdisk.FleetObservation) (refused error) {
	fresh := 0 // root nodes of the fresh forests the batch brings in
	for _, obs := range batch {
		if obs.Model == "" || m.known[obs.Model] {
			continue // a row without a model is routed by its serial
		}
		m.known[obs.Model] = true
		fresh += m.freshNodes
	}
	if m.verbose && batch[0].Day != m.lastDay {
		st := m.totals()
		m.lastDay = batch[0].Day
		fmt.Printf("# day %d: %d disks tracked, %d updates (%d pos), %d nodes, %d trees replaced\n",
			m.lastDay, st.Tracked, st.Updates, st.PosSeen, st.Nodes+fresh, st.Replaced)
	}
	for i, res := range m.eng.IngestBatch(batch) {
		if res.Err != nil {
			refused = cmp.Or(refused, res.Err)
			continue
		}
		m.samples++
		obs, p := &batch[i], res.Prediction
		switch {
		case p.Final:
			m.failures++
			if m.alarmed[obs.Serial] {
				m.caught++
			}
			fmt.Printf("FAILED  day=%-5d disk=%s (alarmed before failure: %v)\n",
				obs.Day, obs.Serial, m.alarmed[obs.Serial])
			delete(m.alarmed, obs.Serial)
		case p.Risky && !m.alarmed[obs.Serial]:
			m.alarms++
			m.alarmed[obs.Serial] = true
			fmt.Printf("ALARM   day=%-5d disk=%s score=%.3f  -> recommend immediate data migration\n",
				obs.Day, obs.Serial, p.Score)
		}
	}
	return refused
}

// totals sums the engine's per-model statistics.
func (m *monitor) totals() (t orfdisk.ModelStats) {
	for _, ms := range m.eng.Stats() {
		t.Updates += ms.Updates
		t.PosSeen += ms.PosSeen
		t.NegSeen += ms.NegSeen
		t.Replaced += ms.Replaced
		t.Nodes += ms.Nodes
		t.Leaves += ms.Leaves
		t.Tracked += ms.Tracked
	}
	return t
}

// summary prints the run's counts, the forests' sizes summed over the
// models, and each model's strongest failure signals.
func (m *monitor) summary() {
	st := m.totals()
	fmt.Printf("\n--- orfmon summary ---\n")
	fmt.Printf("samples processed   %d\n", m.samples)
	fmt.Printf("alarms raised       %d\n", m.alarms)
	fmt.Printf("failures observed   %d (alarmed beforehand: %d)\n", m.failures, m.caught)
	fmt.Printf("model updates       %d (%d positive / %d negative)\n", st.Updates, st.PosSeen, st.NegSeen)
	fmt.Printf("forest              %d nodes, %d leaves, %d trees replaced\n", st.Nodes, st.Leaves, st.Replaced)
	models, label := m.eng.Models(), ""
	for _, model := range models {
		top, _ := m.eng.Importance(model)
		var signals []string
		for _, f := range top[:min(3, len(top))] {
			signals = append(signals, fmt.Sprintf("%s (%.0f%%)", f.Label, 100*f.Importance))
		}
		if len(models) > 1 {
			label = "[" + model + "] "
		}
		if len(signals) > 0 {
			fmt.Printf("top failure signals %s%s\n", label, strings.Join(signals, ", "))
		}
	}
}
