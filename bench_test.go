// Benchmarks regenerating every table and figure of the paper's
// evaluation section, plus ablations of the design choices DESIGN.md
// calls out. Each benchmark runs the corresponding experiment protocol
// end to end on a reduced-scale fleet (the simulator is the substrate,
// so per-iteration time measures the full pipeline: generation already
// done once outside the timer, then labeling, training, scoring and
// operating-point search). cmd/orfexp runs the same protocols at larger
// scale and prints the paper-style rows; EXPERIMENTS.md records the
// resulting numbers against the paper's.
package orfdisk

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"orfdisk/internal/core"
	"orfdisk/internal/dataset"
	"orfdisk/internal/dtree"
	"orfdisk/internal/eval"
	"orfdisk/internal/forest"
	"orfdisk/internal/gbdt"
	"orfdisk/internal/labeling"
	"orfdisk/internal/smart"
	"orfdisk/internal/svm"
)

// benchProfile is a small STA-like fleet sized so a full protocol pass
// stays in benchmark territory.
func benchProfile(months int) dataset.Profile {
	p := dataset.STA(1)
	p.GoodDisks, p.FailedDisks, p.Months = 250, 60, months
	return p
}

func benchCorpus(b *testing.B, months int, seed uint64) *eval.Corpus {
	b.Helper()
	c, err := eval.BuildCorpus(eval.Options{Profile: benchProfile(months), Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkTable1DatasetGen measures full fleet generation + overview
// (Table 1).
func BenchmarkTable1DatasetGen(b *testing.B) {
	p := benchProfile(12)
	for i := 0; i < b.N; i++ {
		g, err := dataset.New(p, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		o := dataset.Table1(g)
		if o.TotalSamples == 0 {
			b.Fatal("empty fleet")
		}
	}
}

// BenchmarkTable2FeatureSelection measures the rank-sum screen plus
// importance-guided redundancy elimination over all 48 candidates.
func BenchmarkTable2FeatureSelection(b *testing.B) {
	p := benchProfile(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs, err := eval.SelectFeatures(p, uint64(i+1), eval.FeatureSelectOptions{Trees: 15})
		if err != nil {
			b.Fatal(err)
		}
		if len(fs.Selected) == 0 {
			b.Fatal("selected nothing")
		}
	}
}

// BenchmarkTable3LambdaOfflineRF measures one full Table 3 row sweep
// (λ in {1, 3, Max}, one repetition each).
func BenchmarkTable3LambdaOfflineRF(b *testing.B) {
	c := benchCorpus(b, 10, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := eval.Table3(c, []float64{1, 3, 0}, 1,
			forest.Config{Trees: 15, MinLeafSize: 5}, uint64(i))
		if len(rows) != 3 {
			b.Fatal("bad row count")
		}
	}
}

// BenchmarkTable4LambdaNORF measures one Table 4 sweep (λn in
// {0.02, 1.0}): two full chronological ORF streams plus evaluation.
func BenchmarkTable4LambdaNORF(b *testing.B) {
	c := benchCorpus(b, 10, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := eval.Table4(c, []float64{0.02, 1.0}, 1,
			core.Config{Trees: 15}, uint64(i))
		if len(rows) != 2 {
			b.Fatal("bad row count")
		}
	}
}

func convergenceLearners() []eval.OfflineLearner {
	return []eval.OfflineLearner{
		eval.RFLearner{Lambda: 3, Config: forest.Config{Trees: 15, MinLeafSize: 5}},
		eval.DTLearner{Lambda: 3, Config: dtree.Config{MaxSplits: 100, MinLeafSize: 10, Smoothing: 1}},
		eval.SVMLearner{Lambda: 3, Config: svm.Config{C: 10}, MaxRows: 800},
	}
}

// BenchmarkFig2ConvergenceSTA measures the Figure 2 protocol: monthly
// ORF evolution with monthly-retrained RF/DT/SVM baselines at FAR≈1%.
func BenchmarkFig2ConvergenceSTA(b *testing.B) {
	c := benchCorpus(b, 10, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := eval.MonthlyConvergence(c, eval.MonthlyOptions{
			StartMonth: 3, TargetFAR: 1.0,
			ORFConfig: core.Config{Trees: 15},
			Learners:  convergenceLearners(),
			Seed:      uint64(i),
		})
		if len(series) != 4 {
			b.Fatal("bad series count")
		}
	}
}

// BenchmarkFig3ConvergenceSTB is the same protocol on an STB-like fleet
// (weaker signatures, more unpredictable failures).
func BenchmarkFig3ConvergenceSTB(b *testing.B) {
	p := dataset.STB(1)
	p.GoodDisks, p.FailedDisks, p.Months = 200, 80, 10
	c, err := eval.BuildCorpus(eval.Options{Profile: p, Seed: 6})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := eval.MonthlyConvergence(c, eval.MonthlyOptions{
			StartMonth: 3, TargetFAR: 1.0,
			ORFConfig: core.Config{Trees: 15},
			Learners:  convergenceLearners(),
			Seed:      uint64(i),
		})
		if len(series) != 4 {
			b.Fatal("bad series count")
		}
	}
}

func longTermOpts(deploy int, seed uint64) eval.LongTermOptions {
	return eval.LongTermOptions{
		DeployMonth: deploy,
		TargetFAR:   1.0,
		RF:          eval.RFLearner{Lambda: 3, Config: forest.Config{Trees: 15, MinLeafSize: 5}},
		ORFConfig:   core.Config{Trees: 15},
		Seed:        seed,
	}
}

// BenchmarkFig4LongTermFARSTA measures the Figure 4 protocol (the FAR
// series is computed together with Figure 6's FDR series).
func BenchmarkFig4LongTermFARSTA(b *testing.B) {
	c := benchCorpus(b, 14, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := eval.LongTerm(c, longTermOpts(6, uint64(i)))
		if len(series) != 4 || len(series[0].FAR) == 0 {
			b.Fatal("bad series")
		}
	}
}

// BenchmarkFig5LongTermFARSTB is the STB variant (Figures 5 and 7).
func BenchmarkFig5LongTermFARSTB(b *testing.B) {
	p := dataset.STB(1)
	p.GoodDisks, p.FailedDisks, p.Months = 200, 100, 12
	c, err := eval.BuildCorpus(eval.Options{Profile: p, Seed: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := eval.LongTerm(c, longTermOpts(4, uint64(i)))
		if len(series) != 4 {
			b.Fatal("bad series")
		}
	}
}

// BenchmarkFig6LongTermFDRSTA regenerates the FDR view of the STA
// long-term run (same computation as Figure 4; kept as a separate
// benchmark so every figure has a named target).
func BenchmarkFig6LongTermFDRSTA(b *testing.B) {
	c := benchCorpus(b, 14, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := eval.LongTerm(c, longTermOpts(6, uint64(i)))
		for _, s := range series {
			if len(s.FDR) != len(s.FAR) {
				b.Fatal("misaligned series")
			}
		}
	}
}

// BenchmarkFig7LongTermFDRSTB regenerates the FDR view of the STB
// long-term run (same computation as Figure 5).
func BenchmarkFig7LongTermFDRSTB(b *testing.B) {
	p := dataset.STB(1)
	p.GoodDisks, p.FailedDisks, p.Months = 200, 100, 12
	c, err := eval.BuildCorpus(eval.Options{Profile: p, Seed: 10})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := eval.LongTerm(c, longTermOpts(4, uint64(i)))
		if len(series[3].FDR) == 0 {
			b.Fatal("empty ORF series")
		}
	}
}

// --- throughput benchmarks: the online path a production deployment
// pays per SMART snapshot ---

// BenchmarkPredictorIngest measures Algorithm 2 end to end per
// observation (queue rotation, scaling, forest update, prediction).
func BenchmarkPredictorIngest(b *testing.B) {
	g, err := dataset.New(benchProfile(6), 11)
	if err != nil {
		b.Fatal(err)
	}
	var obs []Observation
	for _, m := range g.Disks()[:100] {
		for _, s := range g.DiskSamples(m) {
			obs = append(obs, Observation{
				Serial: s.Serial, Day: s.Day, Failed: s.Failure, Values: s.Values,
			})
		}
	}
	p := NewPredictor(Config{ORF: ORFConfig{Trees: 30, Seed: 1}})
	// Warm: one pass over the stream so queues, scratch buffers and the
	// projection free-list reach steady state before measuring.
	for _, o := range obs {
		if _, err := p.Ingest(o); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Ingest(obs[i%len(obs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictorIngestBatch measures Predictor.IngestBatch at batch
// size 64 (validated upfront, predictions appended into a reused
// slice); per-op cost is per observation, directly comparable to
// BenchmarkPredictorIngest.
func BenchmarkPredictorIngestBatch(b *testing.B) {
	g, err := dataset.New(benchProfile(6), 11)
	if err != nil {
		b.Fatal(err)
	}
	var obs []Observation
	for _, m := range g.Disks()[:100] {
		for _, s := range g.DiskSamples(m) {
			obs = append(obs, Observation{
				Serial: s.Serial, Day: s.Day, Failed: s.Failure, Values: s.Values,
			})
		}
	}
	const batch = 64
	p := NewPredictor(Config{ORF: ORFConfig{Trees: 30, Seed: 1}})
	out := make([]Prediction, 0, batch)
	for _, o := range obs {
		if _, err := p.Ingest(o); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		lo := i % (len(obs) - batch)
		out, err = p.IngestBatch(obs[lo:lo+batch], out[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLabelerSteadyState isolates the labeling layer: a stable
// fleet cycling through full queues. The ring-buffer conversion makes
// this allocation-free (the slice-backed queue allocated on every
// enqueue once its backing array had resliced forward).
func BenchmarkLabelerSteadyState(b *testing.B) {
	const disks = 64
	l := labeling.NewLabeler(7, func(labeling.Labeled) {})
	serials := make([]string, disks)
	x := smartVector()
	for i := range serials {
		serials[i] = fmt.Sprintf("disk-%04d", i)
	}
	for day := 0; day < 8; day++ { // fill every queue to capacity
		for _, s := range serials {
			l.Observe(s, x, day)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Observe(serials[i%disks], x, 8+i/disks)
	}
}

// BenchmarkUpdateBatch measures the forest update per sample, fed one
// sample at a time and in 256-sample batches (UpdateBatch is a loop over
// Update, so the two should agree). lambda_n = 0.02 is the paper's
// default, where a negative sample is an out-of-bag leaf walk; lambda_n
// = 1 trains on every sample, roughly ten times the work, and is the
// only regime earlier baselines recorded. Replacement is off so that
// the cost does not depend on when a tree was last regrown.
func BenchmarkUpdateBatch(b *testing.B) {
	const maxChunk = 256
	X := make([][]float64, maxChunk)
	Y := make([]int, maxChunk)
	for i := range X {
		v := smartVector()
		for j := range v {
			v[j] = float64((i*19+j)%97) / 97
		}
		X[i], Y[i] = v, i%20/19
	}
	for _, lambdaNeg := range []float64{0.02, 1} {
		for _, chunk := range []int{1, maxChunk} {
			b.Run(fmt.Sprintf("lambdan=%v/chunk=%d", lambdaNeg, chunk), func(b *testing.B) {
				f := core.New(19, core.Config{Trees: 32, Seed: 1, LambdaNeg: lambdaNeg, DisableReplacement: true})
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i += chunk {
					o := i % maxChunk // every case cycles through the same samples
					f.UpdateBatch(X[o:o+chunk], Y[o:o+chunk])
				}
			})
		}
	}
}

// BenchmarkEngineIngestBatch contrasts per-observation Engine.Ingest
// with IngestBatch at batch size 64 over 4 drive models, on a durable
// engine (WAL in the loop, so the batch variant exercises the
// shard-grouped wal.AppendBatch path). Per-op cost is per observation
// in both variants.
func BenchmarkEngineIngestBatch(b *testing.B) {
	const (
		nModels = 4
		batch   = 64
	)
	g, err := dataset.New(benchProfile(6), 17)
	if err != nil {
		b.Fatal(err)
	}
	var obs []FleetObservation
	for _, m := range g.Disks()[:100] {
		for _, s := range g.DiskSamples(m) {
			obs = append(obs, FleetObservation{
				Model: modelForSerial(s.Serial, nModels),
				Observation: Observation{
					Serial: s.Serial, Day: s.Day, Failed: s.Failure, Values: s.Values,
				},
			})
		}
	}
	// Chronological order, the shape a collector's batch actually has: a
	// 64-observation window then spans many disks (and all 4 models), so
	// IngestBatch's per-shard grouping has real groups to vectorize.
	sort.SliceStable(obs, func(i, j int) bool { return obs[i].Day < obs[j].Day })
	// A light forest keeps the model update from drowning out what this
	// benchmark measures: the serving layer's fixed per-observation costs
	// (mailbox round trips, WAL framing and write syscalls, routing),
	// which are exactly what batching amortizes.
	cfg := Config{ORF: ORFConfig{Trees: 5, Seed: 1}}
	newEngine := func(b *testing.B) *Engine {
		// Push group commit past the measurement window: fsync cadence is
		// a durability constant identical per record in both variants, so
		// leaving it in only flattens the comparison of the costs batching
		// actually changes (write syscalls, mailbox round trips, routing).
		eng, err := NewEngine(EngineConfig{
			Predictor: cfg, DataDir: b.TempDir(),
			SyncBytes: math.MaxInt, SyncInterval: time.Hour,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { eng.Close() })
		return eng
	}
	b.Run("item-by-item", func(b *testing.B) {
		eng := newEngine(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Ingest(obs[i%len(obs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch64", func(b *testing.B) {
		eng := newEngine(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += batch {
			lo := i % (len(obs) - batch)
			for _, r := range eng.IngestBatch(obs[lo : lo+batch]) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	})
}

// BenchmarkRecordCodec measures the observe-record codec per row (an op
// is a row, whatever the record holds) over a simulated fleet's stream in
// day order, each row projected onto the paper's 19 features as a writer
// frames it: run256 is the run record a shard slice of a batch becomes,
// run1 the run of one a single Ingest writes. Encode frames into reused
// scratch, as the engine does; decode is decodeRecord of the same
// payloads. B/row is the mean payload per row — what a row costs on the
// replication wire and, with the log's 16-byte frame header per record
// (wal_B/row), in the WAL.
func BenchmarkRecordCodec(b *testing.B) {
	g, err := dataset.New(benchProfile(2), 17)
	if err != nil {
		b.Fatal(err)
	}
	feats := DefaultFeatures()
	var obs []FleetObservation
	err = g.Stream(func(s smart.Sample) error {
		obs = append(obs, FleetObservation{Model: "ST4000DM000", Observation: Observation{
			Serial: s.Serial, Day: s.Day, Failed: s.Failure, Values: smart.Project(s.Values, feats),
		}})
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	obs = obs[:len(obs)/256*256]
	for _, tc := range []struct {
		name  string
		rows  int // per record
		frame func(enc *recordBatch, rows []FleetObservation)
	}{
		{"run256", 256, func(enc *recordBatch, rows []FleetObservation) {
			enc.beginRun(recObserveRun, &rows[0], feats, len(rows))
			for i := range rows {
				enc.addRow(&rows[i], rows[i].Values)
			}
		}},
		{"run1", 1, func(enc *recordBatch, rows []FleetObservation) {
			enc.beginRun(recObserveRun, &rows[0], feats, 1)
			enc.addRow(&rows[0], rows[0].Values)
		}},
	} {
		var (
			payloads [][]byte
			total    int
			enc      recordBatch
		)
		for lo := 0; lo < len(obs); lo += tc.rows {
			enc.reset()
			tc.frame(&enc, obs[lo:lo+tc.rows])
			payloads = append(payloads, append([]byte(nil), enc.buf...))
			total += len(enc.buf)
		}
		report := func(b *testing.B) {
			b.ReportMetric(float64(total)/float64(len(obs)), "B/row")
			b.ReportMetric(float64(total+16*len(payloads))/float64(len(obs)), "wal_B/row")
		}
		b.Run(tc.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n += tc.rows {
				lo := n % len(obs)
				enc.reset()
				tc.frame(&enc, obs[lo:lo+tc.rows])
			}
			report(b)
		})
		b.Run(tc.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n += tc.rows {
				if _, err := decodeRecord(payloads[n/tc.rows%len(payloads)]); err != nil {
					b.Fatal(err)
				}
			}
			report(b)
			// One values slab a run, not one slice a row: the rows, the slab,
			// the model and the index list, then a serial per row.
			if allocs := testing.AllocsPerRun(10, func() { decodeRecord(payloads[0]) }); allocs > float64(tc.rows+4) {
				b.Fatalf("decoding a %d-row record allocates %v times, want at most %d", tc.rows, allocs, tc.rows+4)
			}
		})
	}
}

// BenchmarkStateCodec measures SaveState and LoadPredictorState on what
// dominates a snapshot: the labeling queues of a 2,000-disk fleet, full
// (7 days of the paper's 19 features each), beside a young forest.
// state_bytes is the size of the saved state.
func BenchmarkStateCodec(b *testing.B) {
	prof := dataset.STA(1)
	prof.GoodDisks, prof.FailedDisks, prof.Months = 2050, 0, 1 // a few enter service after the month ends
	g, err := dataset.New(prof, 23)
	if err != nil {
		b.Fatal(err)
	}
	p := NewPredictor(Config{ORF: ORFConfig{Seed: 1}})
	err = g.Stream(func(s smart.Sample) error {
		return p.Absorb(Observation{Serial: s.Serial, Day: s.Day, Failed: s.Failure, Values: s.Values})
	})
	if err != nil {
		b.Fatal(err)
	}
	if p.TrackedDisks() < 2000 || p.PendingSamples() < 7*2000 {
		b.Fatalf("%d disks, %d queued samples: want 2000 full queues", p.TrackedDisks(), p.PendingSamples())
	}
	var state bytes.Buffer
	if err := p.SaveState(&state); err != nil {
		b.Fatal(err)
	}
	b.Run("save", func(b *testing.B) {
		var buf bytes.Buffer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := p.SaveState(&buf); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(state.Len()), "state_bytes")
	})
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := LoadPredictorState(bytes.NewReader(state.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(state.Len()), "state_bytes")
	})
}

// --- ablations ---

// BenchmarkAblationTreeReplacement compares streams with and without
// the OOBE-driven tree discard (Alg. 1 lines 20-28).
func BenchmarkAblationTreeReplacement(b *testing.B) {
	c := benchCorpus(b, 10, 12)
	days := c.Gen.Profile().Days()
	for _, disabled := range []bool{false, true} {
		name := "replacement=on"
		if disabled {
			name = "replacement=off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runner := eval.NewORFRunner(len(c.Features), smart.PredictionHorizonDays, core.Config{
					Trees: 15, Seed: uint64(i), DisableReplacement: disabled,
				})
				runner.ConsumeThroughDay(c, 0, days)
			}
		})
	}
}

// BenchmarkAblationLambdaN compares stream cost across λn: the
// negative-thinning rate is also the knob that controls online training
// cost, one of online bagging's selling points.
func BenchmarkAblationLambdaN(b *testing.B) {
	c := benchCorpus(b, 8, 13)
	days := c.Gen.Profile().Days()
	for _, ln := range []float64{0.02, 0.2, 1.0} {
		b.Run("lambdaN="+formatFloat(ln), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runner := eval.NewORFRunner(len(c.Features), smart.PredictionHorizonDays, core.Config{
					Trees: 15, LambdaNeg: ln, Seed: uint64(i),
				})
				runner.ConsumeThroughDay(c, 0, days)
			}
		})
	}
}

// BenchmarkAblationForestVsGBDT contrasts training cost of the
// embarrassingly parallel forest against sequential gradient boosting at
// matched ensemble size — the paper's section 3 time-efficiency claim.
func BenchmarkAblationForestVsGBDT(b *testing.B) {
	c := benchCorpus(b, 8, 14)
	X, y := c.OfflineTrainingSet(c.Gen.Profile().Days())
	idx := forest.Downsample(y, 3, 1)
	bx, by := forest.Gather(X, y, idx)
	b.Run("forest-30-trees", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			forest.Train(bx, by, forest.Config{Trees: 30, Seed: uint64(i)})
		}
	})
	b.Run("gbdt-30-rounds", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gbdt.Train(bx, by, gbdt.Config{Rounds: 30, MaxDepth: 6})
		}
	})
}

func smartVector() []float64 {
	v := make([]float64, 19)
	for i := range v {
		v[i] = float64(i) / 19
	}
	return v
}

func formatFloat(f float64) string {
	switch f {
	case 0.02:
		return "0.02"
	case 0.2:
		return "0.2"
	default:
		return "1.0"
	}
}
