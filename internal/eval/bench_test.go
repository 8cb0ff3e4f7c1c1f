// Benchmarks regenerating every table and figure of the paper's
// evaluation section, plus ablations of the design choices DESIGN.md
// calls out. Each benchmark runs the corresponding experiment protocol
// end to end on a reduced-scale fleet (the simulator is the substrate,
// so per-iteration time measures the full pipeline: generation already
// done once outside the timer, then labeling, training, scoring and
// operating-point search). cmd/orfexp runs the same protocols at larger
// scale and prints the paper-style rows; EXPERIMENTS.md records the
// resulting numbers against the paper's.
package eval

import (
	"testing"

	"orfdisk/internal/core"
	"orfdisk/internal/dataset"
	"orfdisk/internal/dtree"
	"orfdisk/internal/forest"
	"orfdisk/internal/gbdt"
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

func benchCorpus(b *testing.B, months int, seed uint64) *Corpus {
	b.Helper()
	c, err := BuildCorpus(Options{Profile: benchProfile(months), Seed: seed})
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
		fs, err := SelectFeatures(p, uint64(i+1), FeatureSelectOptions{Trees: 15})
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
		rows := Table3(c, []float64{1, 3, 0}, 1,
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
		rows := Table4(c, []float64{0.02, 1.0}, 1,
			core.Config{Trees: 15}, uint64(i))
		if len(rows) != 2 {
			b.Fatal("bad row count")
		}
	}
}

func convergenceLearners() []OfflineLearner {
	return []OfflineLearner{
		RFLearner{Lambda: 3, Config: forest.Config{Trees: 15, MinLeafSize: 5}},
		DTLearner{Lambda: 3, Config: dtree.Config{MaxSplits: 100, MinLeafSize: 10, Smoothing: 1}},
		SVMLearner{Lambda: 3, Config: svm.Config{C: 10}, MaxRows: 800},
	}
}

// BenchmarkFig2ConvergenceSTA measures the Figure 2 protocol: monthly
// ORF evolution with monthly-retrained RF/DT/SVM baselines at FAR≈1%.
func BenchmarkFig2ConvergenceSTA(b *testing.B) {
	c := benchCorpus(b, 10, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := MonthlyConvergence(c, MonthlyOptions{
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
	c, err := BuildCorpus(Options{Profile: p, Seed: 6})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := MonthlyConvergence(c, MonthlyOptions{
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

func longTermOpts(deploy int, seed uint64) LongTermOptions {
	return LongTermOptions{
		DeployMonth: deploy,
		TargetFAR:   1.0,
		RF:          RFLearner{Lambda: 3, Config: forest.Config{Trees: 15, MinLeafSize: 5}},
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
		series := LongTerm(c, longTermOpts(6, uint64(i)))
		if len(series) != 4 || len(series[0].FAR) == 0 {
			b.Fatal("bad series")
		}
	}
}

// BenchmarkFig5LongTermFARSTB is the STB variant (Figures 5 and 7).
func BenchmarkFig5LongTermFARSTB(b *testing.B) {
	p := dataset.STB(1)
	p.GoodDisks, p.FailedDisks, p.Months = 200, 100, 12
	c, err := BuildCorpus(Options{Profile: p, Seed: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := LongTerm(c, longTermOpts(4, uint64(i)))
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
		series := LongTerm(c, longTermOpts(6, uint64(i)))
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
	c, err := BuildCorpus(Options{Profile: p, Seed: 10})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := LongTerm(c, longTermOpts(4, uint64(i)))
		if len(series[3].FDR) == 0 {
			b.Fatal("empty ORF series")
		}
	}
}

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
				orf := newORFStream(c, smart.PredictionHorizonDays, core.Config{
					Trees: 15, Seed: uint64(i), DisableReplacement: disabled,
				})
				orf.absorbUntil(days)
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
				orf := newORFStream(c, smart.PredictionHorizonDays, core.Config{
					Trees: 15, LambdaNeg: ln, Seed: uint64(i),
				})
				orf.absorbUntil(days)
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
