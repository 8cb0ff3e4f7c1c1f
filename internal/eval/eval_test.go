package eval

import (
	"math"
	"testing"

	"orfdisk/internal/core"
	"orfdisk/internal/dataset"
	"orfdisk/internal/forest"
	"orfdisk/internal/smart"
)

// testProfile is a small fleet with enough failed disks for disk-level
// rates to have usable resolution in tests.
func testProfile() dataset.Profile {
	p := dataset.STA(1)
	p.GoodDisks = 400
	p.FailedDisks = 60
	p.Months = 12
	return p
}

func buildTestCorpus(t testing.TB, seed uint64) *Corpus {
	t.Helper()
	c, err := BuildCorpus(Options{Profile: testProfile(), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuildCorpusInvariants(t *testing.T) {
	c := buildTestCorpus(t, 1)
	if len(c.Features) != 19 {
		t.Fatalf("%d features, want 19", len(c.Features))
	}
	// Arrivals chronological.
	for i := 1; i < len(c.TrainArrivals); i++ {
		if c.TrainArrivals[i].Day < c.TrainArrivals[i-1].Day {
			t.Fatal("arrivals not chronological")
		}
	}
	// Scaled into [0,1].
	for _, a := range c.TrainArrivals[:1000] {
		for _, v := range a.X {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("unscaled arrival value %v", v)
			}
		}
	}
	// Exactly one failure event per failed training disk.
	fails := 0
	for i := range c.TrainArrivals {
		if c.TrainArrivals[i].Fail {
			fails++
		}
	}
	if fails != dataset.CountFailed(c.TrainDisks) {
		t.Fatalf("%d failure events, want %d", fails, dataset.CountFailed(c.TrainDisks))
	}
	// Test disks present with both classes.
	var tf, tg int
	for _, d := range c.TestDisks {
		if d.Meta.Failed {
			tf++
		} else {
			tg++
		}
	}
	if tf == 0 || tg == 0 {
		t.Fatalf("test split missing a class: %d failed, %d good", tf, tg)
	}
	if c.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestOfflineTrainingSetLabeling(t *testing.T) {
	c := buildTestCorpus(t, 2)
	days := c.Gen.Profile().Days()
	X, y := c.OfflineTrainingSet(days)
	if len(X) != len(y) || len(X) == 0 {
		t.Fatalf("bad training set: %d rows, %d labels", len(X), len(y))
	}
	var pos int
	for _, v := range y {
		if v == 1 {
			pos++
		}
	}
	// Positives: at most 7 per failed training disk.
	maxPos := 7 * dataset.CountFailed(c.TrainDisks)
	if pos == 0 || pos > maxPos {
		t.Fatalf("%d positives, want in (0, %d]", pos, maxPos)
	}
	// Good training disks must not contribute their final week: the
	// sample count must be below the raw arrival count.
	if len(X) >= len(c.TrainArrivals) {
		t.Fatalf("training set size %d not below arrivals %d (latest week must be unlabeled)",
			len(X), len(c.TrainArrivals))
	}
	// The range variant covers (almost) everything: only the unlabeled
	// latest-week-at-cutoff samples may differ between a split range and
	// the full range.
	X1, _ := c.OfflineTrainingSetRange(0, 100)
	X2, _ := c.OfflineTrainingSetRange(100, days)
	if got := len(X1) + len(X2); got > len(X) {
		t.Fatalf("range split %d + %d exceeds full set %d", len(X1), len(X2), len(X))
	} else if got < len(X)-8*len(c.TrainDisks) {
		t.Fatalf("range split %d + %d loses more than a week per disk vs %d",
			len(X1), len(X2), len(X))
	}
	// No future leakage: training at an early cutoff must not contain
	// positives from disks that fail after the cutoff.
	_, yearly := c.OfflineTrainingSetRange(0, 60)
	for i, v := range yearly {
		_ = i
		if v == 1 {
			// Positives before day 60 can only come from disks that
			// failed before day 60.
			found := false
			for _, m := range c.TrainDisks {
				if m.Failed && m.FailDay < 60 {
					found = true
					break
				}
			}
			if !found {
				t.Fatal("positive label leaked from a post-cutoff failure")
			}
			break
		}
	}
}

func TestScoreTestDisksWithOracle(t *testing.T) {
	c := buildTestCorpus(t, 4)
	// Oracle scorer: the scaled raw 187 counter (a strong signature) is
	// at some fixed feature position; use the max over all features as a
	// crude failure score — failing disks saturate several counters.
	oracle := func(x []float64) float64 {
		m := 0.0
		for _, v := range x {
			if v > m {
				m = v
			}
		}
		return m
	}
	ds := ScoreTestDisks(c.TestDisks, oracle)
	if len(ds.Failed) == 0 || len(ds.Good) == 0 {
		t.Fatalf("scores missing a class: %d/%d", len(ds.Failed), len(ds.Good))
	}
	if len(ds.Failed)+len(ds.Good) != len(c.TestDisks) {
		t.Fatalf("scored %d disks, want %d", len(ds.Failed)+len(ds.Good), len(c.TestDisks))
	}
}

func TestThresholdForFARRespectsBudget(t *testing.T) {
	ds := DiskScores{
		Good:   []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
		Failed: []float64{0.85, 0.95, 0.2},
	}
	for _, target := range []float64{0, 10, 25, 50, 100} {
		th := ds.ThresholdForFAR(target)
		_, far := ds.Rates(th)
		if far > target+1e-9 {
			t.Errorf("target %v%%: threshold %v gives FAR %v", target, th, far)
		}
	}
	// Exact check: 10% of 10 disks allows exactly one good disk.
	th := ds.ThresholdForFAR(10)
	fdr, far := ds.Rates(th)
	if far != 10 {
		t.Fatalf("FAR = %v, want 10", far)
	}
	// Threshold just above 0.9 detects only the 0.95 failed disk.
	if fdr != 100*1.0/3.0 {
		t.Fatalf("FDR = %v", fdr)
	}
}

func TestThresholdForFAREmptyGood(t *testing.T) {
	ds := DiskScores{Failed: []float64{1}}
	if th := ds.ThresholdForFAR(1); th != 0.5 {
		t.Fatalf("empty-good threshold %v, want 0.5", th)
	}
}

func TestRatesMonotoneInThreshold(t *testing.T) {
	ds := DiskScores{
		Good:   []float64{0.1, 0.4, 0.6, 0.9},
		Failed: []float64{0.3, 0.7, 0.95},
	}
	prevFDR, prevFAR := 101.0, 101.0
	for th := 0.0; th <= 1.01; th += 0.05 {
		fdr, far := ds.Rates(th)
		if fdr > prevFDR+1e-9 || far > prevFAR+1e-9 {
			t.Fatalf("rates not monotone at threshold %v", th)
		}
		prevFDR, prevFAR = fdr, far
	}
}

func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("table experiment")
	}
	c := buildTestCorpus(t, 5)
	rows := Table3(c, []float64{1, 5, 0}, 2, forest.Config{Trees: 15}, 7)
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	r1, r5, rMax := rows[0], rows[1], rows[2]
	// Heavier downsampling (small λ) must not lower FDR, and λ=Max must
	// collapse FDR (the paper's "seriously biased towards good disks").
	if !(r1.FDR.Mean >= r5.FDR.Mean-5) {
		t.Fatalf("FDR(λ=1)=%v unexpectedly below FDR(λ=5)=%v", r1.FDR.Mean, r5.FDR.Mean)
	}
	if !(r1.FAR.Mean >= r5.FAR.Mean-0.5) {
		t.Fatalf("FAR(λ=1)=%v below FAR(λ=5)=%v", r1.FAR.Mean, r5.FAR.Mean)
	}
	if rMax.FDR.Mean >= r1.FDR.Mean {
		t.Fatalf("FDR(λ=Max)=%v not below FDR(λ=1)=%v", rMax.FDR.Mean, r1.FDR.Mean)
	}
	if rMax.Param != "Max" {
		t.Fatalf("label %q", rMax.Param)
	}
}

func TestTable4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("table experiment")
	}
	c := buildTestCorpus(t, 6)
	cfg := core.Config{Trees: 15, MinParentSize: 100, AgeThreshold: 1 << 30}
	rows := Table4(c, []float64{0.02, 1.0}, 1, cfg, 8)
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	small, big := rows[0], rows[1]
	if small.FDR.Mean <= big.FDR.Mean {
		t.Fatalf("FDR(λn=0.02)=%v not above FDR(λn=1)=%v — imbalance handling broken",
			small.FDR.Mean, big.FDR.Mean)
	}
}

func TestMonthlyConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("monthly experiment")
	}
	c := buildTestCorpus(t, 7)
	opt := MonthlyOptions{
		StartMonth: 3,
		TargetFAR:  1.0,
		ORFConfig:  core.Config{Trees: 15, MinParentSize: 100, AgeThreshold: 1 << 30},
		Learners:   []OfflineLearner{RFLearner{Lambda: 3, Config: forest.Config{Trees: 15}}},
		Seed:       9,
	}
	series := MonthlyConvergence(c, opt)
	if len(series) != 2 || series[0].Name != "ORF" {
		t.Fatalf("series = %+v", seriesNames(series))
	}
	orfS := series[0]
	if len(orfS.Months) == 0 {
		t.Fatal("no checkpoints")
	}
	// The ORF must improve from its first checkpoint to its last.
	first, last := orfS.FDR[0], orfS.FDR[len(orfS.FDR)-1]
	if !(last >= first) {
		t.Fatalf("ORF FDR did not improve: %v -> %v", first, last)
	}
	// Late-stream ORF should be within striking distance of offline RF.
	rfS := series[1]
	lastRF := rfS.FDR[len(rfS.FDR)-1]
	if !math.IsNaN(lastRF) && last < lastRF-25 {
		t.Fatalf("ORF final FDR %v far below RF %v", last, lastRF)
	}
	// Every reported FAR stays near the budget (the protocol allows up
	// to 2x the target when score granularity is coarse).
	for i, far := range orfS.FAR {
		if !math.IsNaN(far) && far > 2*opt.TargetFAR+1e-9 {
			t.Fatalf("ORF month %d FAR %v exceeds allowance", orfS.Months[i], far)
		}
	}
}

func seriesNames(ss []Series) []string {
	names := make([]string, len(ss))
	for i, s := range ss {
		names[i] = s.Name
	}
	return names
}

func TestLongTermRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("long-term experiment")
	}
	c := buildTestCorpus(t, 10)
	opt := LongTermOptions{
		DeployMonth: 4,
		TargetFAR:   1.0,
		RF:          RFLearner{Lambda: 3, Config: forest.Config{Trees: 15}},
		ORFConfig:   core.Config{Trees: 15, MinParentSize: 100},
		Seed:        11,
	}
	series := LongTerm(c, opt)
	if len(series) != 4 {
		t.Fatalf("series = %v", seriesNames(series))
	}
	months := c.Months() - opt.DeployMonth
	for _, s := range series {
		if len(s.Months) != months || len(s.FDR) != months || len(s.FAR) != months {
			t.Fatalf("series %q has %d points, want %d", s.Name, len(s.Months), months)
		}
		if s.Months[0] != opt.DeployMonth+1 {
			t.Fatalf("series %q starts at month %d", s.Name, s.Months[0])
		}
	}
}

func TestMonthDiskScoresPartition(t *testing.T) {
	c := buildTestCorpus(t, 12)
	scorer := func(x []float64) float64 { return x[0] }
	for month := 2; month < 6; month++ {
		ds := monthDiskScores(c.TestDisks, scorer, month)
		// Failed count must equal test disks failing within the month.
		mStart, mEnd := month*30, month*30+30
		want := 0
		for _, d := range c.TestDisks {
			if d.Meta.Failed && d.Meta.FailDay >= mStart && d.Meta.FailDay < mEnd {
				want++
			}
		}
		if len(ds.Failed) != want {
			t.Fatalf("month %d: %d failed scores, want %d", month, len(ds.Failed), want)
		}
	}
}

func TestSelectFeatures(t *testing.T) {
	if testing.Short() {
		t.Skip("feature selection experiment")
	}
	p := testProfile()
	fs, err := SelectFeatures(p, 13, FeatureSelectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Kept) == 0 || len(fs.Selected) == 0 {
		t.Fatalf("empty selection: %+v", fs)
	}
	if len(fs.Selected) > len(fs.Kept) {
		t.Fatal("redundancy elimination grew the set")
	}
	// The screen must discard pure-noise attributes (temperature).
	for _, f := range fs.Kept {
		cat := smart.Catalog()[f]
		if cat.Attr.ID == 194 || cat.Attr.ID == 190 || cat.Attr.ID == 3 {
			t.Fatalf("noise attribute %d survived the rank-sum screen", cat.Attr.ID)
		}
	}
	// The strongest signature attributes must rank near the top.
	top := map[int]bool{}
	for _, a := range fs.AttrRank[:min(4, len(fs.AttrRank))] {
		top[a.Attr.ID] = true
	}
	if !top[187] && !top[197] && !top[5] {
		t.Fatalf("none of 187/197/5 in top attributes: %+v", fs.AttrRank[:min(4, len(fs.AttrRank))])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestORFRunnerLabeledCounts(t *testing.T) {
	c := buildTestCorpus(t, 14)
	runner := NewORFRunner(len(c.Features), smart.PredictionHorizonDays, core.Config{Trees: 5, MinParentSize: 100})
	runner.ConsumeThroughDay(c, 0, c.Gen.Profile().Days())
	pos, neg := runner.LabeledCounts()
	if pos == 0 || neg == 0 {
		t.Fatalf("labeled counts %d pos / %d neg", pos, neg)
	}
	maxPos := 7 * dataset.CountFailed(c.TrainDisks)
	if pos > maxPos {
		t.Fatalf("%d positives exceed 7 per failed disk (%d)", pos, maxPos)
	}
	if neg < 10*pos {
		t.Fatalf("implausible balance: %d pos vs %d neg", pos, neg)
	}
}

func TestDriftReport(t *testing.T) {
	c := buildTestCorpus(t, 50)
	rows := DriftReport(c, 1, c.Months()-2)
	if len(rows) != len(c.Features) {
		t.Fatalf("%d rows, want %d", len(rows), len(c.Features))
	}
	// Sorted by KS distance, descending.
	for i := 1; i < len(rows); i++ {
		if rows[i].KS.D > rows[i-1].KS.D+1e-12 {
			t.Fatal("drift rows not sorted by KS distance")
		}
	}
	// The top of the list must be dominated by cumulative attributes —
	// the paper's root cause of model aging.
	cum := 0
	for _, r := range rows[:6] {
		if r.Feature.Attr.Cumulative {
			cum++
		}
	}
	if cum < 4 {
		t.Fatalf("only %d/6 top-drifted features are cumulative", cum)
	}
	// Adjacent months must drift less than distant months on the most
	// drifted feature.
	near := DriftReport(c, 1, 2)
	if near[0].KS.D >= rows[0].KS.D {
		t.Fatalf("adjacent-month drift %v not below distant drift %v",
			near[0].KS.D, rows[0].KS.D)
	}
}
