package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"orfdisk/internal/rng"
)

// streamSample draws one sample from a two-blob distribution with the
// given imbalance; returns (x, y).
func streamSample(r *rng.Source, posRate, sep float64) ([]float64, int) {
	if r.Bernoulli(posRate) {
		return []float64{
			clamp01(0.5 + sep/2 + r.NormFloat64()*0.08),
			clamp01(0.5 + sep/2 + r.NormFloat64()*0.08),
			r.Float64(),
		}, 1
	}
	return []float64{
		clamp01(0.3 + r.NormFloat64()*0.08),
		clamp01(0.3 + r.NormFloat64()*0.08),
		r.Float64(),
	}, 0
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// balancedCfg is a small, fast config for balanced synthetic streams.
func balancedCfg(seed uint64) Config {
	return Config{
		Trees: 10, NumTests: 20, MinParentSize: 40, MinGain: 0.05,
		LambdaPos: 1, LambdaNeg: 1, Seed: seed, AgeThreshold: 1 << 30,
	}
}

func TestLearnsBalancedStream(t *testing.T) {
	f := New(3, balancedCfg(1))
	r := rng.New(2)
	for i := 0; i < 4000; i++ {
		x, y := streamSample(r, 0.5, 0.4)
		f.Update(x, y)
	}
	errs := 0
	const n = 500
	for i := 0; i < n; i++ {
		x, y := streamSample(r, 0.5, 0.4)
		if f.Predict(x, 0.5) != (y == 1) {
			errs++
		}
	}
	if frac := float64(errs) / n; frac > 0.08 {
		t.Fatalf("test error %v too high after 4000 balanced updates", frac)
	}
}

func TestImbalanceHandlingViaLambdaN(t *testing.T) {
	// 1:200 imbalance. With lambda_n = 1 the forest drowns in negatives
	// and recalls few positives at threshold 0.5; with the paper's
	// two-Poisson scheme (lambda_n = 0.02 ~ downsampling 1:1 in
	// expectation at this imbalance... actually 0.02*200 = 4 negatives
	// per positive) recall must be much higher.
	// Capacity is constrained (shallow trees, large alpha) so leaves stay
	// mixed: the two-Poisson reweighting is then what pushes failure
	// leaves past the 0.5 vote threshold.
	run := func(lambdaN float64) (recall, far float64) {
		cfg := Config{
			Trees: 10, NumTests: 20, MinParentSize: 150, MinGain: 0.03,
			MaxDepth:  2,
			LambdaPos: 1, LambdaNeg: lambdaN, Seed: 7, AgeThreshold: 1 << 30,
		}
		f := New(3, cfg)
		r := rng.New(8)
		for i := 0; i < 60000; i++ {
			x, y := streamSample(r, 0.005, 0.35)
			f.Update(x, y)
		}
		var tp, fn, fp, tn int
		for i := 0; i < 4000; i++ {
			x, y := streamSample(r, 0.05, 0.35)
			pred := f.Predict(x, 0.5)
			switch {
			case y == 1 && pred:
				tp++
			case y == 1 && !pred:
				fn++
			case y == 0 && pred:
				fp++
			default:
				tn++
			}
		}
		return float64(tp) / float64(tp+fn), float64(fp) / float64(fp+tn)
	}
	recallBal, farBal := run(0.02)
	recallFlood, _ := run(1.0)
	if recallBal < 0.7 {
		t.Fatalf("two-Poisson recall %v too low", recallBal)
	}
	if recallBal <= recallFlood {
		t.Fatalf("lambda_n=0.02 recall %v not above lambda_n=1 recall %v",
			recallBal, recallFlood)
	}
	if farBal > 0.2 {
		t.Fatalf("two-Poisson FAR %v unreasonably high", farBal)
	}
}

func TestEmptyForestPredictsHalf(t *testing.T) {
	f := New(2, balancedCfg(1))
	if p := f.PredictProba([]float64{0.5, 0.5}); p != 0.5 {
		t.Fatalf("empty forest proba %v, want 0.5", p)
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	f := New(3, balancedCfg(1))
	for _, fn := range []func(){
		func() { f.Update([]float64{1, 2}, 0) },
		func() { f.PredictProba([]float64{1, 2, 3, 4}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("dimension mismatch did not panic")
				}
			}()
			fn()
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("New(0) did not panic")
			}
		}()
		New(0, Config{})
	}()
}

func TestSplittingRespectsAlphaAndBeta(t *testing.T) {
	// With MinParentSize larger than the stream, no leaf may split.
	cfg := balancedCfg(3)
	cfg.MinParentSize = 1e9
	f := New(3, cfg)
	r := rng.New(4)
	for i := 0; i < 500; i++ {
		x, y := streamSample(r, 0.5, 0.5)
		f.Update(x, y)
	}
	if s := f.Stats(); s.Nodes != s.Leaves || s.Leaves != cfg.Trees {
		t.Fatalf("alpha=inf still split: %+v", s)
	}

	// With impossible MinGain, no split either.
	cfg = balancedCfg(5)
	cfg.MinGain = 0.49
	f = New(3, cfg)
	r = rng.New(6)
	for i := 0; i < 2000; i++ {
		// Pure noise: no split can reach gain 0.49.
		x := []float64{r.Float64(), r.Float64(), r.Float64()}
		f.Update(x, r.Intn(2))
	}
	if s := f.Stats(); s.Nodes != s.Leaves {
		t.Fatalf("beta=0.49 split on noise: %+v", s)
	}
}

func TestMaxDepthBoundsGrowth(t *testing.T) {
	cfg := balancedCfg(7)
	cfg.MaxDepth = 1
	cfg.MinParentSize = 20
	f := New(3, cfg)
	r := rng.New(8)
	for i := 0; i < 5000; i++ {
		x, y := streamSample(r, 0.5, 0.6)
		f.Update(x, y)
	}
	s := f.Stats()
	// Depth 1 means at most 3 nodes per tree.
	if s.Nodes > 3*cfg.Trees {
		t.Fatalf("MaxDepth=1 grew %d nodes over %d trees", s.Nodes, cfg.Trees)
	}
}

func TestTreeReplacementUnderDrift(t *testing.T) {
	// Train on one concept, then flip the labels: OOBE must rise and
	// trees must be replaced.
	cfg := Config{
		Trees: 10, NumTests: 20, MinParentSize: 30, MinGain: 0.03,
		LambdaPos: 1, LambdaNeg: 1, Seed: 9,
		OOBEThreshold: 0.35, AgeThreshold: 300, OOBEDecay: 0.97,
	}
	f := New(3, cfg)
	r := rng.New(10)
	for i := 0; i < 3000; i++ {
		x, y := streamSample(r, 0.5, 0.5)
		f.Update(x, y)
	}
	if f.Stats().Replaced != 0 {
		t.Fatalf("replacements before drift: %d", f.Stats().Replaced)
	}
	for i := 0; i < 6000; i++ {
		x, y := streamSample(r, 0.5, 0.5)
		f.Update(x, 1-y) // concept flip
	}
	if f.Stats().Replaced == 0 {
		t.Fatal("no tree replaced after concept flip")
	}
	// And the forest must have adapted to the flipped concept.
	errs := 0
	const n = 400
	for i := 0; i < n; i++ {
		x, y := streamSample(r, 0.5, 0.5)
		if f.Predict(x, 0.5) != (1-y == 1) {
			errs++
		}
	}
	if frac := float64(errs) / n; frac > 0.2 {
		t.Fatalf("post-drift error %v: forest failed to adapt", frac)
	}
}

func TestDisableReplacement(t *testing.T) {
	cfg := Config{
		Trees: 5, NumTests: 10, MinParentSize: 30, MinGain: 0.03,
		LambdaPos: 1, LambdaNeg: 1, Seed: 11,
		OOBEThreshold: 0.01, AgeThreshold: 1, DisableReplacement: true,
	}
	f := New(3, cfg)
	r := rng.New(12)
	for i := 0; i < 3000; i++ {
		x, y := streamSample(r, 0.5, 0.5)
		f.Update(x, r.Intn(2)*y) // noisy labels force high OOBE
	}
	if f.Stats().Replaced != 0 {
		t.Fatalf("DisableReplacement ignored: %d replacements", f.Stats().Replaced)
	}
}

func TestStatsAccounting(t *testing.T) {
	f := New(3, balancedCfg(13))
	r := rng.New(14)
	pos, neg := 0, 0
	for i := 0; i < 100; i++ {
		x, y := streamSample(r, 0.3, 0.5)
		f.Update(x, y)
		if y == 1 {
			pos++
		} else {
			neg++
		}
	}
	s := f.Stats()
	if s.Updates != 100 || int(s.PosSeen) != pos || int(s.NegSeen) != neg {
		t.Fatalf("stats %+v, want 100 updates (%d pos, %d neg)", s, pos, neg)
	}
	if s.Nodes < s.Leaves || s.Leaves < f.cfg.Trees {
		t.Fatalf("implausible node counts: %+v", s)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Trees != 30 || c.MinParentSize != 200 || c.MinGain != 0.1 ||
		c.LambdaPos != 1 || c.LambdaNeg != 0.02 {
		t.Fatalf("defaults do not match the paper: %+v", c)
	}
}

func TestGiniProperties(t *testing.T) {
	if g := gini(0, 0); g != 0 {
		t.Fatalf("gini(0,0) = %v", g)
	}
	if g := gini(10, 10); math.Abs(g-0.5) > 1e-12 {
		t.Fatalf("gini(10,10) = %v, want 0.5", g)
	}
	if g := gini(10, 0); g != 0 {
		t.Fatalf("gini pure = %v", g)
	}
	f := func(a, b uint16) bool {
		g := gini(float64(a), float64(b))
		return g >= 0 && g <= 0.5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: forest probability stays in [0,1] through arbitrary streams.
func TestQuickProbaBounded(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := balancedCfg(seed)
		cfg.Trees = 3
		forest := New(2, cfg)
		r := rng.New(seed + 1)
		for i := 0; i < 300; i++ {
			forest.Update([]float64{r.Float64(), r.Float64()}, r.Intn(2))
		}
		for i := 0; i < 20; i++ {
			p := forest.PredictProba([]float64{r.Float64(), r.Float64()})
			if p < 0 || p > 1 || math.IsNaN(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: leaf statistics stay consistent — a tree's node count only
// grows by two per split and never shrinks without reset.
func TestQuickNodeCountGrowsByTwo(t *testing.T) {
	cfg := balancedCfg(77)
	cfg.Trees = 1
	cfg.MinParentSize = 10
	f := New(2, cfg)
	r := rng.New(78)
	prev := f.Stats().Nodes
	for i := 0; i < 3000; i++ {
		x, y := streamSample(r, 0.5, 0.6)
		f.Update(x[:2], y)
		cur := f.Stats().Nodes
		if cur < prev || (cur-prev)%2 != 0 {
			t.Fatalf("node count moved %d -> %d", prev, cur)
		}
		prev = cur
	}
}

func BenchmarkUpdateNegative(b *testing.B) {
	f := New(19, Config{Seed: 1})
	r := rng.New(2)
	x := make([]float64, 19)
	for i := range x {
		x[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Update(x, 0)
	}
}

func BenchmarkUpdatePositive(b *testing.B) {
	f := New(19, Config{Seed: 1})
	r := rng.New(2)
	x := make([]float64, 19)
	for i := range x {
		x[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Update(x, 1)
	}
}

func BenchmarkPredictProba(b *testing.B) {
	f := New(19, Config{Seed: 1, MinParentSize: 50})
	r := rng.New(2)
	x := make([]float64, 19)
	for i := 0; i < 20000; i++ {
		for j := range x {
			x[j] = r.Float64()
		}
		f.Update(x, i%30/29) // ~3% positives
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.PredictProba(x)
	}
}

func TestFeatureImportanceFindsSignalFeature(t *testing.T) {
	// Feature 0 carries all the class signal; 1 and 2 are noise.
	cfg := balancedCfg(91)
	cfg.MinParentSize = 30
	f := New(3, cfg)
	r := rng.New(92)
	for i := 0; i < 5000; i++ {
		y := r.Intn(2)
		x := []float64{0.2 + 0.5*float64(y) + r.NormFloat64()*0.05,
			r.Float64(), r.Float64()}
		f.Update(x, y)
	}
	imp := f.FeatureImportance()
	if len(imp) != 3 {
		t.Fatalf("importance length %d", len(imp))
	}
	sum := imp[0] + imp[1] + imp[2]
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("importance sums to %v", sum)
	}
	if imp[0] < imp[1] || imp[0] < imp[2] {
		t.Fatalf("signal feature not dominant: %v", imp)
	}
}

func TestFeatureImportanceEmptyForest(t *testing.T) {
	f := New(4, balancedCfg(93))
	imp := f.FeatureImportance()
	for _, v := range imp {
		if v != 0 {
			t.Fatalf("untrained forest importance %v", imp)
		}
	}
}

func TestReplaceCooldownLimitsRate(t *testing.T) {
	// Every tree is permanently terrible (noisy labels, tiny thresholds),
	// so without the cooldown the whole forest would churn continuously.
	// With the cooldown, at most one replacement may occur per window.
	cfg := Config{
		Trees: 10, NumTests: 10, MinParentSize: 30, MinGain: 0.03,
		LambdaPos: 1, LambdaNeg: 1, Seed: 99,
		OOBEThreshold: 0.05, AgeThreshold: 10, OOBEDecay: 0.9,
		ReplaceCooldown: 200,
	}
	f := New(3, cfg)
	r := rng.New(100)
	const updates = 4000
	for i := 0; i < updates; i++ {
		x := []float64{r.Float64(), r.Float64(), r.Float64()}
		f.Update(x, r.Intn(2)) // pure label noise: OOBE ~ 0.5 everywhere
	}
	maxAllowed := int64(updates/cfg.ReplaceCooldown) + 1
	if got := f.Stats().Replaced; got == 0 || got > maxAllowed {
		t.Fatalf("replacements %d, want in (0, %d]", got, maxAllowed)
	}
}

// replacementCfg forces frequent tree replacement: low age threshold,
// zero OOBE bar, and the given cooldown between replacements.
func replacementCfg(seed uint64, cooldown int) Config {
	cfg := balancedCfg(seed)
	cfg.ReplaceCooldown = cooldown
	cfg.AgeThreshold = 5
	cfg.OOBEThreshold = 0.0
	return cfg
}

// forestBytes serializes a forest's complete state for bit-level
// comparison.
func forestBytes(t *testing.T, f *Forest) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := f.WriteToRaw(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestUpdateBatchBitIdentical proves UpdateBatch(X, Y) leaves the forest
// in exactly the state sequential Update calls would — same RNG draws,
// same tree replacements at the same sample positions, same scores —
// in both Poisson regimes, with replacement off and on, and for batch
// sizes on both sides of the replacement cooldown.
func TestUpdateBatchBitIdentical(t *testing.T) {
	const samples = 600
	r := rng.New(21)
	X := make([][]float64, samples)
	Y := make([]int, samples)
	for i := range X {
		X[i], Y[i] = streamSample(r, 0.3, 0.4)
	}
	scoreBits := func(f *Forest) []uint64 {
		out := make([]uint64, 64)
		for i := range out {
			out[i] = math.Float64bits(f.PredictProba(X[i]))
		}
		return out
	}

	for _, base := range []Config{balancedCfg(7), replacementCfg(7, 3), replacementCfg(7, 96)} {
		for _, lambdaNeg := range []float64{0.02, 1} {
			cfg := base
			cfg.LambdaNeg = lambdaNeg
			seq := New(3, cfg)
			for i := range X {
				seq.Update(X[i], Y[i])
			}
			want, wantScores := forestBytes(t, seq), scoreBits(seq)
			if base.ReplaceCooldown != 0 && seq.Stats().Replaced == 0 {
				t.Fatalf("cooldown %d: reference run replaced no tree", cfg.ReplaceCooldown)
			}

			for _, batch := range []int{1, 2, 5, 7, 63, 64, 65, 256, samples} {
				f := New(3, cfg)
				for i := 0; i < samples; i += batch {
					end := min(i+batch, samples)
					f.UpdateBatch(X[i:end], Y[i:end])
				}
				got, gotScores := forestBytes(t, f), scoreBits(f)
				if !bytes.Equal(got, want) || !slices.Equal(gotScores, wantScores) {
					t.Fatalf("lambda_n %v, cooldown %d, batch size %d: differs from sequential Update",
						lambdaNeg, cfg.ReplaceCooldown, batch)
				}
			}
		}
	}
}

// TestUpdateBatchValidation covers the panic paths.
func TestUpdateBatchValidation(t *testing.T) {
	f := New(3, balancedCfg(1))
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("length mismatch", func() {
		f.UpdateBatch([][]float64{{1, 2, 3}}, []int{0, 1})
	})
	mustPanic("dim mismatch", func() {
		f.UpdateBatch([][]float64{{1, 2}}, []int{0})
	})
}

// TestForestPinned pins Algorithm 1's output across refactors of the
// update path: a seeded stream fed through alternating runs of Update
// and UpdateBatch (1-9 samples each) must leave every tree, the update
// and replacement counters and the cooldown position at the digests
// recorded from the code before the worker pool was deleted (PR 20). A
// changed constant means the forest learns differently from every
// snapshot and WAL already on disk.
func TestForestPinned(t *testing.T) {
	const samples = 3000
	off := balancedCfg(7)
	off.DisableReplacement = true
	for _, c := range []struct {
		name      string
		cfg       Config
		lambdaNeg float64
		want      string
	}{
		{"replacement-off/0.02", off, 0.02, "9f83a2752e07aec4c9b1e4aa9126d97456197ab77d3f767cef0f5915515459f2"},
		{"replacement-off/1", off, 1, "00c83af87c40d8b60f41bb8e2bb27576db0654464b15477dc6a69fa5ee88a518"},
		{"cooldown-3/0.02", replacementCfg(7, 3), 0.02, "2b05a57a83fa042c370b00489e29f576c71a39ffe4a39e72b75ab80c18a3c588"},
		{"cooldown-3/1", replacementCfg(7, 3), 1, "d65b8136b5661ad4445ef9b5b86e383a4437e12a3d13b58ec5f0b5aec79a8d67"},
		{"cooldown-96/0.02", replacementCfg(7, 96), 0.02, "0ec7738619a7a5208ad981333005da0740e851dc3b636b0770d6fc3d8d0c47c4"},
		{"cooldown-96/1", replacementCfg(7, 96), 1, "efb5248a42fc99d43542da868e0072c533f3ac99467244fd0ce8eb00245af079"},
	} {
		cfg := c.cfg
		cfg.LambdaNeg = c.lambdaNeg
		f := New(3, cfg)
		stream, runs := rng.New(41), rng.New(42)
		batch := false
		for fed := 0; fed < samples; batch = !batch {
			n := min(1+runs.Intn(9), samples-fed)
			X, Y := make([][]float64, n), make([]int, n)
			for i := range X {
				X[i], Y[i] = streamSample(stream, 0.3, 0.4)
			}
			if batch {
				f.UpdateBatch(X, Y)
			} else {
				for i := range X {
					f.Update(X[i], Y[i])
				}
			}
			fed += n
		}
		if !cfg.DisableReplacement && f.Stats().Replaced == 0 {
			t.Fatalf("%s: no tree was replaced; the case pins nothing about replacement", c.name)
		}
		var w writer
		for _, tr := range f.trees {
			writeTree(&w, tr)
		}
		w.i64(f.updates)
		w.i64(f.replaced.Load())
		w.i64(f.sinceReplace)
		sum := sha256.Sum256(w.buf)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: digest %s, want %s (%d replaced)", c.name, got, c.want, f.Stats().Replaced)
		}
	}
}
