package core

import (
	"testing"

	"orfdisk/internal/rng"
)

// frozenGrid is the config grid the freeze/score property tests sweep:
// deep and shallow trees, balanced and two-Poisson weighting.
func frozenGrid() []Config {
	return []Config{
		{Trees: 1, NumTests: 10, MinParentSize: 30, MinGain: 0.05,
			LambdaPos: 1, LambdaNeg: 1, Seed: 3, AgeThreshold: 1 << 30},
		{Trees: 7, NumTests: 20, MinParentSize: 40, MinGain: 0.05,
			LambdaPos: 1, LambdaNeg: 1, Seed: 5, AgeThreshold: 1 << 30},
		{Trees: 10, NumTests: 15, MinParentSize: 40, MinGain: 0.03, MaxDepth: 3,
			LambdaPos: 1, LambdaNeg: 1, Seed: 9, AgeThreshold: 1 << 30},
		{Trees: 8, NumTests: 20, MinParentSize: 60, MinGain: 0.05,
			LambdaPos: 1, LambdaNeg: 0.2, Seed: 13, AgeThreshold: 400},
		{Trees: 6, NumTests: 20, MinParentSize: 40, MinGain: 0.05,
			LambdaPos: 1, LambdaNeg: 1, Seed: 17, AgeThreshold: 1 << 30},
	}
}

// TestFrozenScoreMatchesPredictProba is the bit-identity property: at
// several points of a forest's growth, Freeze().Score must equal
// PredictProba exactly — not approximately — on random vectors.
func TestFrozenScoreMatchesPredictProba(t *testing.T) {
	for ci, cfg := range frozenGrid() {
		f := New(3, cfg)
		r := rng.New(uint64(100 + ci))
		probe := func(stage string) {
			fz := f.Freeze()
			if fz.Trees() != cfg.Trees || fz.Dim() != 3 {
				t.Fatalf("cfg %d %s: frozen shape %d trees dim %d", ci, stage, fz.Trees(), fz.Dim())
			}
			if fz.Updates() != f.Updates() {
				t.Fatalf("cfg %d %s: frozen updates %d, live %d", ci, stage, fz.Updates(), f.Updates())
			}
			for k := 0; k < 200; k++ {
				x := []float64{r.Float64(), r.Float64(), r.Float64()}
				want := f.PredictProba(x)
				got, err := fz.Score(x)
				if err != nil {
					t.Fatalf("cfg %d %s: Score: %v", ci, stage, err)
				}
				if got != want {
					t.Fatalf("cfg %d %s: Score(%v) = %v, PredictProba = %v", ci, stage, x, got, want)
				}
			}
		}
		probe("empty")
		for i := 0; i < 3000; i++ {
			x, y := streamSample(r, 0.3, 0.4)
			f.Update(x, y)
			if i == 50 || i == 500 {
				probe("growing")
			}
		}
		probe("grown")
		f.Close()
	}
}

// TestFrozenImmutableAfterUpdates pins the RCU contract: a snapshot's
// scores must not move when the live forest keeps learning past the
// freeze point.
func TestFrozenImmutableAfterUpdates(t *testing.T) {
	f := New(3, balancedCfg(21))
	r := rng.New(22)
	for i := 0; i < 1500; i++ {
		x, y := streamSample(r, 0.5, 0.4)
		f.Update(x, y)
	}
	fz := f.Freeze()
	var probes [][]float64
	var want []float64
	for k := 0; k < 100; k++ {
		x := []float64{r.Float64(), r.Float64(), r.Float64()}
		probes = append(probes, x)
		s, err := fz.Score(x)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, s)
	}
	for i := 0; i < 1500; i++ {
		x, y := streamSample(r, 0.5, 0.4)
		f.Update(x, y)
	}
	moved := false
	for k, x := range probes {
		if s, _ := fz.Score(x); s != want[k] {
			t.Fatalf("frozen score for probe %d moved after live updates", k)
		}
		if f.PredictProba(x) != want[k] {
			moved = true
		}
	}
	if !moved {
		t.Fatal("live forest did not move on any probe after 1500 updates; immutability test is vacuous")
	}
}

// TestFrozenScoreBatchIntoParity checks the frozen batch-into path
// against the live scalar PredictProba and the dst grow/recycle contract.
func TestFrozenScoreBatchIntoParity(t *testing.T) {
	f := New(3, balancedCfg(31))
	defer f.Close()
	r := rng.New(32)
	for i := 0; i < 2000; i++ {
		x, y := streamSample(r, 0.5, 0.4)
		f.Update(x, y)
	}
	X := make([][]float64, 64)
	for i := range X {
		X[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
	}
	fz := f.Freeze()

	dst := make([]float64, 7) // too short: must grow
	dst, err := fz.ScoreBatchInto(dst, X)
	if err != nil {
		t.Fatal(err)
	}
	if len(dst) != len(X) {
		t.Fatalf("ScoreBatchInto returned %d results for %d vectors", len(dst), len(X))
	}
	for i := range X {
		if want := f.PredictProba(X[i]); dst[i] != want {
			t.Fatalf("vector %d: frozen batch %v, scalar %v", i, dst[i], want)
		}
	}

	recycled, err := fz.ScoreBatchInto(dst, X[:10])
	if err != nil {
		t.Fatal(err)
	}
	if len(recycled) != 10 || &recycled[0] != &dst[0] {
		t.Fatal("ScoreBatchInto did not recycle a large-enough dst")
	}
}

// TestFrozenScoreBatchMatchesSequential is the batch-kernel bit-identity
// property: for every grid config and a spread of batch sizes straddling
// the kernel's block width (including empty), ScoreBatchInto must equal
// a per-vector Score loop exactly — at dimension 3, which takes the block
// kernel, and at flatRowMax+1, which takes its per-vector fallback.
func TestFrozenScoreBatchMatchesSequential(t *testing.T) {
	for _, dim := range []int{3, flatRowMax + 1} {
		for ci, cfg := range frozenGrid() {
			f := New(dim, cfg)
			r := rng.New(uint64(500 + ci))
			for i := 0; i < 2500; i++ {
				x, y := streamSample(r, 0.3, 0.4)
				for len(x) < dim { // wider copies of the informative features
					x = append(x, x[len(x)%3])
				}
				f.Update(x, y)
			}
			fz := f.Freeze()
			if fz.Nodes() == fz.Trees() {
				t.Fatalf("dim %d cfg %d: no tree split; the walk is untested", dim, ci)
			}
			var dst []float64
			for _, n := range []int{0, 1, 7, BatchBlock - 1, BatchBlock, BatchBlock + 1, 3*BatchBlock + 5} {
				X := make([][]float64, n)
				for i := range X {
					X[i] = make([]float64, dim)
					for j := range X[i] {
						X[i][j] = r.Float64()
					}
				}
				var err error
				dst, err = fz.ScoreBatchInto(dst, X)
				if err != nil {
					t.Fatalf("dim %d cfg %d n=%d: %v", dim, ci, n, err)
				}
				if len(dst) != n {
					t.Fatalf("dim %d cfg %d: batch of %d returned %d scores", dim, ci, n, len(dst))
				}
				for i := range X {
					want, err := fz.Score(X[i])
					if err != nil {
						t.Fatal(err)
					}
					if dst[i] != want {
						t.Fatalf("dim %d cfg %d n=%d vector %d: batch %v, scalar %v", dim, ci, n, i, dst[i], want)
					}
				}
			}
			f.Close()
		}
	}
}

// TestFrozenScoreDimensionErrors pins the validated-error contract: a
// wrong-width vector must come back as an error, never a panic, and a
// batch with one bad vector must reject the whole batch with dst
// untouched.
func TestFrozenScoreDimensionErrors(t *testing.T) {
	f := New(3, balancedCfg(41))
	defer f.Close()
	r := rng.New(42)
	for i := 0; i < 500; i++ {
		x, y := streamSample(r, 0.5, 0.4)
		f.Update(x, y)
	}
	fz := f.Freeze()
	if _, err := fz.Score([]float64{1}); err == nil {
		t.Fatal("Score accepted a 1-dim vector for a 3-dim forest")
	}
	if _, err := fz.Score(make([]float64, 4)); err == nil {
		t.Fatal("Score accepted a 4-dim vector for a 3-dim forest")
	}
	dst := []float64{-1, -1, -1}
	got, err := fz.ScoreBatchInto(dst, [][]float64{{1, 2, 3}, {1}})
	if err == nil {
		t.Fatal("ScoreBatchInto accepted a ragged batch")
	}
	for i, v := range got {
		if v != -1 {
			t.Fatalf("ScoreBatchInto scored into dst[%d]=%v before failing validation", i, v)
		}
	}
}

// TestIncrementalRefreezeMatchesFullFreeze pins the dirty-tree splice
// protocol: after a partial-dirty update window, an incremental Freeze
// must produce byte-for-byte the snapshot a from-scratch flatten would,
// and a refreeze with nothing dirty must share the previous snapshot's
// arrays outright.
func TestIncrementalRefreezeMatchesFullFreeze(t *testing.T) {
	cfg := Config{
		Trees: 12, NumTests: 15, MinParentSize: 30, MinGain: 0.05,
		LambdaPos: 1, LambdaNeg: 0.15, Seed: 77, AgeThreshold: 1 << 30,
	}
	f := New(3, cfg)
	defer f.Close()
	r := rng.New(78)
	for i := 0; i < 2000; i++ {
		// Full-weight stream so every tree grows real structure.
		x, y := streamSample(r, 0.3, 0.4)
		f.Update(x, y)
	}
	f.Freeze()

	// Feed a thin negative trickle: with lambda_n = 0.15 most trees draw
	// k = 0 per sample, so only a few go dirty. Stop as soon as the
	// forest is partially dirty; bail out if the seed ever stops
	// producing that state.
	partial := false
	for i := 0; i < 200 && !partial; i++ {
		x, _ := streamSample(r, 0, 0.4)
		f.Update(x, 0)
		d := 0
		for _, tr := range f.trees {
			if tr.dirty {
				d++
			}
		}
		partial = d > 0 && d < len(f.trees)
	}
	if !partial {
		t.Fatal("stream never left the forest partially dirty; test is vacuous")
	}

	inc := f.Freeze() // incremental: splices the clean trees

	// Force a from-scratch flatten of identical live state.
	f.lastFrozen = nil
	full := f.Freeze()

	if inc.updates != full.updates || inc.dim != full.dim || inc.divisor != full.divisor {
		t.Fatalf("header divergence: inc %+v, full %+v", inc.updates, full.updates)
	}
	if len(inc.roots) != len(full.roots) || len(inc.walk) != len(full.walk) {
		t.Fatalf("shape divergence: inc %d/%d, full %d/%d",
			len(inc.roots), len(inc.walk), len(full.roots), len(full.walk))
	}
	for i := range full.roots {
		if inc.roots[i] != full.roots[i] {
			t.Fatalf("root %d: inc %d, full %d", i, inc.roots[i], full.roots[i])
		}
	}
	for i := range full.walk {
		if inc.walk[i] != full.walk[i] {
			t.Fatalf("walk record %d diverges: inc %+v, full %+v", i, inc.walk[i], full.walk[i])
		}
	}

	// Clean refreeze: nothing dirty since full, so the snapshot must
	// share the previous arrays rather than copy them.
	again := f.Freeze()
	if &again.walk[0] != &full.walk[0] || &again.roots[0] != &full.roots[0] {
		t.Fatal("clean refreeze copied the walk instead of sharing it")
	}
	if again.updates != f.updates {
		t.Fatalf("clean refreeze reports %d updates, forest has %d", again.updates, f.updates)
	}
}

// TestFrozenBatchAllocations gates the batch kernel at 0 allocs/op with
// a recycled dst — the contract BENCH_predict.json records.
func TestFrozenBatchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates alloc counts")
	}
	f := New(3, balancedCfg(51))
	defer f.Close()
	r := rng.New(52)
	for i := 0; i < 2000; i++ {
		x, y := streamSample(r, 0.5, 0.4)
		f.Update(x, y)
	}
	fz := f.Freeze()
	X := make([][]float64, BatchBlock+BatchBlock/2) // straddle a block boundary
	for i := range X {
		X[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
	}
	dst := make([]float64, len(X))
	if allocs := testing.AllocsPerRun(100, func() {
		var err error
		dst, err = fz.ScoreBatchInto(dst, X)
		if err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("ScoreBatchInto allocates %v per call", allocs)
	}
}
