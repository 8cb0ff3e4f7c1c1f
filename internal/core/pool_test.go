package core

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"orfdisk/internal/rng"
)

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

// replacementCfg forces frequent tree replacement so batch chunking is
// exercised: low age threshold, low OOBE bar, and a cooldown that is
// either tiny (every chunk shorter than poolMinChunk) or just above
// poolMinChunk (chunks on both sides of it, cut by replacement scans).
func replacementCfg(seed uint64, cooldown int) Config {
	cfg := balancedCfg(seed)
	cfg.Workers = 4
	cfg.ReplaceCooldown = cooldown
	cfg.AgeThreshold = 5
	cfg.OOBEThreshold = 0.0
	return cfg
}

// TestUpdateBatchBitIdentical proves UpdateBatch(X, Y) leaves the forest
// in exactly the state sequential Update calls would — same RNG draws,
// same tree replacements at the same sample positions, same scores —
// whichever goroutine ran the chunk: across worker counts, both Poisson
// regimes, replacement off and on, and batch sizes that straddle both
// the replacement cooldown and poolMinChunk.
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

	const c = poolMinChunk
	for _, base := range []Config{balancedCfg(7), replacementCfg(7, 3), replacementCfg(7, c+c/2)} {
		for _, workers := range []int{1, 2, 4} {
			for _, lambdaNeg := range []float64{0.02, 1} {
				cfg := base
				cfg.Workers, cfg.LambdaNeg = workers, lambdaNeg
				seq := New(3, cfg)
				for i := range X {
					seq.Update(X[i], Y[i])
				}
				want, wantScores := forestBytes(t, seq), scoreBits(seq)
				if base.ReplaceCooldown != 0 && seq.Stats().Replaced == 0 {
					t.Fatalf("cooldown %d: reference run replaced no tree", cfg.ReplaceCooldown)
				}
				seq.Close()

				for _, batch := range []int{1, 2, 5, 7, c - 1, c, c + 1, 4 * c, samples} {
					f := New(3, cfg)
					for i := 0; i < samples; i += batch {
						end := min(i+batch, samples)
						f.UpdateBatch(X[i:end], Y[i:end])
					}
					got, gotScores := forestBytes(t, f), scoreBits(f)
					f.Close()
					if !bytes.Equal(got, want) || !slices.Equal(gotScores, wantScores) {
						t.Fatalf("workers %d, lambda_n %v, cooldown %d, batch size %d: differs from sequential Update",
							workers, lambdaNeg, cfg.ReplaceCooldown, batch)
					}
				}
			}
		}
	}
}

// TestUpdateBatchValidation covers the panic paths.
func TestUpdateBatchValidation(t *testing.T) {
	f := New(3, balancedCfg(1))
	defer f.Close()
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

// poolWorkers counts running forestPool worker goroutines, process-wide.
func poolWorkers() int {
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	return strings.Count(stacks, "(*forestPool).worker")
}

// TestPoolDrainsAndExitsOnClose verifies Close parks the worker pool:
// every worker goroutine exits, and Close is idempotent.
func TestPoolDrainsAndExitsOnClose(t *testing.T) {
	cfg := balancedCfg(3)
	cfg.Workers = 4
	f := New(3, cfg)
	r := rng.New(4)
	X := make([][]float64, poolMinChunk)
	Y := make([]int, poolMinChunk)
	for i := range X {
		X[i], Y[i] = streamSample(r, 0.5, 0.4)
	}
	f.UpdateBatch(X, Y) // one chunk long enough to force the lazy pool start
	if got := poolWorkers(); got != 4 {
		t.Fatalf("%d pool workers running, want 4", got)
	}
	f.Close()
	// Close waits for the workers' channel loops to return; the final
	// goroutine teardown is asynchronous, so poll briefly.
	for i := 0; i < 100 && poolWorkers() != 0; i++ {
		runtime.Gosched()
	}
	if got := poolWorkers(); got != 0 {
		t.Fatalf("%d pool workers still running after Close", got)
	}
	f.Close() // idempotent
}

// TestSingleUpdatesStartNoWorkers: a one-sample chunk never repays a
// pool dispatch, so a forest that only ever sees Update stays on the
// caller's goroutine however many workers it may use.
func TestSingleUpdatesStartNoWorkers(t *testing.T) {
	cfg := balancedCfg(8)
	cfg.Workers = 4
	f := New(3, cfg)
	defer f.Close()
	r := rng.New(9)
	for i := 0; i < 10000; i++ {
		x, y := streamSample(r, 0.5, 0.4)
		f.Update(x, y)
	}
	if f.pool != nil { // the only place pool goroutines are started from
		t.Fatal("single Updates started a worker pool")
	}
}

// TestCloseBeforeFirstUpdate must not start (or leak) any workers.
func TestCloseBeforeFirstUpdate(t *testing.T) {
	cfg := balancedCfg(5)
	cfg.Workers = 8
	f := New(3, cfg)
	f.Close()
	if f.workerPool() != nil {
		t.Fatal("workerPool started goroutines after Close")
	}
}

// TestSequentialConfigStartsNoWorkers: Workers == 1 (or a single tree)
// must never spawn pool goroutines.
func TestSequentialConfigStartsNoWorkers(t *testing.T) {
	cfg := balancedCfg(6)
	cfg.Workers = 1 // explicit: 0 defaults to GOMAXPROCS, not 1
	f := New(3, cfg)
	defer f.Close()
	f.Update([]float64{0.1, 0.2, 0.3}, 0)
	if f.pool != nil {
		t.Fatal("sequential forest started a worker pool")
	}
}
