package core

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"orfdisk/internal/rng"
)

// forestBytes serializes a forest's complete state for bit-level
// comparison.
func forestBytes(t *testing.T, f *Forest) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// replacementCfg forces frequent tree replacement so batch chunking is
// exercised: tiny cooldown, low age threshold, low OOBE bar.
func replacementCfg(seed uint64) Config {
	cfg := balancedCfg(seed)
	cfg.Workers = 4
	cfg.ReplaceCooldown = 3
	cfg.AgeThreshold = 5
	cfg.OOBEThreshold = 0.0
	return cfg
}

// TestUpdateBatchBitIdentical proves UpdateBatch(X, Y) leaves the forest
// in exactly the state sequential Update calls would — same RNG draws,
// same tree replacements at the same sample positions — across batch
// sizes that straddle the replacement cooldown.
func TestUpdateBatchBitIdentical(t *testing.T) {
	const samples = 600
	r := rng.New(21)
	X := make([][]float64, samples)
	Y := make([]int, samples)
	for i := range X {
		X[i], Y[i] = streamSample(r, 0.3, 0.4)
	}

	for _, cfg := range []Config{balancedCfg(7), replacementCfg(7)} {
		seq := New(3, cfg)
		for i := range X {
			seq.Update(X[i], Y[i])
		}
		want := forestBytes(t, seq)
		seq.Close()

		for _, batch := range []int{1, 2, 5, 7, 64, samples} {
			f := New(3, cfg)
			for i := 0; i < samples; i += batch {
				end := i + batch
				if end > samples {
					end = samples
				}
				f.UpdateBatch(X[i:end], Y[i:end])
			}
			got := forestBytes(t, f)
			f.Close()
			if !bytes.Equal(got, want) {
				t.Fatalf("batch size %d (cooldown %d): state differs from sequential Update",
					batch, cfg.ReplaceCooldown)
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

// TestPoolDrainsAndExitsOnClose verifies Close parks the worker pool:
// every worker goroutine exits, and Close is idempotent.
func TestPoolDrainsAndExitsOnClose(t *testing.T) {
	count := func() int {
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		return strings.Count(stacks, "(*forestPool).worker")
	}
	cfg := balancedCfg(3)
	cfg.Workers = 4
	f := New(3, cfg)
	r := rng.New(4)
	for i := 0; i < 50; i++ {
		x, y := streamSample(r, 0.5, 0.4)
		f.Update(x, y) // forces lazy pool start
	}
	if got := count(); got != 4 {
		t.Fatalf("%d pool workers running, want 4", got)
	}
	f.Close()
	// Close waits for the workers' channel loops to return; the final
	// goroutine teardown is asynchronous, so poll briefly.
	for i := 0; i < 100 && count() != 0; i++ {
		runtime.Gosched()
	}
	if got := count(); got != 0 {
		t.Fatalf("%d pool workers still running after Close", got)
	}
	f.Close() // idempotent
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
