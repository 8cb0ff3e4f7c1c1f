// Command orfbench is the end-to-end benchmark: it builds orfserve,
// orfrouter, orfload and orfgen from the checkout it runs in, drives
// them as separate processes over loopback with two closed-loop
// connections, checks what they answer against an in-process oracle,
// and prints every metric by name. bench/README.md is the manual.
//
//	orfbench --workload observe_stream --seed 1 --seconds 15 --trace 0
//	orfbench -all -out bench/out/a.json
//	orfbench -compare bench/out/a.json bench/out/b.json
//
// One invocation with --workload is one run of the contract in
// BENCHMARK.json: the last line of standard output is a JSON object
// with correct, attempted, failed and metrics (end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1). Exit status is non-zero
// when a run cannot complete (no result line), and also, after the
// result line with "correct": false, when it lost operations or
// disagreed with the oracle.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload: observe_stream, predict_sweep, fleet_day_mixed or backfill_recover")
		seed     = flag.Uint64("seed", 1, "workload seed: the corpus and every request derive from it")
		seconds  = flag.Int("seconds", runSeconds, "must be run_seconds of BENCHMARK.json: the work is frozen in rows, days and sweeps sized for it")
		trace    = flag.Int("trace", 0, "1 adds the traced in-process twin and reports per-layer metrics")
		all      = flag.Bool("all", false, "run every workload, untraced then traced, and print every metric")
		smoke    = flag.Bool("short", false, "smoke regime: a ~20k-row corpus, seconds of work")
		out      = flag.String("out", "", "also write the runs to this result file (read by -compare)")
		compare  = flag.Bool("compare", false, "compare two result files: orfbench -compare A.json B.json")
		repeats  = flag.Int("repeats", 0, "with -compare REF_A REF_B: run N A/B pairs of checkouts at those two directories, alternating order, instead of reading files")
	)
	flag.Parse()
	if *seconds != runSeconds {
		fatalf("--seconds %d: the work is frozen in rows, days and sweeps sized for --seconds %d (run_seconds in BENCHMARK.json)", *seconds, runSeconds)
	}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: orfbench -compare [-repeats N] A B")
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1), *repeats, *seed))
	case *all:
		os.Exit(runAll(*seed, *smoke, *out))
	case *workload != "":
		if !knownWorkload(*workload) {
			fatalf("unknown workload %q", *workload)
		}
		res, err := runOne(*workload, *seed, *smoke, *trace != 0, os.Stderr)
		if err != nil {
			fatalf("%v", err)
		}
		if *out != "" {
			if err := writeResultFile(*out, []*RunResult{res}); err != nil {
				fatalf("%v", err)
			}
		}
		fmt.Println(res.contractLine())
		if !res.Correct {
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "orfbench: "+format+"\n", args...)
	os.Exit(1)
}

// findRoot returns the checkout root: the nearest directory at or above
// the working directory that holds cmd/orfserve.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if st, err := os.Stat(filepath.Join(dir, "cmd", "orfserve")); err == nil && st.IsDir() {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no checkout here: cmd/orfserve not found at or above the working directory")
		}
		dir = parent
	}
}

// runOne performs one workload run. Human-readable output goes to log;
// the caller prints the contract line.
func runOne(workload string, seed uint64, smoke, trace bool, log io.Writer) (*RunResult, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	return runIn(root, filepath.Join(root, ".bench_build"), workload, seed, smoke, trace, log)
}

// runIn runs against the checkout at root, keeping binaries and work
// directories under buildDir.
func runIn(root, buildDir, workload string, seed uint64, smoke, trace bool, log io.Writer) (*RunResult, error) {
	h, err := newHarness(root, buildDir, workload, seed, smoke, trace)
	if err != nil {
		return nil, err
	}
	return h.execute(log)
}

func newHarness(root, buildDir, workload string, seed uint64, smoke, trace bool) (*Harness, error) {
	workDir := filepath.Join(buildDir, "work", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(filepath.Join(workDir, "logs"), 0o755); err != nil {
		return nil, err
	}
	h := &Harness{
		root: root, binDir: filepath.Join(buildDir, "bin"), workDir: workDir,
		workload: workload, seed: seed, trace: trace,
		p:      paramsFor(workload, smoke),
		res:    newRunResult(workload, seed, smoke, trace),
		outDir: filepath.Join(root, "bench", "out"),
	}
	h.procs = newProcs(h.binDir, filepath.Join(workDir, "logs"))
	return h, nil
}

// execute performs the run, prints it to log, and leaves no process
// and no work directory behind.
func (h *Harness) execute(log io.Writer) (*RunResult, error) {
	defer os.RemoveAll(h.workDir)
	defer h.procs.Close()

	// Reap the children on SIGINT/SIGTERM too; Pdeathsig covers SIGKILL.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()

	t0 := time.Now()
	err := h.run(ctx)
	if h.oracle != nil {
		h.oracle.Close()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", h.workload, err)
	}
	if h.trace {
		if err := h.runTwin(ctx); err != nil {
			return nil, fmt.Errorf("%s: traced twin: %w", h.workload, err)
		}
	}
	h.res.Correct = len(h.res.Mismatches) == 0 && h.res.Failed == 0
	h.res.detail("total_s", time.Since(t0).Seconds(), "s")
	h.res.Host = hostStamp(h.root)
	h.res.Host.Children = h.procs.Stamps()
	h.res.Host.Corpus = h.corpus.GenCommand
	h.res.print(log)
	return h.res, nil
}

// runAll is the one command that runs everything: each workload
// untraced, then traced, all metrics printed by name.
func runAll(seed uint64, smoke bool, out string) int {
	var runs []*RunResult
	ok := true
	for _, tr := range []bool{false, true} {
		for _, w := range workloads {
			res, err := runOne(w.Name, seed, smoke, tr, os.Stdout)
			if err != nil {
				fmt.Fprintf(os.Stderr, "orfbench: %v\n", err)
				ok = false
				continue
			}
			ok = ok && res.Correct
			runs = append(runs, res)
			fmt.Println()
		}
	}
	if out != "" {
		if err := writeResultFile(out, runs); err != nil {
			fmt.Fprintf(os.Stderr, "orfbench: %v\n", err)
			ok = false
		}
	}
	if !ok {
		fmt.Println("FAIL: at least one run failed, lost operations or disagreed with the oracle")
		return 1
	}
	fmt.Println("ok: every workload completed, no failed operations, no oracle mismatch")
	return 0
}
