package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// verdict is one workload x metric row of a comparison.
type verdict struct {
	Workload, Metric string
	A, B             []float64
	MedA, MedB       float64
	Worse            float64 // share of A's median by which B is worse; negative: better
	Spread           float64 // the wider of the two sides' IQR/median
	Bound            float64
	// Runs paired by position: B better than A, B worse than A; a tie
	// counts for neither.
	Wins, Losses, Pairs int
	Verdict             string
	Why                 string // for INVALID rows
}

// judge applies one metric's bound. The order of the tests is the rule.
// With ten or more pairs, nine in ten going one way by more than A's own
// interquartile spread is decided, whatever the bound: that is how
// repeats see a regression smaller than the single-run bound. Failing
// that, a spread wider than the bound makes any difference unreadable,
// so it is reported as unresolved, never as unchanged. gainCounts is
// false when B lost more operations than A: no gain counts then.
func judge(def MetricDef, a, b []float64, gainCounts bool) verdict {
	v := verdict{Metric: def.Name, A: a, B: b, Bound: def.Bound, MedA: median(a), MedB: median(b)}
	if v.MedA != 0 {
		v.Worse = (v.MedB - v.MedA) / v.MedA
		if def.Better == "higher" {
			v.Worse = -v.Worse
		}
	}
	v.Spread = max(spread(a), spread(b))
	for i := 0; i < min(len(a), len(b)); i++ {
		v.Pairs++
		switch {
		case a[i] == b[i]:
		case (def.Better == "higher") == (b[i] > a[i]):
			v.Wins++
		default:
			v.Losses++
		}
	}
	qa1, qa3 := quartiles(a)
	decided := v.Pairs >= 10 && math.Abs(v.MedB-v.MedA) > qa3-qa1
	switch {
	case len(a) == 0 || len(b) == 0:
		v.Verdict = "missing"
	case decided && v.Losses*10 >= v.Pairs*9:
		v.Verdict = "REGRESSED"
	case decided && v.Wins*10 >= v.Pairs*9 && gainCounts:
		v.Verdict = "improved"
	case v.Spread > def.Bound:
		v.Verdict = "unresolved"
	case v.Worse > def.Bound:
		v.Verdict = "REGRESSED"
	default:
		v.Verdict = "unchanged"
	}
	return v
}

// untraced returns a file's untraced runs of one workload, in run order.
func untraced(rf *ResultFile, workload string) []*RunResult {
	var out []*RunResult
	for _, r := range rf.Runs {
		if !r.Trace && r.Workload == workload {
			out = append(out, r)
		}
	}
	return out
}

// invalid says why two sides' runs of one workload cannot be compared:
// a run that lost operations or disagreed with the oracle measured some
// other program, and runs paired by position must have had the same
// seed and the same frozen sizes. "" when they can.
func invalid(a, b []*RunResult) string {
	for _, side := range []struct {
		name string
		runs []*RunResult
	}{{"A", a}, {"B", b}} {
		for i, r := range side.runs {
			if r.Failed > 0 || len(r.Mismatches) > 0 || !r.Correct {
				return fmt.Sprintf("%s run %d (seed %d): %d of %d operations failed, %d oracle mismatches",
					side.name, i+1, r.Seed, r.Failed, r.Attempted, len(r.Mismatches))
			}
		}
	}
	for i := 0; i < min(len(a), len(b)); i++ {
		if a[i].Seed != b[i].Seed || a[i].Seconds != b[i].Seconds || a[i].Short != b[i].Short {
			return fmt.Sprintf("pair %d: A ran seed %d seconds %d short %v, B seed %d seconds %d short %v",
				i+1, a[i].Seed, a[i].Seconds, a[i].Short, b[i].Seed, b[i].Seconds, b[i].Short)
		}
	}
	return ""
}

// compareFiles judges every workload x end-to-end metric of b against a,
// and each workload's own metrics (workloadMetrics) after them.
func compareFiles(a, b *ResultFile) []verdict {
	var out []verdict
	for _, w := range workloads {
		ra, rb := untraced(a, w.Name), untraced(b, w.Name)
		if why := invalid(ra, rb); why != "" {
			out = append(out, verdict{Workload: w.Name, Metric: "(runs)", Verdict: "INVALID", Why: why})
		}
		var failedA, failedB int
		for _, r := range ra {
			failedA += r.Failed
		}
		for _, r := range rb {
			failedB += r.Failed
		}
		values := func(runs []*RunResult, name string) []float64 {
			var xs []float64
			for _, r := range runs {
				for _, set := range []map[string]Metric{r.EndToEnd, r.Detail, r.PerLayer} {
					if m, ok := set[name]; ok {
						xs = append(xs, m.Value)
						break
					}
				}
			}
			return xs
		}
		for _, def := range append(append([]MetricDef(nil), endToEnd...), workloadMetrics[w.Name]...) {
			v := judge(def, values(ra, def.Name), values(rb, def.Name), failedB <= failedA)
			v.Workload = w.Name
			out = append(out, v)
		}
	}
	return out
}

func printVerdicts(w io.Writer, vs []verdict) (regressed, unresolved int) {
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "WORKLOAD\tMETRIC\tA median\tB median\tB worse by\tbound\tspread\truns\tB wins\tB loses\tVERDICT")
	for _, v := range vs {
		if v.Verdict == "INVALID" {
			fmt.Fprintf(tw, "%s\t%s\t\t\t\t\t\t\t\t\tINVALID: %s\n", v.Workload, v.Metric, v.Why)
			regressed++
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.0f%%\t%.2f%%\t%d/%d\t%d/%d\t%d/%d\t%s\n",
			v.Workload, v.Metric, v.MedA, v.MedB, v.Worse*100, v.Bound*100, v.Spread*100,
			len(v.A), len(v.B), v.Wins, v.Pairs, v.Losses, v.Pairs, v.Verdict)
		switch v.Verdict {
		case "REGRESSED", "missing":
			regressed++
		case "unresolved":
			unresolved++
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "%d rows: %d regressed, missing or invalid, %d unresolved (spread wider than the bound)\n", len(vs), regressed, unresolved)
	for _, v := range vs {
		if v.Verdict != "INVALID" && (len(v.A) < 2 || len(v.B) < 2) {
			fmt.Fprintln(w, "note: a side with a single run has no spread; 'unchanged' then only means the two runs are within the bound")
			break
		}
	}
	return regressed, unresolved
}

// runCompare is orfbench -compare. Without -repeats, a and b are result
// files. With it, they are two checkouts (the parent commit and the
// change); this binary, so identical benchmark code, runs every
// workload against each, N times, alternating which side goes first.
func runCompare(a, b string, repeats int, seed uint64) int {
	var fa, fb *ResultFile
	if repeats <= 0 {
		var err error
		if fa, err = readResultFile(a); err != nil {
			fatalf("%v", err)
		}
		if fb, err = readResultFile(b); err != nil {
			fatalf("%v", err)
		}
	} else {
		fa, fb = &ResultFile{}, &ResultFile{}
		sides := []struct {
			dir string
			rf  *ResultFile
		}{{a, fa}, {b, fb}}
		for i := 0; i < repeats; i++ {
			order := []int{0, 1}
			if i%2 == 1 {
				order = []int{1, 0}
			}
			for _, k := range order {
				for _, w := range workloads {
					fmt.Fprintf(os.Stderr, "pair %d/%d  %s  %s\n", i+1, repeats, sides[k].dir, w.Name)
					res, err := runIn(sides[k].dir, filepath.Join(sides[k].dir, ".bench_build"),
						w.Name, seed+uint64(i), false, false, io.Discard)
					if err != nil {
						fatalf("%s: %v", sides[k].dir, err)
					}
					sides[k].rf.Runs = append(sides[k].rf.Runs, res)
				}
			}
		}
		for _, s := range sides {
			path := filepath.Join(s.dir, "bench", "out", "compare.json")
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				fatalf("%v", err)
			}
			if err := writeResultFile(path, s.rf.Runs); err != nil {
				fatalf("%v", err)
			}
			fmt.Fprintf(os.Stderr, "runs written to %s\n", path)
		}
	}
	regressed, _ := printVerdicts(os.Stdout, compareFiles(fa, fb))
	if regressed > 0 {
		return 1
	}
	return 0
}
