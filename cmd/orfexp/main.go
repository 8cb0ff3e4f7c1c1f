// Command orfexp regenerates the tables and figures of the paper's
// evaluation section on the synthetic fleet.
//
// Usage:
//
//	orfexp -exp table3                 # one experiment
//	orfexp -exp all                    # everything
//	orfexp -exp fig2 -goodscale 0.05   # bigger fleet
//
// Experiments: table1 table2 table3 table4 fig2 fig3 fig4 fig5 fig6 fig7
// ablation drift horizon. Each prints the same rows/series the paper
// reports; absolute numbers come from the simulator, so shapes (who wins,
// by how much, where the curves bend) are the reproduction target, as
// recorded in EXPERIMENTS.md. An unknown -exp id or a stray argument
// exits 2 before any work; a -csvdir file that cannot be written exits 1.
package main

import (
	"bufio"
	"encoding/csv"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"orfdisk/internal/core"
	"orfdisk/internal/dataset"
	"orfdisk/internal/dtree"
	"orfdisk/internal/eval"
	"orfdisk/internal/forest"
	"orfdisk/internal/smart"
	"orfdisk/internal/svm"
)

type config struct {
	exp       string
	goodScale float64
	failScale float64
	seed      uint64
	reps      int
	trees     int
	quick     bool
	dataCSV   string // when set, build corpora from this CSV instead of the simulator
	csvDir    string // when set, also write each figure's series as CSV here
}

func main() {
	var cfg config
	var seed uint64
	flag.StringVar(&cfg.exp, "exp", "all", "experiment id: table1..table4, fig2..fig7, ablation, drift, horizon, all")
	flag.Float64Var(&cfg.goodScale, "goodscale", 0.02, "scale of the good-disk population vs Table 1")
	flag.Float64Var(&cfg.failScale, "failscale", 0.10, "scale of the failed-disk population vs Table 1")
	flag.Uint64Var(&seed, "seed", 20180813, "master random seed")
	flag.IntVar(&cfg.reps, "reps", 3, "repetitions for the hyper-parameter tables")
	flag.IntVar(&cfg.trees, "trees", 30, "ensemble size T")
	flag.BoolVar(&cfg.quick, "quick", false, "shrink everything for a fast smoke run")
	flag.StringVar(&cfg.dataCSV, "data", "", "Backblaze-format CSV to run on instead of the simulator (real field data)")
	flag.StringVar(&cfg.csvDir, "csvdir", "", "directory to write plot-ready CSVs of each figure's series")
	flag.Parse()
	cfg.seed = seed
	if cfg.quick {
		cfg.goodScale, cfg.failScale, cfg.reps, cfg.trees = 0.008, 0.05, 1, 15
	}

	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "unexpected arguments:", flag.Args())
		os.Exit(2)
	}
	ids := []string{"all"}
	for _, e := range experiments {
		ids = append(ids, e.id)
	}
	if !slices.Contains(ids, cfg.exp) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; valid: %s\n", cfg.exp, strings.Join(ids, " "))
		os.Exit(2)
	}

	for _, e := range experiments {
		if cfg.exp != "all" && cfg.exp != e.id {
			continue
		}
		start := time.Now()
		fmt.Printf("==================== %s ====================\n", strings.ToUpper(e.id))
		e.run(cfg)
		fmt.Printf("[%s done in %v]\n\n", e.id, time.Since(start).Round(time.Millisecond))
	}
}

// experiments lists every -exp id in the order -exp all runs them.
var experiments = []struct {
	id  string
	run func(config)
}{
	{"table1", table1},
	{"table2", table2},
	{"table3", table3},
	{"table4", table4},
	{"fig2", func(c config) { figConvergence(c, profileSTA(c), "Figure 2: FDR of ORF vs offline models, STA") }},
	{"fig3", func(c config) { figConvergence(c, profileSTB(c), "Figure 3: FDR of ORF vs offline models, STB") }},
	{"fig4", func(c config) {
		figLongTerm(c, profileSTA(c), 6, "FAR", "Figure 4: FARs of ORF and monthly updated RFs, STA")
	}},
	{"fig5", func(c config) {
		figLongTerm(c, profileSTB(c), 4, "FAR", "Figure 5: FARs of ORF and monthly updated RFs, STB")
	}},
	{"fig6", func(c config) {
		figLongTerm(c, profileSTA(c), 6, "FDR", "Figure 6: FDRs of ORF and monthly updated RFs, STA")
	}},
	{"fig7", func(c config) {
		figLongTerm(c, profileSTB(c), 4, "FDR", "Figure 7: FDRs of ORF and monthly updated RFs, STB")
	}},
	{"ablation", ablation},
	{"drift", drift},
	{"horizon", horizon},
}

func profileSTA(c config) dataset.Profile {
	p := dataset.STA(1)
	p.GoodDisks = scale(34535, c.goodScale)
	p.FailedDisks = scale(1996, c.failScale)
	if c.quick {
		p.Months = 21
	}
	return p
}

func profileSTB(c config) dataset.Profile {
	p := dataset.STB(1)
	p.GoodDisks = scale(2898, c.goodScale*3) // STB is a small population
	p.FailedDisks = scale(1357, c.failScale)
	return p
}

func scale(n int, s float64) int {
	v := int(float64(n)*s + 0.5)
	if v < 10 {
		v = 10
	}
	return v
}

func buildCorpus(c config, p dataset.Profile) *eval.Corpus {
	var corpus *eval.Corpus
	var err error
	if c.dataCSV != "" {
		var f *os.File
		f, err = os.Open(c.dataCSV)
		if err == nil {
			defer f.Close()
			corpus, err = eval.BuildCorpusFromCSV(bufio.NewReaderSize(f, 1<<20),
				eval.SampleOptions{Seed: c.seed})
		}
	} else {
		corpus, err = eval.BuildCorpus(eval.Options{Profile: p, Seed: c.seed})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "corpus:", err)
		os.Exit(1)
	}
	fmt.Println(corpus)
	return corpus
}

func table1(c config) {
	for _, p := range []dataset.Profile{profileSTA(c), profileSTB(c)} {
		g, err := dataset.New(p, c.seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(dataset.Table1(g))
	}
	fmt.Println("(populations are Table 1 scaled by -goodscale/-failscale)")
}

func table2(c config) {
	p := profileSTA(c)
	fs, err := eval.SelectFeatures(p, c.seed, eval.FeatureSelectOptions{Trees: c.trees})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("rank-sum screen kept %d of %d candidate features\n", len(fs.Kept), smart.NumFeatures())
	fmt.Printf("redundancy elimination selected %d features (paper: 19)\n\n", len(fs.Selected))
	fmt.Printf("%-4s %-34s %-10s %s\n", "Rank", "Attribute", "Import.", "Selected kinds")
	for _, a := range fs.AttrRank {
		kinds := []string{}
		for _, f := range fs.Selected {
			cf := smart.Catalog()[f]
			if cf.Attr.ID == a.Attr.ID {
				kinds = append(kinds, cf.Kind.String())
			}
		}
		fmt.Printf("%-4d #%d %-30s %-10.4f %s\n",
			a.Rank, a.Attr.ID, a.Attr.Name, a.Importance, strings.Join(kinds, "+"))
	}
	fmt.Println("\npaper Table 2 top ranks: 187, 197, 5, 184, 9, 193, 7, 183, 198, 189, 12, 199, 1")
}

// corpusProfiles returns the fleets an experiment iterates: both paper
// datasets for simulator runs, or a single pass when -data supplies one
// CSV.
func corpusProfiles(c config) []dataset.Profile {
	if c.dataCSV != "" {
		return []dataset.Profile{profileSTA(c)}
	}
	return []dataset.Profile{profileSTA(c), profileSTB(c)}
}

func table3(c config) {
	lambdas := []float64{1, 2, 3, 4, 5, 0}
	for _, p := range corpusProfiles(c) {
		corpus := buildCorpus(c, p)
		rows := eval.Table3(corpus, lambdas, c.reps, forest.Config{Trees: c.trees, MinLeafSize: 5}, c.seed)
		fmt.Printf("\nImpact of λ (NegSampleRatio) on offline RF — %s\n", corpus.Name)
		fmt.Printf("%-6s %-18s %-18s\n", "λ", "FDR(%)", "FAR(%)")
		for _, r := range rows {
			fmt.Printf("%-6s %-18s %-18s\n", r.Param, r.FDR, r.FAR)
		}
	}
}

func table4(c config) {
	lambdaNs := []float64{0.01, 0.02, 0.03, 0.05, 0.10, 1.00}
	for _, p := range corpusProfiles(c) {
		corpus := buildCorpus(c, p)
		cfg := core.Config{Trees: c.trees, LambdaPos: 1}
		rows := eval.Table4(corpus, lambdaNs, c.reps, cfg, c.seed)
		fmt.Printf("\nImpact of λn on ORF (λp=1) — %s\n", corpus.Name)
		fmt.Printf("%-6s %-18s %-18s\n", "λn", "FDR(%)", "FAR(%)")
		for _, r := range rows {
			fmt.Printf("%-6s %-18s %-18s\n", r.Param, r.FDR, r.FAR)
		}
	}
}

func learners(c config) []eval.OfflineLearner {
	return []eval.OfflineLearner{
		eval.RFLearner{Lambda: 3, Config: forest.Config{Trees: c.trees, MinLeafSize: 5}},
		eval.DTLearner{Lambda: 3, Config: dtree.Config{MaxSplits: 100, MinLeafSize: 10, Smoothing: 1}},
		eval.SVMLearner{Lambda: 3, Config: svm.Config{C: 10}, MaxRows: 1500},
	}
}

func figConvergence(c config, p dataset.Profile, title string) {
	corpus := buildCorpus(c, p)
	series := eval.MonthlyConvergence(corpus, eval.MonthlyOptions{
		StartMonth: 3,
		TargetFAR:  1.0,
		ORFConfig:  core.Config{Trees: c.trees},
		Learners:   learners(c),
		Seed:       c.seed,
	})
	fmt.Println("\n" + title + " (all points at FAR ≤ 1.0%)")
	printSeries(series, "FDR")
	writeSeriesCSV(c, slug(title), series)
}

// slug converts a figure title into a file name.
func slug(title string) string {
	out := make([]rune, 0, len(title))
	for _, r := range strings.ToLower(title) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			out = append(out, r)
		case r == ' ' || r == ':' || r == ',':
			if len(out) > 0 && out[len(out)-1] != '_' {
				out = append(out, '_')
			}
		}
	}
	return strings.Trim(string(out), "_")
}

func figLongTerm(c config, p dataset.Profile, deploy int, metric, title string) {
	// Long-term metrics are per-month: triple the failed population so
	// every month contains enough failure events to measure an FDR.
	p.FailedDisks *= 3
	corpus := buildCorpus(c, p)
	series := eval.LongTerm(corpus, eval.LongTermOptions{
		DeployMonth: deploy,
		TargetFAR:   1.0,
		RF:          eval.RFLearner{Lambda: 3, Config: forest.Config{Trees: c.trees, MinLeafSize: 5}},
		ORFConfig:   core.Config{Trees: c.trees},
		Seed:        c.seed,
	})
	fmt.Println("\n" + title)
	printSeries(series, metric)
	writeSeriesCSV(c, slug(title), series)
}

// horizon sweeps the prediction window — the paper fixes 7 days "for
// the sake of simplicity"; this quantifies the choice.
func horizon(c config) {
	corpus := buildCorpus(c, profileSTA(c))
	rows := eval.HorizonSweep(corpus, []int{1, 3, 7, 14, 30}, 1.0,
		eval.RFLearner{Lambda: 3, Config: forest.Config{Trees: c.trees, MinLeafSize: 5}},
		core.Config{Trees: c.trees}, c.seed)
	fmt.Printf("\nPrediction-horizon sweep (operating points near FAR 1%%)\n")
	fmt.Printf("%-8s %-10s %-10s %-10s %-10s %-10s\n",
		"horizon", "RF FDR%", "RF FAR%", "ORF FDR%", "ORF FAR%", "train pos")
	for _, r := range rows {
		fmt.Printf("%-8d %-10.2f %-10.2f %-10.2f %-10.2f %-10d\n",
			r.Horizon, r.RFFDR, r.RFFAR, r.ORFFDR, r.ORFFAR, r.TrainPositives)
	}
	fmt.Println("\n(the paper's 7-day window balances label volume against label purity)")
}

// drift reproduces the paper's section 1 preliminary experiment: the
// healthy-population distribution of cumulative SMART attributes moves
// over calendar time, which is the root cause of model aging.
func drift(c config) {
	corpus := buildCorpus(c, profileSTA(c))
	ref := 1
	probe := corpus.Months() - 2
	if probe <= ref {
		probe = ref + 1
	}
	rows := eval.DriftReport(corpus, ref, probe)
	fmt.Printf("\nHealthy-population drift, month %d vs month %d (KS test, scaled features)\n", ref+1, probe+1)
	fmt.Printf("%-30s %-10s %-10s %-12s %-12s %s\n",
		"feature", "KS-D", "p-value", "median(ref)", "median(new)", "cumulative?")
	for i, r := range rows {
		if i == 12 {
			break
		}
		cum := ""
		if r.Feature.Attr.Cumulative {
			cum = "yes"
		}
		fmt.Printf("%-30s %-10.3f %-10.2g %-12.4f %-12.4f %s\n",
			r.Feature.Name(), r.KS.D, r.KS.PValue, r.RefMedian, r.NewMedian, cum)
	}
	fmt.Println("\ncumulative attributes dominate the top of the list — the paper's stated")
	fmt.Println("root cause: an offline model's thresholds go stale as these grow fleet-wide.")
}

func ablation(c config) {
	p := profileSTA(c)
	p.FailedDisks *= 3
	corpus := buildCorpus(c, p)
	series := eval.AblationReplacement(corpus, 6, 1.0, core.Config{Trees: c.trees}, c.seed)
	fmt.Println("\nAblation: OOBE-driven tree replacement on/off, STA long-term FAR")
	printSeries(series, "FAR")
	fmt.Println()
	printSeries(series, "FDR")
	writeSeriesCSV(c, "ablation_replacement", series)
}

// writeSeriesCSV writes a figure's series as a plot-ready CSV
// (month,series,fdr,far) when -csvdir is set, and exits 1 if the file
// cannot be written in full.
func writeSeriesCSV(c config, name string, series []eval.Series) {
	if c.csvDir == "" {
		return
	}
	path := filepath.Join(c.csvDir, name+".csv")
	if err := writeCSV(path, series); err != nil {
		fmt.Fprintln(os.Stderr, "csvdir:", err)
		os.Exit(1)
	}
	fmt.Printf("(series written to %s)\n", path)
}

func writeCSV(path string, series []eval.Series) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	// A failed Write leaves its error in the writer; Error reports it
	// after the final Flush.
	w.Write([]string{"month", "series", "fdr_pct", "far_pct"})
	for _, s := range series {
		for i, m := range s.Months {
			w.Write([]string{
				strconv.Itoa(m), s.Name,
				strconv.FormatFloat(s.FDR[i], 'f', 4, 64),
				strconv.FormatFloat(s.FAR[i], 'f', 4, 64),
			})
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSeries renders per-month values, one model per row block.
func printSeries(series []eval.Series, metric string) {
	if len(series) == 0 {
		return
	}
	fmt.Printf("%-20s", "month:")
	for _, m := range series[0].Months {
		fmt.Printf("%7d", m)
	}
	fmt.Println()
	for _, s := range series {
		vals := s.FDR
		if metric == "FAR" {
			vals = s.FAR
		}
		fmt.Printf("%-20s", s.Name+" "+metric+"%:")
		for _, v := range vals {
			if math.IsNaN(v) {
				fmt.Printf("%7s", "-")
			} else {
				fmt.Printf("%7.2f", v)
			}
		}
		fmt.Println()
	}
}
