// Command orfmon is the online monitoring daemon of Algorithm 2: it
// consumes a chronological stream of Backblaze-format SMART snapshots
// (stdin or a file), keeps a per-disk labeling queue, updates the online
// random forest with every released label, and prints an alarm line for
// every disk whose live prediction crosses the risk threshold.
//
// Usage:
//
//	orfgen -profile STA -scale 0.005 | orfmon
//	orfmon -in fleet.csv -threshold 0.6 -v
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"orfdisk"
	"orfdisk/internal/smart"
)

func main() {
	var (
		in        = flag.String("in", "", "input CSV (default stdin)")
		threshold = flag.Float64("threshold", 0.5, "alarm probability threshold")
		trees     = flag.Int("trees", 30, "ensemble size T")
		lambdaN   = flag.Float64("lambdan", 0.02, "negative-class Poisson rate λn")
		verbose   = flag.Bool("v", false, "print daily forest statistics")
		loadPath  = flag.String("load", "", "resume from a model snapshot written by -save")
		savePath  = flag.String("save", "", "write a model snapshot here at end of stream")
	)
	flag.Parse()

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "orfmon:", err)
			os.Exit(1)
		}
		defer f.Close()
		r = f
	}
	cr, err := smart.NewReader(bufio.NewReaderSize(r, 1<<20))
	if err != nil {
		fmt.Fprintln(os.Stderr, "orfmon:", err)
		os.Exit(1)
	}

	var pred *orfdisk.Predictor
	if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "orfmon:", err)
			os.Exit(1)
		}
		pred, err = orfdisk.LoadPredictor(bufio.NewReader(f))
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "orfmon:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "orfmon: resumed model with %d prior updates\n",
			pred.Stats().Updates)
	} else {
		pred = orfdisk.NewPredictor(orfdisk.Config{
			Threshold: *threshold,
			ORF:       orfdisk.ORFConfig{Trees: *trees, LambdaNeg: *lambdaN},
		})
	}

	alarmed := map[string]bool{} // suppress repeated alarms per disk
	var samples, alarms, failures, caught int
	lastDay := -1
	for {
		s, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "orfmon:", err)
			os.Exit(1)
		}
		if *verbose && s.Day != lastDay {
			st := pred.Stats()
			fmt.Printf("# day %d: %d disks tracked, %d updates (%d pos), %d nodes, %d trees replaced\n",
				s.Day, pred.TrackedDisks(), st.Updates, st.PosSeen, st.Nodes, st.Replaced)
			lastDay = s.Day
		}
		samples++
		p, err := pred.Ingest(orfdisk.Observation{
			Serial: s.Serial, Day: s.Day, Failed: s.Failure, Values: s.Values,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "orfmon:", err)
			os.Exit(1)
		}
		switch {
		case p.Final:
			failures++
			if alarmed[s.Serial] {
				caught++
			}
			fmt.Printf("FAILED  day=%-5d disk=%s (alarmed before failure: %v)\n",
				s.Day, s.Serial, alarmed[s.Serial])
			delete(alarmed, s.Serial)
		case p.Risky && !alarmed[s.Serial]:
			alarms++
			alarmed[s.Serial] = true
			fmt.Printf("ALARM   day=%-5d disk=%s score=%.3f  -> recommend immediate data migration\n",
				s.Day, s.Serial, p.Score)
		}
	}
	st := pred.Stats()
	fmt.Printf("\n--- orfmon summary ---\n")
	fmt.Printf("samples processed   %d\n", samples)
	fmt.Printf("alarms raised       %d\n", alarms)
	fmt.Printf("failures observed   %d (alarmed beforehand: %d)\n", failures, caught)
	fmt.Printf("model updates       %d (%d positive / %d negative)\n",
		st.Updates, st.PosSeen, st.NegSeen)
	fmt.Printf("forest              %d nodes, %d leaves, %d trees replaced\n",
		st.Nodes, st.Leaves, st.Replaced)
	if top := pred.FeatureImportance(); len(top) > 0 {
		fmt.Printf("top failure signals ")
		for i, f := range top {
			if i == 3 {
				break
			}
			if i > 0 {
				fmt.Print(", ")
			}
			fmt.Printf("%s (%.0f%%)", f.Label, 100*f.Importance)
		}
		fmt.Println()
	}

	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err == nil {
			bw := bufio.NewWriter(f)
			if err = pred.SaveModel(bw); err == nil {
				err = bw.Flush()
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "orfmon:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "orfmon: model snapshot written to %s\n", *savePath)
	}
}
