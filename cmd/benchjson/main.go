// Command benchjson converts `go test -bench` output on stdin into a
// JSON perf baseline: benchmark name -> {ns_per_op, b_per_op,
// allocs_per_op, runs}. With -count>1 repetitions it records the
// minimum per metric — the least-interfered-with run is the best
// estimate of the code's cost on a noisy CI box. Each bench family
// writes its own baseline file via -o so refreshing one never clobbers
// another: `make bench-ingest` records BENCH_ingest.json, `make
// bench-predict` records the read-path baseline in BENCH_predict.json.
//
//	go test . -run '^$' -bench Ingest -benchmem -count=5 | benchjson -o BENCH_ingest.json
//
// With -check it becomes a regression gate instead of a recorder: the
// fresh results on stdin are compared against the committed baseline
// and the exit status is non-zero when any compared benchmark runs more
// than -tol slower (ns/op) or allocates more than the baseline. -match
// restricts the comparison to a name subset (e.g. the '/smoke/' mode
// entries recorded on the same forest size the smoke run uses):
//
//	go test ... -short -bench ... | benchjson -check BENCH_predict.json -match '/smoke/' -tol 0.25
//
// A recorded file also says where its numbers come from: the reserved
// "_host" key keeps the goos/goarch/cpu header lines `go test` prints,
// the GOMAXPROCS the "-N" name suffix gave away (stripped from the
// names, so baselines diff across machines) and the Go version. -check
// never compares it.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

type result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"b_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Runs        int     `json:"runs"`
	// Extra holds custom b.ReportMetric units (rows/s, snap_bytes, ...)
	// so domain numbers land in the baseline next to the timings. They
	// are recorded, never gated.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// hostKey is the one baseline key that is not a benchmark.
const hostKey = "_host"

// hostStamp is what a baseline file records about the machine and
// toolchain that produced it.
type hostStamp struct {
	GOOS       string `json:"goos,omitempty"`
	GOARCH     string `json:"goarch,omitempty"`
	CPU        string `json:"cpu,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

// benchLine matches one result line: name, iteration count, then
// "value unit" metric pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.*)$`)

// cpuSuffix is the "-8"-style GOMAXPROCS tag the testing package
// appends to every benchmark name when running with more than one CPU.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	check := flag.String("check", "", "baseline JSON to gate against instead of recording")
	match := flag.String("match", "", "regexp restricting which benchmarks -check compares")
	tol := flag.Float64("tol", 0.25, "allowed fractional ns/op regression in -check mode")
	flag.Parse()

	merged, host, err := read(os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	if *check != "" {
		os.Exit(gate(os.Stderr, merged, *check, *match, *tol))
	}

	file := map[string]any{hostKey: host}
	for name, r := range merged {
		file[name] = r
	}
	buf, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(merged), *out)
}

// read parses `go test -bench` output from in (echoing it to echo so
// progress stays visible) into per-benchmark minima and the host stamp.
func read(in io.Reader, echo io.Writer) (map[string]result, hostStamp, error) {
	host := hostStamp{GOMAXPROCS: 1, Go: runtime.Version()}
	raw := map[string][]result{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		if key, v, ok := strings.Cut(line, ": "); ok {
			switch key {
			case "goos":
				host.GOOS = v
			case "goarch":
				host.GOARCH = v
			case "cpu":
				host.CPU = v
			}
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		r := result{NsPerOp: -1, BytesPerOp: -1, AllocsPerOp: -1}
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			case "MB/s":
				// testing's throughput column; derivable from ns/op.
			default:
				if r.Extra == nil {
					r.Extra = map[string]float64{}
				}
				r.Extra[fields[i+1]] = v
			}
		}
		if r.NsPerOp < 0 {
			continue
		}
		raw[m[1]] = append(raw[m[1]], r)
	}
	if err := sc.Err(); err != nil {
		return nil, host, err
	}
	if len(raw) == 0 {
		return nil, host, errors.New("no benchmark lines on stdin")
	}

	merged := map[string]result{}
	for name, runs := range raw {
		min := runs[0]
		for _, r := range runs[1:] {
			if r.NsPerOp < min.NsPerOp {
				min.NsPerOp = r.NsPerOp
			}
			if r.BytesPerOp < min.BytesPerOp {
				min.BytesPerOp = r.BytesPerOp
			}
			if r.AllocsPerOp < min.AllocsPerOp {
				min.AllocsPerOp = r.AllocsPerOp
			}
			for k, v := range r.Extra {
				if min.Extra == nil {
					min.Extra = map[string]float64{}
				}
				if cur, ok := min.Extra[k]; !ok || v > cur {
					// Rates (rows/s, MB/s): the best run is the max;
					// sizes (snap_bytes) are run-invariant either way.
					min.Extra[k] = v
				}
			}
		}
		min.Runs = len(runs)
		// Metrics absent from the input (no -benchmem) record as zero,
		// not as the -1 accumulator sentinel.
		if min.BytesPerOp < 0 {
			min.BytesPerOp = 0
		}
		if min.AllocsPerOp < 0 {
			min.AllocsPerOp = 0
		}
		stripped := stripCPU(name, raw)
		if n, err := strconv.Atoi(strings.TrimPrefix(name, stripped+"-")); err == nil && stripped != name {
			host.GOMAXPROCS = n
		}
		merged[stripped] = min
	}
	return merged, host, nil
}

// gate compares fresh results against a committed baseline, reports to
// w and returns the process exit code: 1 on any ns/op regression beyond
// tol, any allocs/op increase, or an empty comparison (a renamed
// benchmark or a too-narrow -match must fail loudly, not gate nothing).
// Benchmarks present on one side only are warned about but don't fail
// the gate — the baseline legitimately lags when a benchmark is first
// added, and a deleted benchmark's entry must be seen to be removed.
func gate(w io.Writer, fresh map[string]result, baselinePath, match string, tol float64) int {
	buf, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintln(w, "benchjson:", err)
		return 1
	}
	baseline := map[string]result{}
	if err := json.Unmarshal(buf, &baseline); err != nil {
		fmt.Fprintf(w, "benchjson: %s: %v\n", baselinePath, err)
		return 1
	}
	delete(baseline, hostKey) // where the baseline was recorded, not a benchmark
	var sel *regexp.Regexp
	if match != "" {
		if sel, err = regexp.Compile(match); err != nil {
			fmt.Fprintln(w, "benchjson:", err)
			return 1
		}
	}
	selected := func(all map[string]result) []string {
		names := make([]string, 0, len(all))
		for name := range all {
			if sel == nil || sel.MatchString(name) {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		return names
	}
	compared, failed := 0, 0
	for _, name := range selected(fresh) {
		got := fresh[name]
		base, ok := baseline[name]
		if !ok {
			fmt.Fprintf(w, "benchjson: %s: not in baseline %s (re-record that file to gate it)\n",
				name, baselinePath)
			continue
		}
		compared++
		limit := base.NsPerOp * (1 + tol)
		switch {
		case got.NsPerOp > limit:
			fmt.Fprintf(w, "benchjson: FAIL %s: %.0f ns/op, baseline %.0f (limit %.0f at tol %.2f)\n",
				name, got.NsPerOp, base.NsPerOp, limit, tol)
			failed++
		case got.AllocsPerOp > base.AllocsPerOp:
			fmt.Fprintf(w, "benchjson: FAIL %s: %.0f allocs/op, baseline %.0f\n",
				name, got.AllocsPerOp, base.AllocsPerOp)
			failed++
		default:
			fmt.Fprintf(w, "benchjson: ok   %s: %.0f ns/op vs baseline %.0f\n",
				name, got.NsPerOp, base.NsPerOp)
		}
	}
	for _, name := range selected(baseline) {
		if _, ok := fresh[name]; !ok {
			fmt.Fprintf(w, "benchjson: %s: in baseline %s but not in this run (deleted or renamed? drop the entry)\n",
				name, baselinePath)
		}
	}
	if compared == 0 {
		fmt.Fprintf(w, "benchjson: nothing compared against %s (match %q)\n", baselinePath, match)
		return 1
	}
	if failed > 0 {
		fmt.Fprintf(w, "benchjson: %d of %d compared benchmarks regressed\n", failed, compared)
		return 1
	}
	fmt.Fprintf(w, "benchjson: %d benchmarks within %.0f%% of %s\n", compared, tol*100, baselinePath)
	return 0
}

// stripCPU removes the testing package's GOMAXPROCS suffix, but only
// when every recorded name carries the same one — a name that merely
// ends in digits (a sub-benchmark like "batch64" has no dash, but be
// safe) must survive unchanged so baselines diff cleanly across
// machines with different core counts.
func stripCPU(name string, all map[string][]result) string {
	suf := cpuSuffix.FindString(name)
	if suf == "" {
		return name
	}
	for n := range all {
		if !strings.HasSuffix(n, suf) {
			return name
		}
	}
	return strings.TrimSuffix(name, suf)
}
