package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGateReportsBothSidesOfABaselineMismatch: a benchmark the baseline
// lacks must point at the baseline file that was passed (not at some
// other family's make target), and a baseline entry the run no longer
// produces must be called out — otherwise a deleted benchmark lingers in
// its BENCH_*.json forever. Neither fails the gate; -match scopes both.
func TestGateReportsBothSidesOfABaselineMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_snapshot.json")
	buf, err := json.Marshal(map[string]result{
		"BenchmarkKept/smoke":    {NsPerOp: 100},
		"BenchmarkDeleted/smoke": {NsPerOp: 100},
		"BenchmarkDeleted/full":  {NsPerOp: 100}, // outside -match: not this run's business
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := map[string]result{
		"BenchmarkKept/smoke": {NsPerOp: 110},
		"BenchmarkNew/smoke":  {NsPerOp: 5},
		"BenchmarkNew/full":   {NsPerOp: 5},
	}
	var out bytes.Buffer
	if code := gate(&out, fresh, path, "/smoke$", 0.25); code != 0 {
		t.Fatalf("gate = %d, want 0; output:\n%s", code, out.String())
	}
	var added, gone string
	for _, line := range strings.Split(out.String(), "\n") {
		switch {
		case strings.Contains(line, "BenchmarkNew/smoke"):
			added = line
		case strings.Contains(line, "BenchmarkDeleted/smoke"):
			gone = line
		}
	}
	if !strings.Contains(added, "not in baseline "+path) || strings.Contains(added, "make bench-predict") {
		t.Errorf("hint for a benchmark missing from the baseline: %q", added)
	}
	if !strings.Contains(gone, "not in this run") || !strings.Contains(gone, path) {
		t.Errorf("warning for a baseline entry the run lacks: %q", gone)
	}
	for _, name := range []string{"BenchmarkNew/full", "BenchmarkDeleted/full"} {
		if strings.Contains(out.String(), name) {
			t.Errorf("%s is outside -match but was reported:\n%s", name, out.String())
		}
	}

	// A regression still fails, whatever else is reported.
	fresh["BenchmarkKept/smoke"] = result{NsPerOp: 200}
	if code := gate(&out, fresh, path, "/smoke$", 0.25); code != 1 {
		t.Fatalf("gate = %d on a 2x regression, want 1", code)
	}
}

// TestHostStampRecordedAndSkipped covers both directions of the reserved
// "_host" key: recording keeps the header lines `go test` prints and the
// GOMAXPROCS suffix it strips from the names, and a baseline that
// carries the key gates exactly like one that does not.
func TestHostStampRecordedAndSkipped(t *testing.T) {
	const run = `goos: linux
goarch: amd64
pkg: orfdisk
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkKept/smoke-2         	 1000000	      1405 ns/op	       1 B/op	       0 allocs/op
BenchmarkKept/smoke-2         	 1000000	      1300 ns/op	       1 B/op	       0 allocs/op
BenchmarkKept/batch64-2       	  500000	      2405 ns/op
PASS
`
	var echo bytes.Buffer
	merged, host, err := read(strings.NewReader(run), &echo)
	if err != nil {
		t.Fatal(err)
	}
	if echo.String() != run {
		t.Errorf("input not passed through:\n%s", echo.String())
	}
	if got := merged["BenchmarkKept/smoke"]; got.NsPerOp != 1300 || got.Runs != 2 || len(merged) != 2 {
		t.Errorf("merged = %+v", merged)
	}
	want := hostStamp{GOOS: "linux", GOARCH: "amd64", CPU: "Intel(R) Xeon(R) Processor @ 2.10GHz", GOMAXPROCS: 2, Go: host.Go}
	if host != want || !strings.HasPrefix(host.Go, "go") {
		t.Errorf("host stamp %+v, want %+v with a Go version", host, want)
	}
	// One core: testing appends no suffix, and names ending in digits stay whole.
	if _, host, err := read(strings.NewReader("BenchmarkKept/batch64 \t 5\t 10 ns/op\n"), &echo); err != nil || host.GOMAXPROCS != 1 {
		t.Errorf("suffix-less run: GOMAXPROCS %d, err %v", host.GOMAXPROCS, err)
	}

	path := filepath.Join(t.TempDir(), "BENCH.json")
	buf, err := json.Marshal(map[string]any{hostKey: host, "BenchmarkKept/smoke": result{NsPerOp: 1300}, "BenchmarkKept/batch64": result{NsPerOp: 2405}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := gate(&out, merged, path, "", 0.25); code != 0 || strings.Contains(out.String(), hostKey) {
		t.Errorf("gate against a stamped baseline = %d, want 0 and no word about %s:\n%s", code, hostKey, out.String())
	}
}
