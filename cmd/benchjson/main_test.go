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
