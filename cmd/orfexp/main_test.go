package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExitCodes builds orfexp and checks that a bad invocation fails
// before any experiment runs, and that a figure CSV which cannot be
// written fails the run instead of being reported as written.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "orfexp")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(t *testing.T, wantExit int, args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, args...).CombinedOutput()
		code := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatalf("orfexp %v: %v", args, err)
		}
		if code != wantExit {
			t.Fatalf("orfexp %v: exit %d, want %d\n%s", args, code, wantExit, out)
		}
		return string(out)
	}

	t.Run("unknown experiment", func(t *testing.T) {
		out := run(t, 2, "-exp", "fig8")
		if !strings.Contains(out, "table1") || !strings.Contains(out, "horizon") {
			t.Errorf("unknown -exp did not list the valid ids:\n%s", out)
		}
	})

	t.Run("stray argument", func(t *testing.T) {
		if out := run(t, 2, "-exp", "table1", "stray"); strings.Contains(out, "TABLE1") {
			t.Errorf("a stray argument was rejected only after the experiment ran:\n%s", out)
		}
	})

	t.Run("unwritable csv", func(t *testing.T) {
		if _, err := os.Stat("/dev/full"); err != nil {
			t.Skip("no /dev/full on this host")
		}
		csvDir := filepath.Join(dir, "csv")
		if err := os.Mkdir(csvDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.Symlink("/dev/full", filepath.Join(csvDir, "ablation_replacement.csv")); err != nil {
			t.Fatal(err)
		}
		if out := run(t, 1, "-quick", "-exp", "ablation", "-csvdir", csvDir); strings.Contains(out, "series written") {
			t.Errorf("orfexp reported a CSV it failed to write:\n%s", out)
		}
	})
}
