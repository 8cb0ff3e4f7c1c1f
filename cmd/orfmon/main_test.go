package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"orfdisk"
	"orfdisk/internal/smart"
)

// bin holds the orfmon and orfgen binaries TestMain builds.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "orfmon-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = dir
	code := 1
	if err := build(); err != nil {
		fmt.Fprintln(os.Stderr, err)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

func build() error {
	for name, pkg := range map[string]string{"orfmon": ".", "orfgen": "orfdisk/cmd/orfgen"} {
		if out, err := exec.Command("go", "build", "-o", filepath.Join(bin, name), pkg).CombinedOutput(); err != nil {
			return fmt.Errorf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	return nil
}

// fleet writes orfgen's four-month fleet at scale 0.005 for profile
// (STA: one drive model, 20,893 rows; ALL: two, 22,871) and returns its
// path.
func fleet(t *testing.T, profile string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), profile+".csv")
	cmd := exec.Command(filepath.Join(bin, "orfgen"), "-profile", profile, "-scale", "0.005", "-months", "4", "-o", path)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("orfgen: %v\n%s", err, out)
	}
	return path
}

// splitAt writes the rows of the CSV at path dated before date, and the
// rest, to two CSVs with its header, and returns their paths.
func splitAt(t *testing.T, path, date string) (before, after string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	head, rows, _ := bytes.Cut(b, []byte("\n"))
	head = append(head, '\n')
	parts := [2][]byte{head, append([]byte(nil), head...)}
	for _, row := range bytes.SplitAfter(rows, []byte("\n")) {
		if len(row) > 0 {
			k := 0
			if string(row[:len(date)]) >= date {
				k = 1
			}
			parts[k] = append(parts[k], row...)
		}
	}
	if len(parts[0]) == len(head) || len(parts[1]) == len(head) {
		t.Fatalf("%s does not split at %s", path, date)
	}
	dir := t.TempDir()
	before, after = filepath.Join(dir, "before.csv"), filepath.Join(dir, "after.csv")
	for i, p := range []string{before, after} {
		if err := os.WriteFile(p, parts[i], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return before, after
}

// orfmon runs the binary and returns its stdout, failing the test on a
// non-zero exit.
func orfmon(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(filepath.Join(bin, "orfmon"), args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("orfmon %v: %v\n%s", args, err, stderr.Bytes())
	}
	return stdout.String()
}

// dumps opens an engine on dir and returns every model's DumpModel.
func dumps(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	eng, err := orfdisk.NewEngine(orfdisk.EngineConfig{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	out := map[string][]byte{}
	for _, model := range eng.Models() {
		var buf bytes.Buffer
		if err := eng.DumpModel(model, &buf); err != nil {
			t.Fatal(err)
		}
		out[model] = buf.Bytes()
	}
	return out
}

func sameDumps(t *testing.T, got, want map[string][]byte) {
	t.Helper()
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("%d models, want %d (> 0)", len(got), len(want))
	}
	for model, w := range want {
		if !bytes.Equal(got[model], w) {
			t.Errorf("model %s: DumpModel differs from the uninterrupted run's", model)
		}
	}
}

func pinned(t *testing.T, name, out, want string) {
	t.Helper()
	if sum := sha256.Sum256([]byte(out)); hex.EncodeToString(sum[:]) != want {
		t.Errorf("%s: stdout has SHA-256 %x, the previous release printed %s:\n%s", name, sum, want, out)
	}
}

// TestStdoutPinned: on a one-model stream orfmon prints, byte for byte,
// what the previous release's orfmon printed over its one bare
// Predictor (the SHA-256 of its stdout), with and without -v.
func TestStdoutPinned(t *testing.T) {
	in := fleet(t, "STA")
	out := orfmon(t, "-threshold", "0.3", "-in", in)
	if !strings.Contains(out, "ALARM") || !strings.Contains(out, "alarmed before failure: true") {
		t.Fatalf("the stream raises no alarm before a failure:\n%s", out)
	}
	pinned(t, "plain", out, "438140a21e1e41c42de127ba781f255660f783297aa886f5bc28fd1011e3bd96")
	pinned(t, "-v", orfmon(t, "-threshold", "0.3", "-v", "-in", in),
		"103affa838b9801ee9898d8ba2a3256ffd525347fc8fb3cf8582f1e5a46c90e0")
}

// TestLinesMatchPerModelEngine: on a two-model stream every ALARM and
// FAILED line is what a memory-only engine per drive model, fed that
// model's rows alone in IngestBatch calls of its own size, predicts for
// the row, read by the encoding/csv reader.
func TestLinesMatchPerModelEngine(t *testing.T) {
	in := fleet(t, "ALL")
	var got []string
	for _, line := range strings.Split(orfmon(t, "-threshold", "0.3", "-in", in), "\n") {
		if strings.HasPrefix(line, "ALARM") || strings.HasPrefix(line, "FAILED") {
			got = append(got, line)
		}
	}

	f, err := os.Open(in)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cr, err := smart.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := cr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	byModel := map[string][]orfdisk.FleetObservation{}
	for _, s := range rows {
		byModel[s.Model] = append(byModel[s.Model], orfdisk.FleetObservation{Model: s.Model, Observation: orfdisk.Observation{
			Serial: s.Serial, Day: s.Day, Failed: s.Failure, Values: s.Values,
		}})
	}
	preds := map[string][]orfdisk.Prediction{}
	for model, obs := range byModel {
		eng, err := orfdisk.NewEngine(orfdisk.EngineConfig{Predictor: orfdisk.Config{
			Threshold: 0.3, ORF: orfdisk.ORFConfig{Trees: 30, LambdaNeg: 0.02},
		}})
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(obs); lo += 500 {
			for _, r := range eng.IngestBatch(obs[lo:min(lo+500, len(obs))]) {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
				preds[model] = append(preds[model], r.Prediction)
			}
		}
		eng.Close()
	}
	if len(preds) != 2 {
		t.Fatalf("the stream holds %d drive models, want 2", len(preds))
	}

	var want []string
	alarmed, next, linesOf := map[string]bool{}, map[string]int{}, map[string]int{}
	for _, s := range rows {
		p := preds[s.Model][next[s.Model]]
		next[s.Model]++
		switch {
		case p.Final:
			want = append(want, fmt.Sprintf("FAILED  day=%-5d disk=%s (alarmed before failure: %v)", s.Day, s.Serial, alarmed[s.Serial]))
			delete(alarmed, s.Serial)
		case p.Risky && !alarmed[s.Serial]:
			alarmed[s.Serial] = true
			want = append(want, fmt.Sprintf("ALARM   day=%-5d disk=%s score=%.3f  -> recommend immediate data migration", s.Day, s.Serial, p.Score))
		default:
			continue
		}
		linesOf[s.Model]++
	}
	if len(linesOf) != 2 {
		t.Fatalf("lines for %v, want both drive models", linesOf)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("orfmon printed\n%s\nthe per-model engines predict\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestDataResume: a run split across two -data invocations leaves every
// model in the state an uninterrupted run leaves.
func TestDataResume(t *testing.T) {
	in := fleet(t, "ALL")
	first, second := splitAt(t, in, "2013-06-08")
	whole, split := t.TempDir(), t.TempDir()
	orfmon(t, "-data", whole, "-in", in)
	orfmon(t, "-data", split, "-in", first)
	orfmon(t, "-data", split, "-in", second)
	sameDumps(t, dumps(t, split), dumps(t, whole))
}

// TestExitCodes: a data directory the engine refuses to open, and a row
// it refuses, exit 1 with the engine's error on stderr. The engine
// applies the rest of the refused row's batch, and orfmon reports it.
func TestExitCodes(t *testing.T) {
	retired := t.TempDir()
	if err := os.WriteFile(filepath.Join(retired, "backfill-cursor"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var rows bytes.Buffer
	w := smart.NewWriter(&rows, nil)
	for _, s := range []smart.Sample{{Serial: "Z1", Model: "A"}, {Serial: "Z1", Model: "B"}, {Serial: "Z2", Model: "A", Failure: true}} {
		s.Values = make([]float64, smart.NumFeatures())
		if err := w.Write(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		args  []string
		stdin io.Reader
		want  string
	}{
		"retired data dir": {[]string{"-data", retired}, bytes.NewReader(rows.Bytes()), "start the PR 33 release on it once, then this one"},
		"refused row":      {nil, bytes.NewReader(rows.Bytes()), `disk "Z1" changed model "A" -> "B"`},
		"applied after it": {nil, bytes.NewReader(rows.Bytes()), "FAILED  day=0     disk=Z2 (alarmed before failure: false)"},
	} {
		cmd := exec.Command(filepath.Join(bin, "orfmon"), tc.args...)
		cmd.Stdin = tc.stdin
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), tc.want) {
			t.Errorf("%s: err %v, want exit 1 naming %q:\n%s", name, err, tc.want, out)
		}
	}
	if ents, err := os.ReadDir(retired); err != nil || len(ents) != 1 {
		t.Errorf("the refused directory holds %v (%v), want backfill-cursor alone", ents, err)
	}
}
