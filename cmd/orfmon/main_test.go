package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"orfdisk/internal/smart"
)

// TestSaveReportsWriteErrors: -save onto a device that refuses every
// write must exit non-zero instead of reporting a snapshot it never
// wrote. One tree keeps the model inside the write buffer, so only the
// final flush can fail — the error orfmon used to drop.
func TestSaveReportsWriteErrors(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this host")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "orfmon")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	in := filepath.Join(dir, "fleet.csv")
	f, err := os.Create(in)
	if err != nil {
		t.Fatal(err)
	}
	w := smart.NewWriter(f, nil)
	if err := w.Write(smart.Sample{Serial: "Z1", Model: "STA", Values: make([]float64, smart.NumFeatures())}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	out, err := exec.Command(bin, "-in", in, "-trees", "1", "-save", "/dev/full").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("orfmon -save /dev/full: err %v, want a non-zero exit\n%s", err, out)
	}
	if strings.Contains(string(out), "snapshot written") {
		t.Errorf("orfmon reported a snapshot it failed to write:\n%s", out)
	}
}
