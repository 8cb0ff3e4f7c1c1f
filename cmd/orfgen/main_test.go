package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestOutputPinned holds orfgen's bytes still: the digests are what
// `orfgen -profile ALL -scale 0.005 -months 4 -seed 1` wrote, to -o and
// to -history, before smart.Writer stopped going through encoding/csv
// and FormatFloat. Every orfbench corpus is this generator's output, so
// a changed byte here is a changed benchmark.
func TestOutputPinned(t *testing.T) {
	fl, err := newFleet("ALL", 0.005, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if n, err := writeSingle(filepath.Join(dir, "fleet.csv"), fl.capacities, fl.stream); err != nil || n != 22871 {
		t.Fatalf("writeSingle: %d samples, %v", n, err)
	}
	if n, err := writeHistory(filepath.Join(dir, "hist"), 1, false, fl.capacities, fl.stream); err != nil || n != 22871 {
		t.Fatalf("writeHistory: %d samples, %v", n, err)
	}
	for name, want := range map[string]string{
		"fleet.csv":               "f9e90087a91759a76acb7f87cd121a2e6903651c8325a1d83758f24c7e99299f",
		"hist/fleet-q000-s00.csv": "092a4d0ba502f2baeedb0b5fafb844fe29ef385821e010bbdc62f539eeb488f0",
		"hist/fleet-q001-s00.csv": "edec628a07b51fbe089db631a2efce96981ac9d0953e9b15e42347f3ab40bd33",
	} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != want {
			t.Errorf("%s: sha256 %x, want %s", name, sum, want)
		}
	}
}
