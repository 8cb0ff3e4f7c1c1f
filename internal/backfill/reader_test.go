package backfill

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"orfdisk"
	"orfdisk/internal/smart"
)

// MaxChunkRows exposes chunkRows to the package's external tests.
const MaxChunkRows = chunkRows

// TestReaderMemoryIsFixed runs readFile over a file where one day holds
// several chunks' worth of rows, with a consumer that recycles each chunk
// as soon as it has read it. The day must split into chunks of at most
// chunkRows rows in file order, every chunk must be made at full capacity
// and never grow, and the reader must make no more chunks than its
// channel, its free list and the two in flight (the one it fills, the
// one the consumer holds) can hold at once.
func TestReaderMemoryIsFixed(t *testing.T) {
	bound := readerQueue + 2*readerQueue + 2
	days := []int{0, 1, 2}
	counts := []int{3, 2*chunkRows + 37, 5}
	for d := 3; d < 3+4*bound; d++ {
		days, counts = append(days, d), append(counts, chunkRows-d%7)
	}

	path := filepath.Join(t.TempDir(), "fleet.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	cw := smart.NewWriter(f, nil)
	vals := make([]float64, smart.NumFeatures())
	var want []string
	for i, day := range days {
		for j := 0; j < counts[i]; j++ {
			serial := fmt.Sprintf("S%07d", len(want))
			want = append(want, serial)
			if err := cw.Write(smart.Sample{Serial: serial, Model: "M", Day: day, Values: vals}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	srcs, err := expandSources([]string{path})
	if err != nil {
		t.Fatal(err)
	}

	ch := make(chan *chunk, readerQueue)
	errc := make(chan error, 1)
	go func() {
		defer close(ch)
		_, err := readFile(context.Background(), srcs[0], orfdisk.BackfillFilePos{}, ch)
		errc <- err
	}()
	full := [2]int{chunkRows, chunkRows * smart.NumFeatures()}
	made := map[*chunk]bool{}
	var got []string
	sent, bigDay := 0, 0 // bigDay: chunks holding a row of day 1
	for c := range ch {
		sent++
		if len(c.rows) == 0 || len(c.rows) > chunkRows {
			t.Fatalf("chunk %d holds %d rows; want 1..%d", sent, len(c.rows), chunkRows)
		}
		if caps := [2]int{cap(c.rows), cap(c.vals)}; caps != full {
			t.Fatalf("chunk %d: cap(rows), cap(vals) = %v; want %v, as made", sent, caps, full)
		}
		made[c] = true
		holds := false
		for _, r := range c.rows {
			got = append(got, r.serial)
			holds = holds || r.day == 1
		}
		if holds {
			bigDay++
		}
		c.recycle()
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d rows; the file holds %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d is %s; want %s (file order)", i, got[i], want[i])
		}
	}
	if bigDay <= counts[1]/chunkRows {
		t.Fatalf("day 1 (%d rows) is in %d chunks; want it split across more than %d", counts[1], bigDay, counts[1]/chunkRows)
	}
	if len(made) > bound {
		t.Fatalf("the reader made %d distinct chunks for %d sent; want at most %d", len(made), sent, bound)
	}
	if sent < 2*bound {
		t.Fatalf("only %d chunks sent; the file is too small to show the bound", sent)
	}
}
