package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"
)

// walRecord is one replayed record, for comparing replays.
type walRecord struct {
	seq     uint64
	payload string
}

// validRecords parses segment bytes the plain way: records one after the
// other from the start, each with a length within the cap, the bytes it
// claims, a matching CRC and a sequence number above the one before,
// stopping at the first that is not.
func validRecords(b []byte) (recs []walRecord) {
	for len(b) >= HeaderSize {
		n := binary.LittleEndian.Uint32(b)
		if n > MaxRecord || len(b)-HeaderSize < int(n) {
			return recs
		}
		rec := b[:HeaderSize+int(n)]
		seq := binary.LittleEndian.Uint64(rec[8:])
		if crc32.ChecksumIEEE(rec[8:]) != binary.LittleEndian.Uint32(rec[4:]) ||
			len(recs) > 0 && seq <= recs[len(recs)-1].seq {
			return recs
		}
		recs = append(recs, walRecord{seq, string(rec[HeaderSize:])})
		b = b[len(rec):]
	}
	return recs
}

// FuzzOpenReplay: whatever bytes a segment holds, Open and Replay never
// panic, Replay yields a prefix of the records validRecords finds in
// them, and neither allocates more than a constant plus a multiple of the
// segment — a length field may claim MaxRecord over a few bytes. reframe
// rewrites the CRC of every record whose length fits, as the fuzzer
// cannot, so mutated lengths, sequence numbers and payloads reach the
// parser as records rather than as checksum failures.
func FuzzOpenReplay(f *testing.F) {
	dir := f.TempDir()
	w, err := Open(Options{Dir: dir, SyncInterval: time.Hour})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.AppendAt(9, []byte("after a gap")); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg, false)
	f.Add(seg[:len(seg)-3], false)
	f.Add(seg, true)
	f.Add([]byte{}, false)
	// A record claiming the cap after an intact one, and a few hundred
	// bytes where its 16 MiB would be; and one that crosses a read block.
	claim := slices.Concat(seg[:validLen(seg, 1)], binary.LittleEndian.AppendUint32(nil, MaxRecord), make([]byte, 300))
	f.Add(claim, false)
	big := make([]byte, HeaderSize+readBlock+100)
	binary.LittleEndian.PutUint32(big, readBlock+100)
	binary.LittleEndian.PutUint64(big[8:], 1)
	f.Add(big, true)
	f.Fuzz(func(t *testing.T, data []byte, reframe bool) {
		if reframe {
			data = bytes.Clone(data)
			for b := data; len(b) >= HeaderSize; {
				n := binary.LittleEndian.Uint32(b)
				if n > MaxRecord || len(b)-HeaderSize < int(n) {
					break
				}
				binary.LittleEndian.PutUint32(b[4:], crc32.ChecksumIEEE(b[8:HeaderSize+int(n)]))
				b = b[HeaderSize+int(n):]
			}
		}
		want := validRecords(data)
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w, err := Open(Options{Dir: dir, SyncInterval: time.Hour})
		if err != nil {
			t.Fatalf("Open over one segment: %v", err)
		}
		defer w.Close()
		var got []walRecord
		if err := w.Replay(func(seq uint64, p []byte) error {
			got = append(got, walRecord{seq, string(p)})
			return nil
		}); err != nil {
			t.Fatalf("Replay over one segment: %v", err)
		}
		runtime.ReadMemStats(&after)
		if len(got) > len(want) || !slices.Equal(got, want[:len(got)]) {
			t.Fatalf("replayed %v, not a prefix of the valid records %v", got, want)
		}
		// Two block readers (Open's tail scan, Replay) start at readBlock.
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, 1<<20+64*uint64(len(data)); alloc > limit {
			t.Fatalf("allocated %d bytes over a %d-byte segment (limit %d)", alloc, len(data), limit)
		}
	})
}

// validLen is the length of the first n records of segment bytes b.
func validLen(b []byte, n int) int {
	off := 0
	for ; n > 0; n-- {
		off += HeaderSize + int(binary.LittleEndian.Uint32(b[off:]))
	}
	return off
}
