package backfill

import (
	"context"
	"errors"
	"io"
	"runtime"
	"sort"
	"sync"

	"orfdisk/internal/smart"
)

// FileScan is one logical member's integrity report from Scan.
type FileScan struct {
	// Name is the member's logical (cursor) name.
	Name string
	// Rows counts well-formed data rows the loader would submit.
	Rows int64
	// Bytes counts uncompressed CSV bytes, header included — the same
	// basis as the resume cursor's offsets.
	Bytes int64
	// Malformed counts rows the loader would drop deterministically:
	// unparseable lines plus rows missing a serial or model.
	Malformed int64
	// FirstDay and LastDay bound the member's dates (-1 when it holds
	// no well-formed rows).
	FirstDay, LastDay int
	// Unsorted is set when the member's dates go backwards — the fault
	// that would abort a real load.
	Unsorted bool
	// Err records a hard failure (unreadable file, bad header, bad
	// gzip/zip framing); the other fields cover the prefix read before
	// it.
	Err error
}

// Scan reads the named files — plain CSVs, .csv.gz, and .zip archives
// of either — end to end without ingesting anything, reporting per
// member what a load would consume: row and byte counts, date range,
// and the malformed rows the loader would skip. It is the pre-flight
// integrity check for a multi-hour backfill: a truncated download or
// corrupt archive member surfaces here in minutes instead of mid-load.
//
// Members scan in parallel (one goroutine per member, capped at
// GOMAXPROCS); results return sorted by logical name. The returned
// error is non-nil when any member hit a hard failure or was unsorted.
// No field of opts affects a scan.
func Scan(ctx context.Context, files []string, opts Options) ([]FileScan, error) {
	if len(files) == 0 {
		return nil, errors.New("backfill: no input files")
	}
	srcs, err := expandSources(files)
	if err != nil {
		return nil, err
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i].Name < srcs[j].Name })

	out := make([]FileScan, len(srcs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range srcs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[i] = scanOne(ctx, srcs[i])
		}(i)
	}
	wg.Wait()

	err = ctx.Err()
	for i := range out {
		if err == nil && out[i].Err != nil {
			err = out[i].Err
		}
		if err == nil && out[i].Unsorted {
			err = errors.New("backfill: " + out[i].Name + " is not chronologically sorted")
		}
	}
	return out, err
}

// scanOne streams a single member through the same FastReader the
// loader uses, so its row/skip accounting matches a real load exactly.
func scanOne(ctx context.Context, src Source) FileScan {
	fs := FileScan{Name: src.Name, FirstDay: -1, LastDay: -1}
	rc, err := src.Open()
	if err != nil {
		fs.Err = err
		return fs
	}
	defer rc.Close()
	r, err := smart.NewFastReaderSize(rc, readerBuf)
	if err != nil {
		fs.Err = err
		return fs
	}
	var s smart.Sample
	last := -1 << 30
	for n := 0; ; n++ {
		// Honor cancellation without paying a branch per row.
		if n&0x3fff == 0 && ctx.Err() != nil {
			fs.Err = ctx.Err()
			return fs
		}
		err := r.Read(&s)
		if err == io.EOF {
			fs.Bytes = r.Offset()
			return fs
		}
		var rowErr *smart.RowError
		if errors.As(err, &rowErr) {
			fs.Malformed++
			continue
		}
		if err != nil {
			fs.Bytes = r.Offset()
			fs.Err = err
			return fs
		}
		if s.Serial == "" || s.Model == "" {
			fs.Malformed++
			continue
		}
		if fs.Rows == 0 {
			fs.FirstDay = s.Day
		}
		if s.Day < last {
			fs.Unsorted = true
		}
		last = s.Day
		if s.Day > fs.LastDay || fs.Rows == 0 {
			fs.LastDay = s.Day
		}
		fs.Rows++
	}
}
