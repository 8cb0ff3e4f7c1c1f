package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// ErrNoMore is returned by Cursor.Next when the cursor has reached the
// committed tail of the log. The caller waits (e.g. on WAL.Watch) and
// calls Next again; more records may appear at any time.
var ErrNoMore = errors.New("wal: no more records")

// Cursor reads committed records from a write-ahead log directory in
// sequence order, starting after a given sequence number. It is the
// export surface the replication stream (and backup tooling) tails the
// log through:
//
//   - it survives segment rotation: when the current segment is sealed
//     (a newer one exists) and fully consumed, the cursor advances;
//   - it survives torn tails: an incomplete or CRC-damaged record at the
//     tail of the last segment reads as ErrNoMore, not corruption — the
//     writer may still be mid-write, or a crash may leave a tail that
//     Open will truncate on restart;
//   - it tolerates truncation racing it (TruncateBefore deleting the
//     segment under the cursor) by reopening at the oldest survivor.
//
// A Cursor takes no locks against the writer: it reads with ReadAt at
// its own offset and only trusts length/CRC-framed, strictly increasing
// records, through the record parser crash recovery uses. It is not safe
// for concurrent use by multiple goroutines.
type Cursor struct {
	dir      string
	after    uint64 // last sequence number returned (records <= after are skipped)
	f        *os.File
	segFirst uint64
	rd       recordReader
}

// OpenCursor opens a cursor over the log directory dir positioned just
// past afterSeq: the first Next returns the oldest retained record with
// a sequence number > afterSeq. The directory may be actively written
// by an open WAL.
func OpenCursor(dir string, afterSeq uint64) (*Cursor, error) {
	if dir == "" {
		return nil, errors.New("wal: cursor needs a directory")
	}
	return &Cursor{dir: dir, after: afterSeq}, nil
}

// Segment returns the first-sequence name of the segment the cursor is
// currently reading (0 before the first read).
func (c *Cursor) Segment() uint64 { return c.segFirst }

// Close releases the cursor's file handle.
func (c *Cursor) Close() error {
	if c.f != nil {
		err := c.f.Close()
		c.f = nil
		return err
	}
	return nil
}

// Next returns the next committed record. The payload slice is only
// valid until the following Next call. At the tail of the log it
// returns ErrNoMore; any other error is I/O failure or corruption.
func (c *Cursor) Next() (seq uint64, payload []byte, err error) {
	seq, rec, err := c.NextRecord()
	if err != nil {
		return 0, nil, err
	}
	return seq, rec[HeaderSize:], nil
}

// NextRecord is Next returning the record's log bytes, header and
// payload, exactly as its segment holds them — what replication ships.
func (c *Cursor) NextRecord() (seq uint64, rec []byte, err error) {
	for {
		if c.f == nil {
			ok, err := c.seek()
			if err != nil {
				return 0, nil, err
			}
			if !ok {
				return 0, nil, ErrNoMore
			}
		}
		seq, rec, ok, err := c.rd.next()
		if err != nil {
			return 0, nil, err
		}
		if ok {
			if seq <= c.after {
				continue // resume skip: already consumed
			}
			c.after = seq
			return seq, rec, nil
		}
		// No complete valid record at the current offset. If this is the
		// last segment that is the (possibly mid-write) tail: wait.
		next, sealed, err := c.nextSegment()
		if err != nil {
			return 0, nil, err
		}
		if !sealed {
			return 0, nil, ErrNoMore
		}
		// A newer segment exists, so this one is sealed — rotation syncs
		// and closes a segment before creating its successor. Retry once
		// to pick up records written between our first read and the
		// rotation, then advance.
		seq, rec, ok, err = c.rd.next()
		if err != nil {
			return 0, nil, err
		}
		if ok {
			if seq <= c.after {
				continue
			}
			c.after = seq
			return seq, rec, nil
		}
		fi, err := c.f.Stat()
		if err != nil {
			return 0, nil, err
		}
		if c.rd.off < fi.Size() {
			return 0, nil, fmt.Errorf("wal: corrupt record in sealed segment %s at offset %d",
				segName(c.segFirst), c.rd.off)
		}
		if err := c.openAt(next); err != nil {
			return 0, nil, err
		}
	}
}

// seek positions the cursor on the segment that may contain the first
// record with sequence number > c.after: the newest segment whose first
// sequence is <= after+1, or the oldest segment when truncation (or a
// snapshot gap) has passed the requested position. Returns ok=false
// when the directory holds no segments yet.
func (c *Cursor) seek() (ok bool, err error) {
	for {
		segs, err := listSegments(c.dir)
		if err != nil {
			return false, err
		}
		if len(segs) == 0 {
			return false, nil
		}
		idx := 0
		for i, s := range segs {
			if s.firstSeq <= c.after+1 {
				idx = i
			} else {
				break
			}
		}
		f, err := os.Open(segs[idx].path)
		if os.IsNotExist(err) {
			continue // truncated between list and open; re-seek
		}
		if err != nil {
			return false, err
		}
		c.f, c.segFirst = f, segs[idx].firstSeq
		c.rd.reset(f)
		return true, nil
	}
}

// openAt switches the cursor to the segment named firstSeq. If that
// segment has been truncated away in the meantime, it re-seeks.
func (c *Cursor) openAt(firstSeq uint64) error {
	if c.f != nil {
		c.f.Close()
		c.f = nil
	}
	f, err := os.Open(filepath.Join(c.dir, segName(firstSeq)))
	if os.IsNotExist(err) {
		_, err := c.seek()
		return err
	}
	if err != nil {
		return err
	}
	c.f, c.segFirst = f, firstSeq
	c.rd.reset(f)
	return nil
}

// nextSegment reports whether a segment newer than the current one
// exists (which seals the current one) and its first sequence number.
func (c *Cursor) nextSegment() (firstSeq uint64, exists bool, err error) {
	segs, err := listSegments(c.dir)
	if err != nil {
		return 0, false, err
	}
	for _, s := range segs {
		if s.firstSeq > c.segFirst {
			return s.firstSeq, true, nil
		}
	}
	return 0, false, nil
}
