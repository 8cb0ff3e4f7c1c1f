package orfdisk

import (
	"bufio"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// The data directory (EngineConfig.DataDir) and what the engine keeps in
// it:
//
//	snap-<hex model>.snap  one per model: OSN1 header + predictor state (engine.go)
//	backfill-cursor        OBC1: the backfill resume point (backfill_engine.go)
//	wal/                   the write-ahead log; internal/wal names its files
//	seed-commit            OSC1: a seed install in progress (reseed.go)
//	seed-staging/          a seed download, or what a committed install has yet to move
//
// Every file of the directory itself is written by writeFileAtomic.
const (
	snapPrefix      = "snap-"
	snapSuffix      = ".snap"
	cursorFileName  = "backfill-cursor"
	walDirName      = "wal"
	seedCommitName  = "seed-commit"
	seedStagingName = "seed-staging"
)

func snapName(model string) string {
	return snapPrefix + hex.EncodeToString([]byte(model)) + snapSuffix
}

// isStateFile reports whether name, an entry of the data directory, is
// engine state kept beside the log: a model snapshot or the backfill
// cursor. Recovery loads exactly these, Seed ships them with a cut of the
// log, and a seed install replaces them.
func isStateFile(name string) bool {
	return name == cursorFileName || strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapSuffix)
}

// writeFileAtomic durably replaces dir/name with what fill writes: into
// name.tmp through a buffer, flushed, fsynced and closed, renamed over
// name, and then the directory fsynced, since fsync(2) on a file does not
// make its directory entry durable. It returns the bytes written. Every
// error is returned, the directory fsync's included, so no caller acts on
// a file a power failure could still take back (a snapshot pass truncates
// the log only behind durable files). dir/name is the previous file or
// the complete new one, never a mix, and a failed write removes the temp
// file.
func writeFileAtomic(dir, name string, fill func(*bufio.Writer) error) (int64, error) {
	final := filepath.Join(dir, name)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(f)
	var n int64
	err = fill(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		n, err = f.Seek(0, io.SeekCurrent)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return n, syncDir(dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
