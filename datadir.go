package orfdisk

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// The data directory (EngineConfig.DataDir) holds the write-ahead log
// and nothing else: model state and the backfill resume point live in
// the log as state and pass records (engine.go).
//
//	wal/          the write-ahead log; internal/wal names its files
//	wal-dropped/  a log a follower reset is removing (Engine.Reset);
//	              whatever a crash leaves of it goes at the next start
const (
	walDirName     = "wal"
	droppedDirName = "wal-dropped"
)

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

// dropLog removes dir's log crash-safely: renamed aside, the rename made
// durable, then deleted. A crash leaves the old log whole or none (a
// renamed remnant the next call deletes first).
func dropLog(dir string) error {
	aside := filepath.Join(dir, droppedDirName)
	if err := os.RemoveAll(aside); err != nil {
		return err
	}
	if err := os.Rename(filepath.Join(dir, walDirName), aside); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	return os.RemoveAll(aside)
}

// refuseRetired fails on a directory the PR 30 release kept state in
// beside its log: model snapshots, the backfill cursor file, a seed
// install. This release reads none of them, and leaves dir as it is so
// that the remedy, the PR 33 release, can move them into the log.
func refuseRetired(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		name := ent.Name()
		if name == "backfill-cursor" || strings.HasPrefix(name, "seed-") ||
			strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap") {
			return fmt.Errorf("orfdisk: %s holds %s, state the PR 30 release kept beside its log, which this release does not read; "+
				"start the PR 33 release on it once, then this one", dir, name)
		}
	}
	return nil
}
