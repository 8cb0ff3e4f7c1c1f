package orfdisk

import (
	"fmt"
	"os"
	"strings"
)

// The data directory (EngineConfig.DataDir) holds the write-ahead log
// and nothing else: model state and the backfill resume point live in
// the log as state and pass records (engine.go). internal/wal is the
// only writer of both entries:
//
//	wal/          the write-ahead log; internal/wal names its files
//	wal-dropped/  a log a follower reset is removing (wal.WAL.Reset);
//	              whatever a crash leaves of it goes at the next start
const walDirName = "wal"

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
