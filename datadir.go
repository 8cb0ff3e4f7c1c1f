package orfdisk

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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
//
// The previous release also kept state beside the log; this one reads
// those files once and then removes them (see recoverLegacy):
//
//	snap-<hex model>.snap  one per model: OSN1 header + predictor state
//	backfill-cursor        OBC1: the backfill resume point
//	seed-staging/          a seed download that never committed
//	seed-commit            a seed install in progress: refused
const (
	walDirName     = "wal"
	droppedDirName = "wal-dropped"

	snapPrefix      = "snap-"
	snapSuffix      = ".snap"
	snapMagic       = "OSN1"
	cursorFileName  = "backfill-cursor"
	cursorMagic     = "OBC1"
	seedCommitName  = "seed-commit"
	seedStagingName = "seed-staging"
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

// --- the previous release's files; the next release deletes this ---

// isStateFile reports whether name, an entry of the data directory, is
// state the previous release kept beside the log: a model snapshot or
// the backfill cursor.
func isStateFile(name string) bool {
	return name == cursorFileName || strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapSuffix)
}

// legacyFiles lists the previous release's files in dir.
func legacyFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, ent := range entries {
		if name := ent.Name(); name == seedStagingName || !ent.IsDir() && isStateFile(name) {
			names = append(names, name)
		}
	}
	return names, nil
}

// removeFiles deletes names from dir and makes that durable.
func removeFiles(dir string, names []string) error {
	for _, name := range names {
		if err := os.RemoveAll(filepath.Join(dir, name)); err != nil {
			return err
		}
	}
	return syncDir(dir)
}

// legacyCover is what the previous release's files hold, for replaying
// the log they sit beside: a record at or below covered[model] is in
// that model's snapshot, and a backfill record at or below bfSeq is in
// the cursor file's resume point. The zero value covers nothing.
type legacyCover struct {
	covered map[string]uint64
	bfSeq   uint64
}

// loadSnapshot reads a snapshot file: the OSN1 magic, the WAL sequence
// number it covers through and the model name's length (u64 little
// endian each), the name, then the predictor state.
func loadSnapshot(path string) (model string, p *Predictor, seq uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", nil, 0, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	head := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return "", nil, 0, err
	}
	if string(head) != snapMagic {
		return "", nil, 0, fmt.Errorf("bad snapshot magic %q", head)
	}
	var buf [8]byte
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		return "", nil, 0, err
	}
	seq = binary.LittleEndian.Uint64(buf[:])
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		return "", nil, 0, err
	}
	n := binary.LittleEndian.Uint64(buf[:])
	if n > 1<<16 {
		return "", nil, 0, fmt.Errorf("corrupt snapshot (model name of %d bytes)", n)
	}
	nameBuf := make([]byte, n)
	if _, err := io.ReadFull(br, nameBuf); err != nil {
		return "", nil, 0, err
	}
	if p, err = LoadPredictorState(br); err != nil {
		return "", nil, 0, err
	}
	return string(nameBuf), p, seq, nil
}

// decodeCursorFile parses a cursor file: the OBC1 magic, the WAL
// sequence number the resume point accounts for through as a u64 little
// endian, rowsAfter as a uvarint, then the cursor as its WAL cursor
// record.
func decodeCursorFile(b []byte) (r bfResume, seq uint64, err error) {
	corrupt := func(what any) (bfResume, uint64, error) {
		return bfResume{}, 0, fmt.Errorf("orfdisk: corrupt backfill cursor file (%v)", what)
	}
	rest, ok := bytes.CutPrefix(b, []byte(cursorMagic))
	if !ok {
		return corrupt("no " + cursorMagic + " magic")
	}
	if len(rest) < 8 {
		return corrupt("truncated sequence number")
	}
	seq = binary.LittleEndian.Uint64(rest)
	r.valid = true
	var n int
	if r.rowsAfter, n = binary.Uvarint(rest[8:]); n <= 0 {
		return corrupt("truncated row count")
	}
	rest = rest[8+n:]
	if len(rest) == 0 || rest[0] != recCursor {
		return corrupt("no cursor record")
	}
	cur, err := decodeCursorRecord(rest[1:])
	if err != nil {
		return corrupt(err)
	}
	r.cur = *cur
	return r, seq, nil
}
