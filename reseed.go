package orfdisk

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"orfdisk/internal/replica"
)

// Automatic follower re-seed. A follower whose resume position the
// leader has truncated past (ErrResumeTooOld), or whose log diverged
// from the leader's (ErrFollowerAhead), can no longer catch up from
// the record stream. Instead of parking until an operator hand-copies
// the data dir, the replication client asks the leader for a full
// state transfer:
//
//	leader:   Engine.Seed (replica.SeedProvider) — snapshot, seal the
//	          WAL tail, hand open handles on the snapshot set + cursor
//	          file + WAL segments to the source, which streams them.
//	follower: Engine.BeginSeed / Engine.CommitSeed (replica.SeedSink) —
//	          download into DataDir/seed-staging, then swap: write a
//	          durable commit marker, close the WAL, retire every shard
//	          worker (pool.Reset), rename the staged files over the old
//	          state, delete state files the seed does not replace, and
//	          re-run recovery from the installed set.
//
// The commit marker makes the swap crash-safe: recovery finds it and
// finishes the install from the staged files before reading any state,
// so a kill at any point yields either the old state or the complete
// new one, never a mix. Reads degrade gracefully during the swap (a
// model briefly reports unknown); writes were already refused — this
// is a follower.

const (
	seedStagingName = "seed-staging"
	seedCommitName  = "seed-commit"
	seedCommitMagic = "OSC1"
	walDirName      = "wal"
	walSuffix       = ".wal"
)

var errNotFollowerSeed = errors.New("orfdisk: only a follower installs seeds")

// Seed implements replica.SeedProvider: it snapshots (shrinking the
// WAL tail to ship), then collects open handles on every file a fresh
// follower needs. The handles stay readable for the life of the
// transfer even if a later snapshot unlinks a segment — truncation
// uses os.Remove, which never disturbs an open descriptor — so the set
// is consistent without holding any lock while it streams.
func (e *Engine) Seed() (files []replica.SeedFile, head uint64, err error) {
	if e.wal == nil {
		return nil, 0, errors.New("orfdisk: seeding requires a DataDir")
	}
	if err := e.Snapshot(); err != nil {
		return nil, 0, err
	}
	// Under snapMu no snapshot pass can rename or truncate between the
	// tail seal and the opens below.
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	tailStart, tailSize, head, err := e.wal.SealTail()
	if err != nil {
		return nil, 0, err
	}
	defer func() {
		if err != nil {
			for _, sf := range files {
				sf.File.Close()
			}
			files = nil
		}
	}()
	add := func(name, path string, capSize int64) error {
		f, oerr := os.Open(path)
		if oerr != nil {
			return oerr
		}
		st, serr := f.Stat()
		if serr != nil {
			f.Close()
			return serr
		}
		size := st.Size()
		if capSize >= 0 && capSize < size {
			size = capSize
		}
		files = append(files, replica.SeedFile{Name: name, File: f, Size: size})
		return nil
	}
	entries, err := os.ReadDir(e.cfg.DataDir)
	if err != nil {
		return nil, 0, err
	}
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
			continue
		}
		if err := add(name, filepath.Join(e.cfg.DataDir, name), -1); err != nil {
			return nil, 0, err
		}
	}
	cursorPath := filepath.Join(e.cfg.DataDir, cursorFileName)
	if _, serr := os.Stat(cursorPath); serr == nil {
		if err := add(cursorFileName, cursorPath, -1); err != nil {
			return nil, 0, err
		}
	}
	walDir := filepath.Join(e.cfg.DataDir, walDirName)
	wents, err := os.ReadDir(walDir)
	if err != nil {
		return nil, 0, err
	}
	for _, ent := range wents {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, walSuffix) {
			continue
		}
		firstSeq, perr := strconv.ParseUint(strings.TrimSuffix(name, walSuffix), 10, 64)
		if perr != nil {
			continue
		}
		// Keep the sealed tail segment even when it holds no durable
		// records yet (an empty or freshly-rotated leader): without it
		// an empty leader produces a zero-file seed set that CommitSeed
		// rejects, and a diverged follower retries the seed forever.
		if firstSeq > head && firstSeq != tailStart {
			continue // rotated in after the tail seal; past the cut
		}
		capSize := int64(-1)
		if firstSeq == tailStart {
			capSize = tailSize // only the sealed (durable) prefix
		}
		if err := add(walDirName+"/"+name, filepath.Join(walDir, name), capSize); err != nil {
			return nil, 0, err
		}
	}
	return files, head, nil
}

// BeginSeed implements replica.SeedSink: it provides a fresh staging
// directory inside the data dir (same filesystem, so the install can
// rename instead of copy).
func (e *Engine) BeginSeed() (string, error) {
	if !e.follower.Load() {
		return "", errNotFollowerSeed
	}
	dir := filepath.Join(e.cfg.DataDir, seedStagingName)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.MkdirAll(filepath.Join(dir, walDirName), 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// CommitSeed implements replica.SeedSink: it atomically replaces the
// follower's durable state with the staged seed set and reloads the
// engine from it, exactly like a process restart on the new files.
// Runs on the replication client's goroutine — the same goroutine that
// calls ApplyReplicated, so no replicated apply can race the swap.
func (e *Engine) CommitSeed(dir string) error {
	if !e.follower.Load() {
		return errNotFollowerSeed
	}
	var manifest []string
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, werr error) error {
		if werr != nil {
			return werr
		}
		if d.IsDir() {
			return nil
		}
		rel, rerr := filepath.Rel(dir, p)
		if rerr != nil {
			return rerr
		}
		manifest = append(manifest, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return err
	}
	if len(manifest) == 0 {
		return errors.New("orfdisk: seed staging directory is empty")
	}
	sort.Strings(manifest)

	// Make every staged directory entry durable BEFORE the commit
	// marker can exist. The download fsyncs each file's contents, but a
	// crash just past the marker could still lose the staging dirents;
	// recovery would then treat each missing staged source as "moved by
	// an interrupted earlier pass" and finish the install with empty or
	// partial state — breaking the marker's all-or-nothing promise.
	dirs := map[string]struct{}{dir: {}}
	for _, name := range manifest {
		d := filepath.Dir(filepath.Join(dir, filepath.FromSlash(name)))
		for d != dir && strings.HasPrefix(d, dir+string(filepath.Separator)) {
			dirs[d] = struct{}{}
			d = filepath.Dir(d)
		}
	}
	for d := range dirs {
		if err := syncDir(d); err != nil {
			return err
		}
	}

	// Serialize against snapshot passes for the whole swap: Snapshot
	// reads e.wal and the shard set, both replaced below.
	e.snapMu.Lock()
	defer e.snapMu.Unlock()

	// Durable commit point. From here a crash finishes the install on
	// restart instead of recovering half-swapped state.
	if err := e.writeSeedMarker(manifest); err != nil {
		return err
	}
	if err := e.wal.Close(); err != nil {
		return err
	}
	if err := e.pool.Reset(); err != nil {
		return err
	}
	if err := e.installSeedFiles(manifest); err != nil {
		return err
	}

	// Drop every in-memory trace of the old state, then recover from
	// the installed files.
	e.mu.Lock()
	e.modelOf = make(map[string]string)
	e.mu.Unlock()
	e.recovered = make(map[string]*shardState)
	clear(e.snapped)
	e.bf.mu.Lock()
	e.bf.valid, e.bf.cur, e.bf.rowsAfter, e.bf.seq, e.bf.pendingLow =
		false, BackfillCursor{}, 0, 0, 0
	e.bf.mu.Unlock()
	e.replPendingLow.Store(0) // the log it pinned is gone with the rest
	if err := e.recover(); err != nil {
		return err
	}
	// A model that existed before the seed but not in it would keep
	// serving its last frozen snapshot forever; retract those slots so
	// the read path reports the model unknown instead.
	live := make(map[string]struct{})
	for _, m := range e.pool.Keys() {
		live[m] = struct{}{}
	}
	e.frozen.Range(func(k, v any) bool {
		if _, ok := live[k.(string)]; !ok {
			v.(*frozenSlot).pub.Store(nil)
		}
		return true
	})
	if err := e.refreezeAll(); err != nil {
		return err
	}
	e.replApplied.Store(e.wal.NextSeq() - 1)
	e.log.Info("seed installed",
		"files", len(manifest), "resume_after", e.replApplied.Load())
	return nil
}

// writeSeedMarker durably records the manifest of a staged seed set;
// its existence means "the staged files are the state now" — recovery
// finishes the swap from it after a crash.
func (e *Engine) writeSeedMarker(manifest []string) error {
	var buf bytes.Buffer
	buf.WriteString(seedCommitMagic)
	buf.WriteByte('\n')
	for _, name := range manifest {
		buf.WriteString(name)
		buf.WriteByte('\n')
	}
	final := filepath.Join(e.cfg.DataDir, seedCommitName)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(buf.Bytes())
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return werr
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	return syncDir(e.cfg.DataDir)
}

// installSeedFiles performs the on-disk swap: delete state files the
// manifest does not replace, rename the staged files in, then clear
// the marker and staging dir. Idempotent — a rerun after a crash skips
// files an earlier pass already moved — so recovery can call it with
// the marker's manifest at any interruption point.
func (e *Engine) installSeedFiles(manifest []string) error {
	dataDir := e.cfg.DataDir
	staging := filepath.Join(dataDir, seedStagingName)
	inSet := make(map[string]struct{}, len(manifest))
	for _, name := range manifest {
		inSet[name] = struct{}{}
	}
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() {
			continue
		}
		isState := (strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapSuffix)) ||
			name == cursorFileName
		if !isState {
			continue
		}
		if _, ok := inSet[name]; ok {
			continue
		}
		if err := os.Remove(filepath.Join(dataDir, name)); err != nil {
			return err
		}
	}
	walDir := filepath.Join(dataDir, walDirName)
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return err
	}
	wents, err := os.ReadDir(walDir)
	if err != nil {
		return err
	}
	for _, ent := range wents {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, walSuffix) {
			continue
		}
		if _, ok := inSet[walDirName+"/"+name]; ok {
			continue
		}
		if err := os.Remove(filepath.Join(walDir, name)); err != nil {
			return err
		}
	}
	for _, name := range manifest {
		src := filepath.Join(staging, filepath.FromSlash(name))
		dst := filepath.Join(dataDir, filepath.FromSlash(name))
		if _, serr := os.Stat(src); errors.Is(serr, fs.ErrNotExist) {
			continue // moved by an interrupted earlier pass
		}
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		if err := os.Rename(src, dst); err != nil {
			return err
		}
	}
	if err := syncDir(walDir); err != nil {
		return err
	}
	if err := syncDir(dataDir); err != nil {
		return err
	}
	if err := os.Remove(filepath.Join(dataDir, seedCommitName)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	if err := os.RemoveAll(staging); err != nil {
		return err
	}
	return syncDir(dataDir)
}

// completeSeedInstall runs at the top of recovery: a commit marker
// means a seed install was interrupted — finish it from the staged
// files before any state file is read. A staging dir without a marker
// is a download that never committed; discard it.
func (e *Engine) completeSeedInstall() error {
	dataDir := e.cfg.DataDir
	b, err := os.ReadFile(filepath.Join(dataDir, seedCommitName))
	if errors.Is(err, fs.ErrNotExist) {
		return os.RemoveAll(filepath.Join(dataDir, seedStagingName))
	}
	if err != nil {
		return err
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) < 2 || lines[0] != seedCommitMagic {
		return fmt.Errorf("orfdisk: malformed seed commit marker")
	}
	manifest := lines[1:]
	for _, name := range manifest {
		if name == "" || strings.HasPrefix(name, "/") || strings.Contains(name, "..") {
			return fmt.Errorf("orfdisk: seed commit marker names %q", name)
		}
	}
	e.log.Warn("finishing interrupted seed install", "files", len(manifest))
	return e.installSeedFiles(manifest)
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
