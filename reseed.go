package orfdisk

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
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
//	leader:   Engine.Seed (replica.SeedProvider) — snapshot, take a cut
//	          of the WAL, hand open handles on its segments + the
//	          snapshot set + cursor file to the source, which streams
//	          them.
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

const seedCommitMagic = "OSC1"

var errNotFollowerSeed = errors.New("orfdisk: only a follower installs seeds")

// Seed implements replica.SeedProvider: it snapshots (shrinking the
// WAL tail to ship), then collects open handles on every file a fresh
// follower needs: the state files and a cut of the log. The handles stay
// readable for the life of the transfer even if a later snapshot unlinks
// a segment — truncation uses os.Remove, which never disturbs an open
// descriptor — so the set is consistent without holding any lock while
// it streams.
func (e *Engine) Seed() (files []replica.SeedFile, head uint64, err error) {
	if e.wal == nil {
		return nil, 0, errors.New("orfdisk: seeding requires a DataDir")
	}
	if err := e.Snapshot(); err != nil {
		return nil, 0, err
	}
	// Under snapMu no snapshot pass can rename or truncate between the
	// log's cut and the opens below.
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	segs, head, err := e.wal.Cut()
	if err != nil {
		return nil, 0, err
	}
	var set []replica.SeedFile
	defer func() {
		if err != nil {
			for _, sf := range set {
				sf.File.Close()
			}
		}
	}()
	for _, s := range segs {
		set = append(set, replica.SeedFile{Name: walDirName + "/" + s.Name, File: s.File, Size: s.Size})
	}
	entries, err := os.ReadDir(e.cfg.DataDir)
	if err != nil {
		return nil, 0, err
	}
	for _, ent := range entries {
		if ent.IsDir() || !isStateFile(ent.Name()) {
			continue
		}
		f, err := os.Open(filepath.Join(e.cfg.DataDir, ent.Name()))
		if err != nil {
			return nil, 0, err
		}
		set = append(set, replica.SeedFile{Name: ent.Name(), File: f})
		st, err := f.Stat()
		if err != nil {
			return nil, 0, err
		}
		set[len(set)-1].Size = st.Size()
	}
	return set, head, nil
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
	if _, err := writeFileAtomic(e.cfg.DataDir, seedCommitName, func(w *bufio.Writer) error {
		_, err := w.Write(appendSeedMarker(nil, manifest))
		return err
	}); err != nil {
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

	// Recovery drops every in-memory trace of the old state as it rebuilds
	// from the installed files.
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

// appendSeedMarker encodes the seed-commit marker: the manifest of a
// staged seed set, whose existence means "the staged files are the state
// now" — recovery finishes the swap from it after a crash. It is the OSC1
// magic line, then one name per line, each line ending in a newline.
func appendSeedMarker(buf []byte, manifest []string) []byte {
	buf = append(buf, seedCommitMagic+"\n"...)
	for _, name := range manifest {
		buf = append(append(buf, name...), '\n')
	}
	return buf
}

// decodeSeedMarker parses what appendSeedMarker wrote, holding every name
// to the rule the follower applied when it staged the file.
func decodeSeedMarker(b []byte) ([]string, error) {
	body, ok := strings.CutSuffix(string(b), "\n")
	lines := strings.Split(body, "\n")
	if !ok || len(lines) < 2 || lines[0] != seedCommitMagic {
		return nil, errors.New("orfdisk: corrupt seed commit marker")
	}
	for _, name := range lines[1:] {
		if err := replica.CheckSeedName(name); err != nil {
			return nil, fmt.Errorf("orfdisk: corrupt seed commit marker: %w", err)
		}
	}
	return lines[1:], nil
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
	// Delete what the seed does not replace: the state files beside the
	// log, and every file of the log.
	walDir := filepath.Join(dataDir, walDirName)
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return err
	}
	for _, sub := range [...]string{"", walDirName} {
		entries, err := os.ReadDir(filepath.Join(dataDir, sub))
		if err != nil {
			return err
		}
		for _, ent := range entries {
			name := path.Join(sub, ent.Name())
			_, keep := inSet[name]
			if keep || ent.IsDir() || sub == "" && !isStateFile(name) {
				continue
			}
			if err := os.Remove(filepath.Join(dataDir, filepath.FromSlash(name))); err != nil {
				return err
			}
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
	manifest, err := decodeSeedMarker(b)
	if err != nil {
		return err
	}
	e.log.Warn("finishing interrupted seed install", "files", len(manifest))
	return e.installSeedFiles(manifest)
}
