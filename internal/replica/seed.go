package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"orfdisk/internal/frame"
)

// SeedFile is one file of a leader's seed set: a dir-relative name
// (forward slashes — "snap-<model>.snap", "backfill-cursor",
// "wal/<segment>.wal"), an open handle, and the byte count to stream.
// Size may be smaller than the file on disk (the active WAL segment is
// capped at its last fsynced offset); the streamer sends exactly Size
// bytes. The Source closes File when the transfer ends.
type SeedFile struct {
	Name string
	File *os.File
	Size int64
}

// SeedProvider supplies a consistent durable state set for seeding a
// diverged follower — implemented by the engine. Seed must return open
// handles whose contents stay readable for the life of the transfer
// even if the files are concurrently unlinked by snapshot truncation,
// and head, the newest WAL sequence number the set covers: a follower
// that installs the set resumes streaming from head.
type SeedProvider interface {
	Seed() (files []SeedFile, head uint64, err error)
}

// SeedSink installs a streamed seed set on a follower — implemented by
// the engine's follower mode. BeginSeed returns an empty staging
// directory to download into (with a wal/ subdirectory); CommitSeed
// atomically replaces the follower's durable state with the staged
// files and reloads in-memory state from them.
type SeedSink interface {
	BeginSeed() (dir string, err error)
	CommitSeed(dir string) error
}

// serveSeed streams the leader's current durable state to a diverged
// follower, then waits for the follower's post-install ack so the new
// position joins the retain floor before the connection drops. Each
// chunk ships as one flate-compressed seedchunkz frame.
func (s *Source) serveSeed(sc *srcConn, resume uint64) error {
	if s.cfg.SeedProvider == nil {
		return errors.New("replica: follower requested a seed but no SeedProvider is configured")
	}
	// A seed session holds no durable replica: it must pin the retain
	// floor but never satisfy a synchronous-commit quorum (a diverged
	// old leader arrives with a resume ABOVE our head — counting that as
	// an ack would let WaitAcked report replication that never
	// happened).
	s.mu.Lock()
	sc.seeding = true
	s.mu.Unlock()
	// Pin the retain floor at the follower's stale position for the
	// duration of the transfer: the floor is sticky across disconnects,
	// so no snapshot can truncate the tail the follower will need to
	// resume from after installing the seed. Clamp to our own durable
	// head — an ErrFollowerAhead divergence hands us a resume past it,
	// and a floor above the head pins nothing.
	pin := resume
	if h := s.cfg.WAL.SyncedSeq(); pin > h {
		pin = h
	}
	s.noteAck(sc, pin)
	s.cfg.Logger.Info("seeding follower", "remote", sc.c.RemoteAddr(), "resume_after", resume)

	files, head, err := s.cfg.SeedProvider.Seed()
	if err != nil {
		return fmt.Errorf("replica: building seed set: %w", err)
	}
	defer func() {
		for _, sf := range files {
			sf.File.Close()
		}
	}()

	var (
		frameBuf []byte
		zbuf     []byte
		chunk    = make([]byte, seedChunkBytes)
		sent     int64 // wire bytes (post-compression)
		raw      int64 // uncompressed bytes represented
	)
	send := func(typ byte, payload []byte) error {
		sc.c.SetWriteDeadline(time.Now().Add(writeTimeout))
		return writeFrame(sc.c, typ, payload)
	}
	for _, sf := range files {
		frameBuf = appendSeedFilePayload(frameBuf[:0], sf.Name, sf.Size)
		if err := send(frameSeedFile, frameBuf); err != nil {
			return err
		}
		lr := io.LimitReader(sf.File, sf.Size)
		for {
			n, rerr := lr.Read(chunk)
			if n > 0 {
				zbuf = frame.AppendBlock(zbuf[:0], chunk[:n], frame.Flate)
				if err := send(frameSeedChunkZ, zbuf); err != nil {
					return err
				}
				sent += int64(len(zbuf))
				raw += int64(n)
			}
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				return fmt.Errorf("replica: reading seed file %s: %w", sf.Name, rerr)
			}
		}
	}
	frameBuf = appendSeedDonePayload(frameBuf[:0], head)
	if err := send(frameSeedDone, frameBuf); err != nil {
		return err
	}
	s.met.seeds.Inc()
	s.met.seedBytes.Add(uint64(sent))
	s.met.seedRawBytes.Add(uint64(raw))
	s.cfg.Logger.Info("seed streamed", "remote", sc.c.RemoteAddr(),
		"files", len(files), "wire_bytes", sent, "raw_bytes", raw, "head", head)

	// The follower installs the set (rename + fsync + engine reload)
	// and acks its new durable position; allow it generous time.
	sc.c.SetReadDeadline(time.Now().Add(2 * time.Minute))
	typ, payload, _, err := readFrame(sc.c, nil)
	if err != nil {
		return fmt.Errorf("replica: waiting for post-seed ack: %w", err)
	}
	if typ != frameAck {
		return fmt.Errorf("replica: unexpected frame %d instead of post-seed ack", typ)
	}
	seq, err := decodeAckPayload(payload)
	if err != nil {
		return err
	}
	s.noteAck(sc, seq)
	return nil
}

// CheckSeedName is the one rule for a seed file name, applied where a
// leader-supplied name is about to touch the follower's filesystem and
// where the engine reads the names back from its seed-commit marker:
// relative and forward-slash, no empty, "." or ".." element, no
// backslash, and no newline (the marker holds one name per line).
func CheckSeedName(name string) error {
	if name == "" || strings.ContainsAny(name, "\\\n") {
		return fmt.Errorf("replica: invalid seed file name %q", name)
	}
	for _, part := range strings.Split(name, "/") {
		if part == "" || part == "." || part == ".." {
			return fmt.Errorf("replica: invalid seed file name %q", name)
		}
	}
	return nil
}

// reseed downloads a full seed set from the leader into a staging
// directory and installs it through the Seeder, leaving the follower
// ready to reconnect as a normal streaming replica.
func (f *Follower) reseed() error {
	conn, hangUp, err := f.dial()
	if err != nil {
		return err
	}
	defer hangUp()

	if err := writeHandshake(conn, magicSeed, f.cfg.Applier.ReplicationResume()); err != nil {
		return err
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, _, err := readHandshakeReply(conn); err != nil {
		return err
	}

	dir, err := f.cfg.Seeder.BeginSeed()
	if err != nil {
		return err
	}

	var (
		buf     []byte
		cur     *os.File
		curName string
		remain  int64
		total   int64 // raw bytes written to staged files
		wire    int64 // bytes received on the wire
	)
	closeCur := func() error {
		if cur == nil {
			return nil
		}
		if remain != 0 {
			cur.Close()
			return fmt.Errorf("replica: seed file %s short by %d bytes", curName, remain)
		}
		if err := cur.Sync(); err != nil {
			cur.Close()
			return err
		}
		err := cur.Close()
		cur = nil
		return err
	}
	defer func() {
		if cur != nil {
			cur.Close()
		}
	}()
	for {
		conn.SetReadDeadline(time.Now().Add(f.cfg.ReadTimeout))
		typ, payload, nbuf, err := readFrame(conn, buf)
		if err != nil {
			return err
		}
		buf = nbuf
		switch typ {
		case frameSeedFile:
			if err := closeCur(); err != nil {
				return err
			}
			name, size, err := decodeSeedFilePayload(payload)
			if err != nil {
				return err
			}
			if err := CheckSeedName(name); err != nil {
				return err
			}
			path := filepath.Join(dir, filepath.FromSlash(name))
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				return err
			}
			cur, err = os.Create(path)
			if err != nil {
				return err
			}
			curName, remain = name, size
		case frameSeedChunkZ:
			if cur == nil {
				return errors.New("replica: seed chunk before file announcement")
			}
			wire += int64(len(payload))
			data, err := decodeSeedChunk(payload)
			if err != nil {
				return fmt.Errorf("replica: decoding seed chunk for %s: %w", curName, err)
			}
			if int64(len(data)) > remain {
				return fmt.Errorf("replica: seed file %s overflows announced size", curName)
			}
			if _, err := cur.Write(data); err != nil {
				return err
			}
			remain -= int64(len(data))
			total += int64(len(data))
		case frameSeedDone:
			if err := closeCur(); err != nil {
				return err
			}
			head, err := decodeSeedDonePayload(payload)
			if err != nil {
				return err
			}
			if err := f.cfg.Seeder.CommitSeed(dir); err != nil {
				return fmt.Errorf("replica: installing seed: %w", err)
			}
			f.reseeds.Inc()
			f.reseedBytes.Add(uint64(wire))
			f.reseedRawBytes.Add(uint64(total))
			f.cfg.Logger.Info("re-seeded from leader",
				"leader", f.addr, "wire_bytes", wire, "raw_bytes", total,
				"head", head, "resume_after", f.cfg.Applier.ReplicationResume())
			// Ack the installed position so it joins the leader's retain
			// floor before this connection drops; the normal streaming
			// reconnect follows.
			var ackBuf []byte
			ackBuf = appendAckPayload(ackBuf, f.cfg.Applier.ReplicationResume())
			conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
			if err := writeFrame(conn, frameAck, ackBuf); err != nil {
				f.cfg.Logger.Warn("post-seed ack failed; leader floor unpinned until reconnect", "err", err)
			}
			return nil
		default:
			return fmt.Errorf("replica: unexpected frame %d in seed stream", typ)
		}
	}
}

// decodeSeedChunk inflates one seedchunkz payload, refusing a block
// whose header claims more raw bytes (its first u32) than a Source sends.
func decodeSeedChunk(p []byte) ([]byte, error) {
	if len(p) >= 4 && binary.LittleEndian.Uint32(p) > seedChunkBytes {
		return nil, errors.New("replica: seed chunk claims more than seedChunkBytes")
	}
	data, _, err := frame.DecodeBlock(p)
	return data, err
}

var errClosed = errors.New("replica: follower closed")
