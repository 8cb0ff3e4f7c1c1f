// An external test package: the payloads come from the root package's
// engine, which imports this one.
package replica_test

import (
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"orfdisk"
	"orfdisk/internal/dataset"
	"orfdisk/internal/replica"
	"orfdisk/internal/smart"
	"orfdisk/internal/wal"
)

// countApplier is the cheapest possible Applier: it counts what arrives
// so the benchmarks measure the wire path (cursor read, framing, CRC,
// TCP, decode) rather than any application cost.
type countApplier struct {
	applied atomic.Uint64
}

func (c *countApplier) ApplyReplicated(recs []replica.Record) error {
	c.applied.Store(recs[len(recs)-1].Seq)
	return nil
}
func (c *countApplier) ReplicationResume() uint64           { return c.applied.Load() }
func (c *countApplier) ObserveLeaderHead(uint64, time.Time) {}

func benchWAL(b *testing.B, dir string, syncInterval time.Duration) *wal.WAL {
	b.Helper()
	// Large count threshold: the benchmarks measure shipping, not the
	// leader's per-record fsync policy. The interval still matters —
	// shipping is gated on durability, so the flusher's cadence is what
	// publishes records to the stream.
	w, err := wal.Open(wal.Options{Dir: dir, SyncBytes: math.MaxInt, SyncInterval: syncInterval})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { w.Close() })
	return w
}

// benchPayloads returns the records production ships: what a leader
// engine logged for the first n observations of a simulated fleet,
// written by the engine's own record writer and read back from its WAL.
func benchPayloads(b *testing.B, n int) (payloads [][]byte, meanBytes int) {
	b.Helper()
	eng, err := orfdisk.NewEngine(orfdisk.EngineConfig{
		Predictor: orfdisk.Config{ORF: orfdisk.ORFConfig{Trees: 2, Seed: 1}}, DataDir: b.TempDir(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	prof := dataset.STA(1)
	prof.GoodDisks, prof.FailedDisks, prof.Months = 60, 20, 6
	g, err := dataset.New(prof, 17)
	if err != nil {
		b.Fatal(err)
	}
	enough := errors.New("enough")
	err = g.Stream(func(s smart.Sample) error {
		if n--; n < 0 {
			return enough
		}
		_, err := eng.Ingest(orfdisk.FleetObservation{Model: prof.Model, Observation: orfdisk.Observation{
			Serial: s.Serial, Day: s.Day, Failed: s.Failure, Values: s.Values,
		}})
		return err
	})
	if err != nil && err != enough {
		b.Fatal(err)
	}
	if err := eng.WAL().Sync(); err != nil {
		b.Fatal(err)
	}
	cur, err := wal.OpenCursor(eng.WAL().Dir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer cur.Close()
	total := 0
	for {
		_, p, err := cur.Next()
		if errors.Is(err, wal.ErrNoMore) {
			return payloads, total / len(payloads)
		}
		if err != nil {
			b.Fatal(err)
		}
		payloads = append(payloads, append([]byte(nil), p...)) // the cursor reuses its buffer
		total += len(p)
	}
}

// benchMode names the regime a benchmark ran in ("smoke" under -short)
// so BENCH_replicate.json can hold both and the smoke gate
// (make bench-replicate-smoke) compares like for like.
func benchMode() string {
	if testing.Short() {
		return "smoke"
	}
	return "full"
}

// BenchmarkReplicationShip measures steady-state live-tail throughput:
// records appended on the leader, streamed over TCP, and delivered to a
// connected follower. bytes/op is the mean record payload (real observe
// records, see benchPayloads), so the reported MB/s is the
// replicated-payload rate. The async variant drains the
// stream after the timed loop (shipping overlaps appends); the sync1
// variant commits synchronously — fsync, ship, follower fsync, ack —
// per op, the floor a -sync-acks 1 deployment pays per write.
func BenchmarkReplicationShip(b *testing.B) {
	mode := benchMode()
	b.Run(mode+"/async", func(b *testing.B) { benchShip(b, 0) })
	b.Run(mode+"/sync1", func(b *testing.B) { benchShip(b, 1) })
}

func benchShip(b *testing.B, syncAcks int) {
	// A fast flusher keeps fsyncs off the timed append path while still
	// making records durable (hence shippable) almost immediately.
	w := benchWAL(b, b.TempDir(), 2*time.Millisecond)
	src, err := replica.NewSource("127.0.0.1:0", replica.SourceConfig{WAL: w})
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	ca := &countApplier{}
	fl, err := replica.StartFollower(src.Addr(), replica.FollowerConfig{Applier: ca})
	if err != nil {
		b.Fatal(err)
	}
	defer fl.Close()

	payloads, mean := benchPayloads(b, 1000)
	b.SetBytes(int64(mean))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq, err := w.Append(payloads[i%len(payloads)])
		if err != nil {
			b.Fatal(err)
		}
		if syncAcks > 0 {
			// Mirror the engine's commit sequence: the record must be
			// durable (and therefore shippable) before waiting on acks.
			if err := w.Sync(); err != nil {
				b.Fatal(err)
			}
			if err := src.WaitAcked(seq, syncAcks, 10*time.Second); err != nil {
				b.Fatal(err)
			}
		}
	}
	last := w.NextSeq() - 1
	for ca.applied.Load() < last {
		if err := fl.Err(); err != nil {
			b.Fatal(err)
		}
		runtime.Gosched()
	}
}

// BenchmarkFollowerCatchup measures a cold follower draining a
// pre-filled leader WAL from offset zero: the restart path. Under
// -short the backlog shrinks so the CI smoke stays fast; the regime
// sub-name keeps the two backlog sizes as separate baseline entries.
func BenchmarkFollowerCatchup(b *testing.B) {
	// The /cold leaf keeps the name shaped <bench>/<regime>/<variant>
	// like the ship benchmarks, which is what the smoke gate's /smoke/
	// match expects.
	b.Run(benchMode()+"/cold", func(b *testing.B) { benchCatchup(b) })
}

func benchCatchup(b *testing.B) {
	backlog := 5000
	if testing.Short() {
		backlog = 1000
	}
	w := benchWAL(b, b.TempDir(), time.Hour)
	payloads, mean := benchPayloads(b, backlog)
	for _, p := range payloads {
		if _, err := w.Append(p); err != nil {
			b.Fatal(err)
		}
	}
	// The whole backlog must be durable before it is shippable.
	if err := w.Sync(); err != nil {
		b.Fatal(err)
	}
	last := w.NextSeq() - 1
	src, err := replica.NewSource("127.0.0.1:0", replica.SourceConfig{WAL: w})
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()

	b.SetBytes(int64(backlog * mean))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ca := &countApplier{}
		fl, err := replica.StartFollower(src.Addr(), replica.FollowerConfig{Applier: ca})
		if err != nil {
			b.Fatal(err)
		}
		for ca.applied.Load() < last {
			if err := fl.Err(); err != nil {
				fl.Close()
				b.Fatal(err)
			}
			runtime.Gosched()
		}
		fl.Close()
	}
	b.ReportMetric(float64(backlog), "records/op")
}
