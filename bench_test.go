// Throughput benchmarks of the online path a deployment pays per SMART
// snapshot. The benchmarks regenerating the paper's tables and figures
// run the experiment protocols and live beside them, in internal/eval.
package orfdisk

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"
	"time"

	"orfdisk/internal/core"
	"orfdisk/internal/dataset"
	"orfdisk/internal/labeling"
	"orfdisk/internal/smart"
)

// benchProfile is a small STA-like fleet.
func benchProfile(months int) dataset.Profile {
	p := dataset.STA(1)
	p.GoodDisks, p.FailedDisks, p.Months = 250, 60, months
	return p
}

// BenchmarkPredictorIngest measures Algorithm 2 end to end per
// observation (queue rotation, scaling, forest update, prediction).
func BenchmarkPredictorIngest(b *testing.B) {
	g, err := dataset.New(benchProfile(6), 11)
	if err != nil {
		b.Fatal(err)
	}
	var obs []Observation
	for _, m := range g.Disks()[:100] {
		for _, s := range g.DiskSamples(m) {
			obs = append(obs, Observation{
				Serial: s.Serial, Day: s.Day, Failed: s.Failure, Values: s.Values,
			})
		}
	}
	p := NewPredictor(Config{ORF: ORFConfig{Trees: 30, Seed: 1}})
	// Warm: one pass over the stream so queues, scratch buffers and the
	// projection free-list reach steady state before measuring.
	for _, o := range obs {
		if _, err := p.Ingest(o); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Ingest(obs[i%len(obs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLabelerSteadyState isolates the labeling layer: a stable
// fleet cycling through full queues. The ring-buffer conversion makes
// this allocation-free (the slice-backed queue allocated on every
// enqueue once its backing array had resliced forward).
func BenchmarkLabelerSteadyState(b *testing.B) {
	const disks = 64
	l := labeling.NewLabeler(7, func(labeling.Labeled) {})
	serials := make([]string, disks)
	x := smartVector()
	for i := range serials {
		serials[i] = fmt.Sprintf("disk-%04d", i)
	}
	for day := 0; day < 8; day++ { // fill every queue to capacity
		for _, s := range serials {
			l.Observe(s, x, day)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Observe(serials[i%disks], x, 8+i/disks)
	}
}

// BenchmarkUpdateBatch measures the forest update per sample, fed one
// sample at a time and in 256-sample batches (UpdateBatch is a loop over
// Update, so the two should agree). lambda_n = 0.02 is the paper's
// default, where a negative sample is an out-of-bag leaf walk; lambda_n
// = 1 trains on every sample, roughly ten times the work, and is the
// only regime earlier baselines recorded. Replacement is off so that
// the cost does not depend on when a tree was last regrown.
func BenchmarkUpdateBatch(b *testing.B) {
	const maxChunk = 256
	X := make([][]float64, maxChunk)
	Y := make([]int, maxChunk)
	for i := range X {
		v := smartVector()
		for j := range v {
			v[j] = float64((i*19+j)%97) / 97
		}
		X[i], Y[i] = v, i%20/19
	}
	for _, lambdaNeg := range []float64{0.02, 1} {
		for _, chunk := range []int{1, maxChunk} {
			b.Run(fmt.Sprintf("lambdan=%v/chunk=%d", lambdaNeg, chunk), func(b *testing.B) {
				f := core.New(19, core.Config{Trees: 32, Seed: 1, LambdaNeg: lambdaNeg, DisableReplacement: true})
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i += chunk {
					o := i % maxChunk // every case cycles through the same samples
					f.UpdateBatch(X[o:o+chunk], Y[o:o+chunk])
				}
			})
		}
	}
}

// BenchmarkEngineIngestBatch contrasts per-observation Engine.Ingest
// with IngestBatch at batch size 64 over 4 drive models, on a durable
// engine (WAL in the loop, so the batch variant exercises the
// shard-grouped wal.AppendBatch path). Per-op cost is per observation
// in both variants.
func BenchmarkEngineIngestBatch(b *testing.B) {
	const (
		nModels = 4
		batch   = 64
	)
	g, err := dataset.New(benchProfile(6), 17)
	if err != nil {
		b.Fatal(err)
	}
	var obs []FleetObservation
	for _, m := range g.Disks()[:100] {
		for _, s := range g.DiskSamples(m) {
			obs = append(obs, FleetObservation{
				Model: modelForSerial(s.Serial, nModels),
				Observation: Observation{
					Serial: s.Serial, Day: s.Day, Failed: s.Failure, Values: s.Values,
				},
			})
		}
	}
	// Chronological order, the shape a collector's batch actually has: a
	// 64-observation window then spans many disks (and all 4 models), so
	// IngestBatch's per-shard grouping has real groups to vectorize.
	sort.SliceStable(obs, func(i, j int) bool { return obs[i].Day < obs[j].Day })
	// A light forest keeps the model update from drowning out what this
	// benchmark measures: the serving layer's fixed per-observation costs
	// (mailbox round trips, WAL framing and write syscalls, routing),
	// which are exactly what batching amortizes.
	cfg := Config{ORF: ORFConfig{Trees: 5, Seed: 1}}
	newEngine := func(b *testing.B) *Engine {
		// Push group commit past the measurement window: fsync cadence is
		// a durability constant identical per record in both variants, so
		// leaving it in only flattens the comparison of the costs batching
		// actually changes (write syscalls, mailbox round trips, routing).
		eng, err := NewEngine(EngineConfig{
			Predictor: cfg, DataDir: b.TempDir(),
			SyncBytes: math.MaxInt, SyncInterval: time.Hour,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { eng.Close() })
		return eng
	}
	b.Run("item-by-item", func(b *testing.B) {
		eng := newEngine(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Ingest(obs[i%len(obs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch64", func(b *testing.B) {
		eng := newEngine(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += batch {
			lo := i % (len(obs) - batch)
			for _, r := range eng.IngestBatch(obs[lo : lo+batch]) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	})
}

// BenchmarkRecordCodec measures the observe-record codec per row (an op
// is a row, whatever the record holds) over a simulated fleet's stream in
// day order, each row projected onto the paper's 19 features as a writer
// frames it: run256 is the run record a shard slice of a batch becomes,
// run1 the run of one a single Ingest writes. Encode frames into reused
// scratch, as the engine does; decode is decodeRecord of the same
// payloads. B/row is the mean payload per row — what a row costs on the
// replication wire and, with the log's 16-byte frame header per record
// (wal_B/row), in the WAL.
func BenchmarkRecordCodec(b *testing.B) {
	g, err := dataset.New(benchProfile(2), 17)
	if err != nil {
		b.Fatal(err)
	}
	feats := DefaultFeatures()
	var obs []FleetObservation
	err = g.Stream(func(s smart.Sample) error {
		obs = append(obs, FleetObservation{Model: "ST4000DM000", Observation: Observation{
			Serial: s.Serial, Day: s.Day, Failed: s.Failure, Values: smart.Project(s.Values, feats),
		}})
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	obs = obs[:len(obs)/256*256]
	for _, tc := range []struct {
		name  string
		rows  int // per record
		frame func(enc *recordBatch, rows []FleetObservation)
	}{
		{"run256", 256, func(enc *recordBatch, rows []FleetObservation) {
			enc.beginRun(recObserveRun, &rows[0], feats, len(rows))
			for i := range rows {
				enc.addRow(&rows[i], rows[i].Values)
			}
		}},
		{"run1", 1, func(enc *recordBatch, rows []FleetObservation) {
			enc.beginRun(recObserveRun, &rows[0], feats, 1)
			enc.addRow(&rows[0], rows[0].Values)
		}},
	} {
		var (
			payloads [][]byte
			total    int
			enc      recordBatch
		)
		for lo := 0; lo < len(obs); lo += tc.rows {
			enc.reset()
			tc.frame(&enc, obs[lo:lo+tc.rows])
			payloads = append(payloads, append([]byte(nil), enc.buf...))
			total += len(enc.buf)
		}
		report := func(b *testing.B) {
			b.ReportMetric(float64(total)/float64(len(obs)), "B/row")
			b.ReportMetric(float64(total+16*len(payloads))/float64(len(obs)), "wal_B/row")
		}
		b.Run(tc.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n += tc.rows {
				lo := n % len(obs)
				enc.reset()
				tc.frame(&enc, obs[lo:lo+tc.rows])
			}
			report(b)
		})
		b.Run(tc.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n += tc.rows {
				if _, err := decodeRecord(payloads[n/tc.rows%len(payloads)]); err != nil {
					b.Fatal(err)
				}
			}
			report(b)
			// One values slab a run, not one slice a row: the rows, the slab,
			// the model and the index list, then a serial per row.
			if allocs := testing.AllocsPerRun(10, func() { decodeRecord(payloads[0]) }); allocs > float64(tc.rows+4) {
				b.Fatalf("decoding a %d-row record allocates %v times, want at most %d", tc.rows, allocs, tc.rows+4)
			}
		})
	}
}

// codecFleet is a predictor that has absorbed a month of a 2,050-disk
// fleet: 2,000 or more full queues (7 days of the paper's 19 features
// each) beside a young forest.
func codecFleet(tb testing.TB) *Predictor {
	tb.Helper()
	prof := dataset.STA(1)
	prof.GoodDisks, prof.FailedDisks, prof.Months = 2050, 0, 1 // a few enter service after the month ends
	g, err := dataset.New(prof, 23)
	if err != nil {
		tb.Fatal(err)
	}
	p := NewPredictor(Config{ORF: ORFConfig{Seed: 1}})
	err = g.Stream(func(s smart.Sample) error {
		return p.Absorb(Observation{Serial: s.Serial, Day: s.Day, Failed: s.Failure, Values: s.Values})
	})
	if err != nil {
		tb.Fatal(err)
	}
	if p.TrackedDisks() < 2000 || p.PendingSamples() < 7*2000 {
		tb.Fatalf("%d disks, %d queued samples: want 2000 full queues", p.TrackedDisks(), p.PendingSamples())
	}
	return p
}

// labelerBytesPerDisk is the heap p's labeling queues hold per tracked
// disk: p's labeler is dropped and rebuilt from p's saved state, and the
// HeapAlloc after a collection with the rebuilt one, less the HeapAlloc
// after one without any, is divided by the disks it tracks. The serials
// it keys by count (restored, they are its own). Nothing else may run
// meanwhile: the tests and benchmarks of this package do not run in
// parallel.
func labelerBytesPerDisk(tb testing.TB, p *Predictor) float64 {
	heap := func() int64 {
		runtime.GC()
		runtime.GC() // and what a sync.Pool kept through the first
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	state := saveState(tb, p)
	queues := state[queueOffset(tb, p) : len(state)-4]
	p.labeler = nil
	without := heap()
	p.bindLabeler()
	if err := p.decodeQueues(queues); err != nil {
		tb.Fatal(err)
	}
	with := heap()
	runtime.KeepAlive(queues) // in both counts
	return float64(with-without) / float64(p.TrackedDisks())
}

// BenchmarkStateCodec measures SaveState and LoadPredictorState on what
// dominates a snapshot: the labeling queues of a 2,000-disk fleet
// (codecFleet). state_bytes is the size of the saved state, queue_B/disk
// what the live queues hold in memory per tracked disk
// (labelerBytesPerDisk).
func BenchmarkStateCodec(b *testing.B) {
	p := codecFleet(b)
	queueBytes := labelerBytesPerDisk(b, p)
	var state bytes.Buffer
	if err := p.SaveState(&state); err != nil {
		b.Fatal(err)
	}
	b.Run("save", func(b *testing.B) {
		var buf bytes.Buffer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := p.SaveState(&buf); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(state.Len()), "state_bytes")
		b.ReportMetric(queueBytes, "queue_B/disk")
	})
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := LoadPredictorState(bytes.NewReader(state.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(state.Len()), "state_bytes")
		b.ReportMetric(queueBytes, "queue_B/disk")
	})
}

func smartVector() []float64 {
	v := make([]float64, 19)
	for i := range v {
		v[i] = float64(i) / 19
	}
	return v
}
