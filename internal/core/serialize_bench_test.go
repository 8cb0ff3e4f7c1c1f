package core

import (
	"testing"

	"orfdisk/internal/frame"
	"orfdisk/internal/rng"
)

// Snapshot benchmarks run in one of two forest regimes, named in the
// sub-benchmark so baselines never mix them: "full" (a serving-sized
// forest, the headline number) or, under -short, "smoke" (a CI-sized
// forest for the regression gate — see `make bench-snapshot-smoke`).
// Each codec variant measures one full serialize (or parse) of the
// same trained forest; snap_bytes reports the encoded size, which is
// what the ORF2 flate format exists to shrink.
type snapRegime struct {
	name    string
	trees   int
	samples int
}

func snapBenchRegime() snapRegime {
	if testing.Short() {
		return snapRegime{name: "smoke", trees: 8, samples: 6000}
	}
	return snapRegime{name: "full", trees: 32, samples: 60000}
}

// snapForests caches one trained forest per regime: training dominates
// setup and the benchmarks only read the forest.
var snapForests = map[string]*Forest{}

func snapForest(b *testing.B, reg snapRegime) *Forest {
	b.Helper()
	if f := snapForests[reg.name]; f != nil {
		return f
	}
	cfg := Config{Trees: reg.trees, NumTests: 15, MinParentSize: 30, MinGain: 0.03,
		LambdaPos: 1, LambdaNeg: 1, Seed: 5}
	f := New(3, cfg)
	r := rng.New(17)
	for i := 0; i < reg.samples; i++ {
		x, y := streamSample(r, 0.3, 0.5)
		f.Update(x, y)
	}
	snapForests[reg.name] = f
	return f
}

// snapCodecs are the two on-disk codecs under comparison: orf2-flate
// (parallel per-tree compression, the production format) and orf2-raw
// (same parallel framing, passthrough codec — isolates the flate cost
// and is the uncompressed size the ratio is read against).
var snapCodecs = []struct {
	name  string
	codec frame.Codec
}{
	{"orf2-flate", frame.Flate},
	{"orf2-raw", frame.Raw},
}

// BenchmarkSnapshotEncode appends the forest to a buffer reused across
// iterations, as a snapshot pass does.
func BenchmarkSnapshotEncode(b *testing.B) {
	reg := snapBenchRegime()
	f := snapForest(b, reg)
	for _, v := range snapCodecs {
		b.Run(v.name+"/"+reg.name, func(b *testing.B) {
			var buf []byte
			for i := 0; i < b.N; i++ {
				buf = f.AppendTo(buf[:0], v.codec)
			}
			b.SetBytes(int64(len(buf)))
			b.ReportMetric(float64(len(buf)), "snap_bytes")
		})
	}
}

// BenchmarkSnapshotDecode decodes through DecodeForest, the path
// recovery takes.
func BenchmarkSnapshotDecode(b *testing.B) {
	reg := snapBenchRegime()
	f := snapForest(b, reg)
	for _, v := range snapCodecs {
		enc := f.AppendTo(nil, v.codec)
		b.Run(v.name+"/"+reg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := DecodeForest(enc); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(enc)))
			b.ReportMetric(float64(len(enc)), "snap_bytes")
		})
	}
}
