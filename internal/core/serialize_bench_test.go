package core

import (
	"bytes"
	"io"
	"testing"

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

// snapVariants are the two on-disk codecs under comparison: orf2-flate
// (parallel per-tree compression, the production format) and orf2-raw
// (same parallel framing, passthrough codec — isolates the flate cost
// and is the uncompressed size the ratio is read against).
func snapVariants(f *Forest) []struct {
	name string
	fn   func(io.Writer) (int64, error)
} {
	return []struct {
		name string
		fn   func(io.Writer) (int64, error)
	}{
		{"orf2-flate", f.WriteTo},
		{"orf2-raw", f.WriteToRaw},
	}
}

func BenchmarkSnapshotEncode(b *testing.B) {
	reg := snapBenchRegime()
	f := snapForest(b, reg)
	for _, v := range snapVariants(f) {
		b.Run(v.name+"/"+reg.name, func(b *testing.B) {
			var n int64
			for i := 0; i < b.N; i++ {
				var err error
				if n, err = v.fn(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(n)
			b.ReportMetric(float64(n), "snap_bytes")
		})
	}
}

func BenchmarkSnapshotDecode(b *testing.B) {
	reg := snapBenchRegime()
	f := snapForest(b, reg)
	for _, v := range snapVariants(f) {
		var buf bytes.Buffer
		if _, err := v.fn(&buf); err != nil {
			b.Fatal(err)
		}
		b.Run(v.name+"/"+reg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ReadForest(bytes.NewReader(buf.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(buf.Len()))
			b.ReportMetric(float64(buf.Len()), "snap_bytes")
		})
	}
}
