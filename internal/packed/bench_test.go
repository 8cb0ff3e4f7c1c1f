package packed

import (
	"testing"

	"orfdisk/internal/dataset"
	"orfdisk/internal/smart"
)

// fleetVectors is the paper's 19 features of a month of a small
// simulated fleet, the vectors a labeling queue holds.
func fleetVectors(b testing.TB) [][]float64 {
	prof := dataset.STA(1)
	prof.GoodDisks, prof.FailedDisks, prof.Months = 40, 0, 1
	g, err := dataset.New(prof, 7)
	if err != nil {
		b.Fatal(err)
	}
	var out [][]float64
	g.Stream(func(s smart.Sample) error {
		out = append(out, smart.Project(s.Values, smart.SelectedIndexes()))
		return nil
	})
	return out
}

// BenchmarkCodec codes and decodes SMART vectors on their own, as a
// labeling queue does for every sample it holds: per vector.
func BenchmarkCodec(b *testing.B) {
	vecs := fleetVectors(b)
	var packed [][]byte
	for _, v := range vecs {
		packed = append(packed, append(Append(nil, v, nil), make([]byte, 8)...))
	}
	b.Run("append", func(b *testing.B) {
		buf := make([]byte, 0, 512)
		for i := 0; i < b.N; i++ {
			buf = Append(buf[:0], vecs[i%len(vecs)], nil)
		}
	})
	b.Run("decode", func(b *testing.B) {
		x := make([]float64, len(vecs[0]))
		for i := 0; i < b.N; i++ {
			if _, err := DecodeInto(x, packed[i%len(packed)], nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
