package packed

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzRecoder: a series of vectors of one length (the input's
// little-endian words after a length byte, bit patterns of every kind),
// each coded on its own by Append, recodes to exactly what Append of
// each vector against the one before appends — the first against none,
// and again after a Reset — with the bytes after each vector's values
// handed back untouched.
func FuzzRecoder(f *testing.F) {
	words := func(nv byte, v ...float64) []byte {
		b := []byte{nv}
		for _, x := range v {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(words(7, 0, 1, 255, 256, 415.3, math.Inf(-1), 1<<48-1, 0, 1, 7, 256, 415.3, math.NaN(), 1<<48-1, 0, 1, 7, 256, 415.4, math.NaN(), 1<<48), uint8(2))
	f.Add(words(3, math.Copysign(0, -1), 1<<48, math.SmallestNonzeroFloat64, math.Copysign(0, -1), 1<<48, 0), uint8(0))
	f.Add(words(1, 3, 3, 3, 4), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, reset uint8) {
		if len(data) == 0 {
			return
		}
		nv := int(data[0] % 8)
		var series [][]float64
		for rest := data[1:]; nv > 0 && len(rest) >= 8*nv; rest = rest[8*nv:] {
			v := make([]float64, nv)
			for i := range v {
				v[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*i:]))
			}
			series = append(series, v)
		}
		var r Recoder
		tail := []byte{0xA5, 0x5A}
		for k, v := range series {
			var prev []float64
			if k == int(reset) {
				r.Reset()
			} else if k > 0 {
				prev = series[k-1]
			}
			got, rest := r.Append([]byte{0xEE}, append(Append(nil, v, nil), tail...), nv)
			if want := Append([]byte{0xEE}, v, prev); !bytes.Equal(got, want) {
				t.Fatalf("vector %d: Recoder appended % x, Append % x", k, got, want)
			}
			if !bytes.Equal(rest, tail) {
				t.Fatalf("vector %d: Recoder left % x, want the % x after the values", k, rest, tail)
			}
		}
	})
}
