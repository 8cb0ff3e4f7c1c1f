package huffman

import (
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// inflate reads a stream back through compress/flate and through
// Decode, which must agree.
func inflate(t testing.TB, stream []byte) []byte {
	t.Helper()
	got, err := io.ReadAll(flate.NewReader(bytes.NewReader(stream)))
	if err != nil {
		t.Fatalf("inflating %d-byte stream: %v", len(stream), err)
	}
	ours, err := Decode([]byte("x"), stream, len(got))
	if err != nil || string(ours[:1]) != "x" || !bytes.Equal(ours[1:], got) {
		t.Fatalf("Decode of a %d-byte stream: %v, %d bytes, want compress/flate's %d", len(stream), err, len(ours)-1, len(got))
	}
	return got
}

// samples are inputs of the shapes that stress the code builder: none,
// one symbol, two, every byte value once, a skew steep enough that an
// unlimited code would pass 11 bits, and uniform noise.
func samples() [][]byte {
	rng := rand.New(rand.NewSource(1))
	skewed := make([]byte, 0, 1<<16)
	for s := 0; s < 256; s++ {
		skewed = append(skewed, bytes.Repeat([]byte{byte(s)}, 1+(1<<16)>>(s/4+1))...)
	}
	rng.Shuffle(len(skewed), func(i, j int) { skewed[i], skewed[j] = skewed[j], skewed[i] })
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	noise := make([]byte, 5000)
	rng.Read(noise)
	return [][]byte{nil, {7}, bytes.Repeat([]byte{0}, 300), []byte("abababababbbbbbbbbbba"), all, skewed, noise}
}

// TestRoundTrip: compress/flate inflates every sample back to itself,
// no literal code passes maxLitLen bits, and a limit the stream reaches
// writes nothing.
func TestRoundTrip(t *testing.T) {
	var e Encoder
	for _, src := range samples() {
		out, ok := e.Append([]byte("prefix"), src, 1<<30)
		if !ok || string(out[:6]) != "prefix" {
			t.Fatalf("%d-byte input: ok %v, prefix %q", len(src), ok, out[:6])
		}
		if got := inflate(t, out[6:]); !bytes.Equal(got, src) {
			t.Fatalf("%d-byte input inflates to %d bytes", len(src), len(got))
		}
		for s, l := range e.litLen {
			if l > maxLitLen {
				t.Fatalf("%d-byte input: symbol %d has a %d-bit code", len(src), s, l)
			}
		}
		n := len(out) - 6
		if again, ok := e.Append(nil, src, n); ok || again != nil {
			t.Fatalf("%d-byte input under a limit of its %d-byte stream: ok %v, %d bytes", len(src), n, ok, len(again))
		}
		if _, ok := e.Append(nil, src, n+1); !ok {
			t.Fatalf("%d-byte input refused under a limit above its %d-byte stream", len(src), n)
		}
	}
}

// TestCodecAllocatesNothing: with room in dst, a warm encoder writes a
// stream, and Decode reads it, without allocating.
func TestCodecAllocatesNothing(t *testing.T) {
	var e Encoder
	src := samples()[5]
	dst := make([]byte, 0, 2*len(src))
	if allocs := testing.AllocsPerRun(20, func() { e.Append(dst[:0], src, 1<<30) }); allocs != 0 {
		t.Fatalf("Append allocates %v times", allocs)
	}
	stream, _ := e.Append(nil, src, 1<<30)
	if allocs := testing.AllocsPerRun(20, func() { Decode(dst[:0], stream, len(src)) }); allocs != 0 {
		t.Fatalf("Decode allocates %v times", allocs)
	}
}

// TestDecodeRefuses: Decode refuses every stream Append does not write,
// compress/flate's among them, and a count the stream cannot hold,
// leaving dst as it was.
func TestDecodeRefuses(t *testing.T) {
	var e Encoder
	src := []byte("abracadabra, abracadabra")
	good, _ := e.Append(nil, src, 1<<30)
	var std bytes.Buffer
	w, _ := flate.NewWriter(&std, flate.HuffmanOnly)
	w.Write(src)
	w.Close()
	patched := func(at int, or byte) []byte {
		b := bytes.Clone(good)
		b[at] |= or
		return b
	}
	for _, tc := range []struct {
		name   string
		stream []byte
		n      int
		want   string
	}{
		{"compress/flate's stream", std.Bytes(), len(src), "not a final dynamic block"},
		{"a reserved block type", patched(0, 3<<1), len(src), "not a final dynamic block"},
		{"more literal codes", patched(0, 1<<3), len(src), "not a final dynamic block"},
		{"more distance codes", patched(1, 1), len(src), "not a final dynamic block"},
		{"a byte after the end", append(bytes.Clone(good), 0), len(src), "after the stream's end"},
		{"a count past 8 bytes a byte", good, 8*len(good) + 1, "literal stream"},
		{"a negative count", good, -1, "literal stream"},
		{"one byte short", good, len(src) + 1, "ends after"},
		{"one byte over", good, len(src) - 1, "inflates past"},
		{"no stream", nil, 0, "not a final dynamic block"},
		{"a cut stream", good[:len(good)-1], len(src), "cut short"},
	} {
		dst := []byte("kept")
		out, err := Decode(dst, tc.stream, tc.n)
		if err == nil || !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.want) || string(out) != "kept" {
			t.Errorf("%s: %q, %v; want dst kept and an error mentioning %q", tc.name, out, err, tc.want)
		}
	}
}

// FuzzAppend: for any input, compress/flate and Decode inflate the
// encoding back to the input, and encoding again, by the same encoder or
// a fresh one, gives the same bytes.
func FuzzAppend(f *testing.F) {
	for _, src := range samples() {
		f.Add(src)
	}
	var e Encoder
	f.Fuzz(func(t *testing.T, src []byte) {
		out, ok := e.Append(nil, src, 1<<30)
		if !ok {
			t.Fatalf("%d-byte input refused under an unreachable limit", len(src))
		}
		if got := inflate(t, out); !bytes.Equal(got, src) {
			t.Fatalf("%d-byte input inflates to %d different bytes", len(src), len(got))
		}
		again, _ := e.Append(nil, src, 1<<30)
		var fresh Encoder
		third, _ := fresh.Append(nil, src, 1<<30)
		if !bytes.Equal(again, out) || !bytes.Equal(third, out) {
			t.Fatalf("%d-byte input encodes differently on a second pass", len(src))
		}
	})
}

// FuzzDecode: Decode never panics, and whatever it accepts compress/flate
// inflates to the same bytes.
func FuzzDecode(f *testing.F) {
	var e Encoder
	for _, src := range samples() {
		stream, _ := e.Append(nil, src, 1<<30)
		f.Add(stream, len(src))
	}
	f.Fuzz(func(t *testing.T, stream []byte, n int) {
		got, err := Decode(nil, stream, n)
		if err != nil {
			return
		}
		std, err := io.ReadAll(flate.NewReader(bytes.NewReader(stream)))
		if err != nil || !bytes.Equal(std, got) {
			t.Fatalf("Decode accepts %x as %d bytes; compress/flate: %v, %d bytes", stream, len(got), err, len(std))
		}
	})
}

// BenchmarkCodec codes and decodes 6 KiB of skewed bytes, about the row
// bytes of a 256-row run record.
func BenchmarkCodec(b *testing.B) {
	src := samples()[5][:6<<10]
	var e Encoder
	stream, _ := e.Append(nil, src, 1<<30)
	dst := make([]byte, 0, 2*len(src))
	b.Run("append", func(b *testing.B) {
		b.SetBytes(int64(len(src)))
		for range b.N {
			e.Append(dst[:0], src, 1<<30)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(src)))
		for range b.N {
			if _, err := Decode(dst[:0], stream, len(src)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
