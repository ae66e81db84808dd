package core

import "testing"

// grid24Label is the label the codec benchmarks run on: the centre
// vertex of the 24×24 grid at ε = 2, the graph of BENCH_PR*.json.
func grid24Label(b *testing.B) *Label {
	b.Helper()
	s, err := BuildScheme(gridGraph(b, 24, 24), 2)
	if err != nil {
		b.Fatal(err)
	}
	return s.Label(24*12 + 12)
}

var codecSink int

func BenchmarkLabelEncode(b *testing.B) {
	l := grid24Label(b)
	_, nbits := l.Encode()
	b.SetBytes(int64((nbits + 7) / 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, n := l.Encode()
		codecSink += n
	}
}

func BenchmarkDecodeLabel(b *testing.B) {
	buf, nbits := grid24Label(b).Encode()
	b.SetBytes(int64((nbits + 7) / 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := DecodeLabel(buf, nbits)
		if err != nil {
			b.Fatal(err)
		}
		codecSink += len(l.Levels)
	}
}
