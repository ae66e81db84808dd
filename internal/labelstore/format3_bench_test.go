package labelstore

import (
	"testing"

	"fsdl/internal/bitio"
	"fsdl/internal/core"
	"fsdl/internal/gen"
)

// BenchmarkDecodeRecord3 parses the compressed FSDL3 record of the
// centre vertex of the 24×24 grid at ε = 2 — the cold-label path of a
// compressed store.
func BenchmarkDecodeRecord3(b *testing.B) {
	s, err := core.BuildScheme(gen.Grid2D(24, 24), 2)
	if err != nil {
		b.Fatal(err)
	}
	l := s.Label(24*12 + 12)
	var w bitio.Writer
	if err := encodeRecord3(l, &w); err != nil {
		b.Fatal(err)
	}
	payload, prm := w.Bytes(), paramsOf(l)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeRecord3(payload, l.V, prm); err != nil {
			b.Fatal(err)
		}
	}
}
