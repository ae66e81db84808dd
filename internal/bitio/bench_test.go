package bitio

import (
	"math/rand"
	"testing"
)

// benchValues draws the value mix label codecs produce: id gaps, ball
// distances and edge-index gaps, i.e. mostly small numbers with a tail
// of up to 16 significant bits.
func benchValues(n int) []uint64 {
	rng := rand.New(rand.NewSource(42))
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(rng.Intn(1 << uint(1+rng.Intn(16))))
	}
	return vals
}

var benchSink uint64

// gammaStream is vals gamma-coded into a fresh writer, grown from zero
// as Label.Encode grows its own.
func gammaStream(vals []uint64) *Writer {
	var w Writer
	for _, v := range vals {
		w.WriteGamma(v)
	}
	return &w
}

func BenchmarkWriterGamma(b *testing.B) {
	vals := benchValues(4096)
	b.SetBytes(int64(len(gammaStream(vals).Bytes())))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += uint64(gammaStream(vals).Len())
	}
}

func BenchmarkReaderGamma(b *testing.B) {
	vals := benchValues(4096)
	w := gammaStream(vals)
	buf, nbits := w.Bytes(), w.Len()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(buf, nbits)
		for range vals {
			v, err := r.ReadGamma()
			if err != nil {
				b.Fatal(err)
			}
			benchSink += v
		}
	}
}

func BenchmarkReadBits(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	widths := make([]int, 4096)
	var w Writer
	for i := range widths {
		widths[i] = 1 + rng.Intn(24)
		w.WriteBits(rng.Uint64(), widths[i])
	}
	buf, nbits := w.Bytes(), w.Len()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(buf, nbits)
		for _, width := range widths {
			v, err := r.ReadBits(width)
			if err != nil {
				b.Fatal(err)
			}
			benchSink += v
		}
	}
}

// BenchmarkWriteWords appends a 4 KiB coded section behind a 3-bit
// prefix, so every word straddles two of the writer's words.
func BenchmarkWriteWords(b *testing.B) {
	rng := rand.New(rand.NewSource(44))
	var src, w Writer
	for i := 0; i < 511; i++ {
		src.WriteBits(rng.Uint64(), 64)
	}
	src.WriteBits(rng.Uint64(), 59)
	b.SetBytes(int64(src.Len() / 8))
	for i := 0; i < b.N; i++ {
		w.Reset()
		w.WriteBits(5, 3)
		w.WriteWords(&src)
		benchSink += uint64(w.Len())
	}
}
