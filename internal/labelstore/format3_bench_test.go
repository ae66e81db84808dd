package labelstore

import "testing"

// BenchmarkDecodeRecord3 parses the self-contained compressed record of
// the centre vertex of the committed grid 6×6 file of that encoding —
// the cold-label path of a store written before the factored form, which
// is still read.
func BenchmarkDecodeRecord3(b *testing.B) {
	st, err := Open(pre17FSDL3c)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	const v = 6*3 + 3
	_, payload, ok := st.f3.storedPayload(v)
	if !ok {
		b.Fatal("fixture record unreadable")
	}
	prm := st.f3.hdr.prm
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeRecord3(payload, v, prm); err != nil {
			b.Fatal(err)
		}
	}
}
