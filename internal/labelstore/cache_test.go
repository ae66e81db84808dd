package labelstore

import (
	"bytes"
	"sync"
	"testing"

	"fsdl/internal/gen"
)

// TestDecodedCacheSecondTouchAdmission: behind a decoded-label LRU
// smaller than the vertex set, a label is admitted the second time its
// vertex is decoded — a single sweep over the vertex set leaves the
// cache empty, a repeated vertex is resident from its second lookup on
// — and DropCaches gives everything back without forgetting which
// vertices were seen. A cache that holds every vertex admits at once.
func TestDecodedCacheSecondTouchAdmission(t *testing.T) {
	s := buildScheme(t, gen.Grid2D(6, 6))
	st, err := Open(writeFormat3File(t, t.TempDir(), "c.fsdl3", s, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Label(3); err != nil || st.cache.Len() != 1 {
		t.Fatalf("36 vertices behind %d slots: first touch cached %d labels (err %v), want 1", DefaultDecodedCacheSize, st.cache.Len(), err)
	}
	st.SetDecodedCacheCapacity(16)
	h0, m0 := st.LabelCacheStats()
	stats := func() [2]int64 {
		h, m := st.LabelCacheStats()
		return [2]int64{h - h0, m - m0}
	}
	for v := 0; v < 36; v++ {
		if _, err := st.Label(v); err != nil {
			t.Fatal(err)
		}
	}
	if n := st.cache.Len(); n != 0 || stats() != [2]int64{0, 36} {
		t.Fatalf("after one sweep: %d cached, hits/misses %v; want nothing cached, 0/36", n, stats())
	}
	second, _ := st.Label(7)
	if n := st.cache.Len(); n != 1 || stats() != [2]int64{0, 37} {
		t.Fatalf("second touch: %d cached, hits/misses %v; want 1 cached, 0/37", n, stats())
	}
	if third, _ := st.Label(7); third != second || stats() != [2]int64{1, 37} {
		t.Fatalf("third touch: hits/misses %v, shared label %v; want a hit on the second touch's label", stats(), third == second)
	}

	st.DropCaches()
	if st.cache.Len() != 0 {
		t.Fatalf("DropCaches left %d labels", st.cache.Len())
	}
	// Seen before the drop: one cold decode, resident again.
	if l, err := st.Label(7); err != nil || l == second || st.cache.Len() != 1 {
		t.Fatalf("lookup after DropCaches: err %v, stale label %v, %d cached", err, l == second, st.cache.Len())
	}
}

// TestAdmissionFilterBoundedByRecords: the second-touch filter is sized
// from the records a store holds, never from the header's n alone. A
// header declaring 2^36..2^64−1 vertices over no records loads an empty
// store with no filter (it used to allocate n/8 bytes, or panic in
// makeslice), and so does a store too sparse for one word per record.
func TestAdmissionFilterBoundedByRecords(t *testing.T) {
	for _, h := range hostileHeaders {
		for _, partial := range []bool{false, true} {
			st, _, err := load(bytes.NewReader(h), partial)
			if err != nil || st.NumLabels() != 0 || st.touched != nil {
				t.Fatalf("header %x (partial=%v): err %v, filter of %d words", h, partial, err, len(st.touched))
			}
		}
	}
	st, err := NewEmpty(1 << 40)
	if err != nil {
		t.Fatal(err)
	}
	st.SetDecodedCacheCapacity(1)
	if st.touched != nil {
		t.Fatalf("empty store over 2^40 vertices got a filter of %d words", len(st.touched))
	}
	// Two records in a 2^20-vertex space behind a one-slot LRU: more
	// labels than slots, but 16384 words for 2 records — first-touch.
	s := buildScheme(t, gen.Grid2D(6, 6))
	var buf bytes.Buffer
	if err := Save(&buf, s, []int{3, 7}); err != nil {
		t.Fatal(err)
	}
	src, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sparse, _ := NewEmpty(1 << 20)
	for _, v := range []int{3, 7} {
		bits, data, _ := src.Raw(v)
		if err := sparse.Put(v, bits, data); err != nil {
			t.Fatal(err)
		}
	}
	sparse.SetDecodedCacheCapacity(1)
	if _, err := sparse.Label(3); err != nil || sparse.touched != nil || sparse.cache.Len() != 1 {
		t.Fatalf("sparse store: err %v, filter of %d words, %d cached after one lookup", err, len(sparse.touched), sparse.cache.Len())
	}
}

// TestDecodedCacheConcurrentTouch: concurrent first and second touches
// of the same vertices (run under -race).
func TestDecodedCacheConcurrentTouch(t *testing.T) {
	s := buildScheme(t, gen.Grid2D(6, 6))
	st, err := Open(canonicalFSDL3) // canonical records: their lists go through the level table
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.SetDecodedCacheCapacity(16)
	// Every label comes back with its level lists interned — or not, when
	// the table was just dropped under it — and is the stored record
	// either way.
	want := make([][]byte, 36)
	for v := range want {
		want[v], _ = s.Label(v).Encode()
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v := (i*7 + w) % 36
				l, err := st.Label(v)
				if err != nil {
					t.Error(err)
					return
				}
				if got, _ := l.Encode(); !bytes.Equal(got, want[v]) {
					t.Errorf("label %d read beside DropCaches is not the stored record", v)
					return
				}
				if i%50 == 0 && w == 0 {
					st.DropCaches()
				}
			}
		}(w)
	}
	wg.Wait()
	if h, m := st.LabelCacheStats(); h+m != 1600 || m < 72 {
		t.Fatalf("%d hits + %d misses over 1600 lookups of 36 vertices", h, m)
	}
}
