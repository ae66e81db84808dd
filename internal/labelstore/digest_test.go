package labelstore

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"fsdl/internal/gen"
)

// recordOffsets returns the byte offset where each of the store's
// records begins inside its FSDL2 Write output, in ascending vertex
// order, plus the ordered vertex list. Offsets are recomputed from the
// container format, so a test can cut or corrupt a *specific* record
// and then assert the salvage report names exactly that vertex.
func recordOffsets(t *testing.T, st *Store, raw []byte) (ids []int, offsets []int) {
	t.Helper()
	uvlen := func(x uint64) int {
		var b [binary.MaxVarintLen64]byte
		return binary.PutUvarint(b[:], x)
	}
	ids = st.Vertices()
	off := len("FSDL2") + uvlen(uint64(st.NumVertices())) + uvlen(uint64(len(ids)))
	for _, v := range ids {
		offsets = append(offsets, off)
		bits, data, ok := st.Raw(v)
		if !ok {
			t.Fatalf("store lost vertex %d", v)
		}
		off += uvlen(uint64(v)) + uvlen(uint64(bits)) + len(data) + 4
	}
	if off != len(raw) {
		t.Fatalf("container arithmetic off: computed %d bytes, file has %d", off, len(raw))
	}
	return ids, offsets
}

// TestSalvageTruncatedMidRecord cuts an FSDL2 partition file in the middle
// of a known record and asserts the salvage keeps exactly the records
// before the cut — the lost suffix is identified precisely, which is
// what lets a salvaged shard answer "unknown" for the right vertices.
func TestSalvageTruncatedMidRecord(t *testing.T) {
	g := gen.Grid2D(6, 6)
	s := buildScheme(t, g)
	var buf bytes.Buffer
	if err := Save(&buf, s, nil); err != nil {
		t.Fatal(err)
	}
	full, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ids, offsets := recordOffsets(t, full, buf.Bytes())

	// Cut halfway into record k: k records survive, the rest are gone.
	k := len(ids) / 2
	next := len(buf.Bytes())
	if k+1 < len(offsets) {
		next = offsets[k+1]
	}
	cut := buf.Bytes()[:offsets[k]+(next-offsets[k])/2]

	st, rep, err := LoadPartial(bytes.NewReader(cut))
	if err != nil {
		t.Fatalf("salvage of mid-record cut failed outright: %v", err)
	}
	if !rep.Truncated {
		t.Fatalf("mid-record cut not reported as truncation: %+v", rep)
	}
	if len(rep.Corrupt) != 0 {
		t.Fatalf("pure truncation misreported corrupt records %v", rep.Corrupt)
	}
	if rep.Kept != k {
		t.Fatalf("salvage kept %d records, want exactly the %d before the cut", rep.Kept, k)
	}
	for i, v := range ids {
		if got, want := st.Has(v), i < k; got != want {
			t.Fatalf("vertex %d: Has=%v, want %v (cut before record %d)", v, got, want, k)
		}
	}
	// Raw on a lost vertex reports absence rather than stale bytes.
	if _, _, ok := st.Raw(ids[k]); ok {
		t.Fatalf("Raw(%d) returned data for a truncated-away record", ids[k])
	}
}

// TestSalvageCRCMismatchLastRecord flips one payload bit in the final
// record and asserts the salvage report names exactly that vertex —
// framing holds, so nothing else may be dropped or misattributed.
func TestSalvageCRCMismatchLastRecord(t *testing.T) {
	g := gen.Grid2D(6, 6)
	s := buildScheme(t, g)
	var buf bytes.Buffer
	if err := Save(&buf, s, nil); err != nil {
		t.Fatal(err)
	}
	full, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ids, _ := recordOffsets(t, full, buf.Bytes())
	last := ids[len(ids)-1]

	// Offset len-5 is the last payload byte (labels are never empty),
	// just before the 4-byte record checksum: the framing stays intact
	// and only the CRC can notice.
	bad := slices.Clone(buf.Bytes())
	bad[len(bad)-5] ^= 0x01

	st, rep, err := LoadPartial(bytes.NewReader(bad))
	if err != nil {
		t.Fatalf("salvage failed outright: %v", err)
	}
	if rep.Truncated {
		t.Fatalf("intact framing misreported as truncation: %+v", rep)
	}
	if len(rep.Corrupt) != 1 || rep.Corrupt[0] != int32(last) {
		t.Fatalf("Corrupt = %v, want exactly [%d]", rep.Corrupt, last)
	}
	if rep.Kept != len(ids)-1 {
		t.Fatalf("kept %d records, want %d", rep.Kept, len(ids)-1)
	}
	if _, _, ok := st.Raw(last); ok {
		t.Fatalf("Raw(%d) served a corrupt record", last)
	}
	// Every surviving record is byte-identical to the original.
	for _, v := range ids[:len(ids)-1] {
		wb, wd, _ := full.Raw(v)
		gb, gd, ok := st.Raw(v)
		if !ok || gb != wb || !bytes.Equal(gd, wd) {
			t.Fatalf("surviving record %d altered by salvage", v)
		}
	}
}

// TestPutRepairsEmptyStoreToDigestEquality replays the anti-entropy
// flow at the store level: an empty replacement store, fed records via
// Put, converges to digest equality with its source — and the digest
// disagrees at every intermediate step.
func TestPutRepairsEmptyStoreToDigestEquality(t *testing.T) {
	g := gen.Grid2D(5, 5)
	s := buildScheme(t, g)
	var buf bytes.Buffer
	if err := Save(&buf, s, nil); err != nil {
		t.Fatal(err)
	}
	src, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewEmpty(src.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEmpty(0); err == nil {
		t.Fatal("NewEmpty(0) accepted an empty vertex space")
	}

	all := make([]int32, src.NumVertices())
	for i := range all {
		all[i] = int32(i)
	}
	wantDigest, wantPresent, srcMissing := src.DigestVertices(all)
	if wantPresent != len(all) || len(srcMissing) != 0 {
		t.Fatalf("full store digests as incomplete: present=%d missing=%v", wantPresent, srcMissing)
	}
	_, _, missing := dst.DigestVertices(all)
	if len(missing) != len(all) {
		t.Fatalf("empty store misses %d of %d ids", len(missing), len(all))
	}

	for i, v := range src.Vertices() {
		bits, data, _ := src.Raw(v)
		if err := dst.Put(v, bits, data); err != nil {
			t.Fatalf("Put(%d): %v", v, err)
		}
		d, p, m := dst.DigestVertices(all)
		if done := i == len(all)-1; done != (d == wantDigest && len(m) == 0) {
			t.Fatalf("after %d puts: digest match=%v missing=%d present=%d, want convergence only at the end",
				i+1, d == wantDigest, len(m), p)
		}
	}
	if dst.NumLabels() != src.NumLabels() {
		t.Fatalf("repaired store holds %d labels, want %d", dst.NumLabels(), src.NumLabels())
	}

	// Idempotence and conflict rejection.
	bits, data, _ := src.Raw(3)
	if err := dst.Put(3, bits, data); err != nil {
		t.Fatalf("identical re-put rejected: %v", err)
	}
	otherBits, otherData, _ := src.Raw(4)
	if err := dst.Put(3, otherBits, otherData); err == nil {
		t.Fatal("conflicting record for a held vertex accepted")
	}
	// Garbage and out-of-range rejections.
	if err := dst.Put(5, 16, []byte{0xff, 0xff}); err == nil {
		t.Fatal("undecodable record accepted")
	}
	if err := dst.Put(src.NumVertices(), bits, data); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
	if err := dst.Put(3, bits, data[:0]); err == nil {
		t.Fatal("payload/bit-length mismatch accepted")
	}
}
