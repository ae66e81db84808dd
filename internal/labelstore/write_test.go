package labelstore

import (
	"bytes"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"fsdl/internal/gen"
)

// sinks are the three containers Write produces.
var sinks = []struct {
	name              string
	format3, compress bool
}{
	{"FSDL2", false, false},
	{"FSDL3", true, false},
	{"FSDL3c", true, true},
}

// writeBytes runs one Write into a fresh file and returns what landed.
func writeBytes(t *testing.T, src Source, ids []int, format3, compress bool) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "out.fsdl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := Write(f, src, ids, format3, compress); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGoldenContainers pins the exact bytes of each container for one
// fixed scheme to CRCs computed at the commit before the writers were
// collapsed into Write (PR 11, 2537cc1). A round trip only proves a
// writer agrees with its own reader; this catches a byte that changes
// across commits — a re-encoded record, a reordered header field —
// which every deployed store and every incremental splice depends on
// not happening by accident. A deliberate format change updates the
// constants and says so.
func TestGoldenContainers(t *testing.T) {
	s := buildScheme(t, gen.Grid2D(6, 6)) // ε = 2
	golden := []struct {
		crc  uint32
		size int
	}{
		{0x07b1f828, 10812},
		{0x1593b28b, 18745},
		{0xc3e35ed6, 15238},
	}
	for i, sk := range sinks {
		got := writeBytes(t, FromScheme(s), nil, sk.format3, sk.compress)
		if crc := crc32.ChecksumIEEE(got); crc != golden[i].crc || len(got) != golden[i].size {
			t.Errorf("%s container: crc %#08x over %d bytes, golden %#08x over %d",
				sk.name, crc, len(got), golden[i].crc, golden[i].size)
		}
	}
}

// TestWriteMatrix is the byte-identity gate of the whole pipeline: for
// every sink, every source — spliced over or copied out of every kind
// of store — must produce exactly the bytes the scheme source does for
// the same ids.
func TestWriteMatrix(t *testing.T) {
	g := gen.Grid2D(8, 8)
	s := buildScheme(t, g)
	dir := t.TempDir()
	const victim = 27

	// The previous-generation stores: heap FSDL2, mapped FSDL3 in both
	// payload encodings, and a compressed FSDL3 whose victim record is
	// damaged on disk and healed through the Put overlay.
	var buf bytes.Buffer
	if err := Save(&buf, s, nil); err != nil {
		t.Fatal(err)
	}
	prev2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	stores := map[string]*Store{"FSDL2": prev2}
	for _, sk := range sinks[1:] {
		st, err := Open(writeFormat3File(t, dir, "prev."+sk.name, s, nil, sk.compress))
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		stores[sk.name] = st
	}
	healedPath := writeFormat3File(t, dir, "healed.FSDL3c", s, nil, true)
	e, _, ok := stores["FSDL3c"].f3.find(victim)
	if !ok {
		t.Fatal("victim record missing")
	}
	corruptFileByte(t, healedPath, int64(stores["FSDL3c"].f3.hdr.dataOff)+int64(e.off)+int64(e.length)/2)
	healed, err := Open(healedPath)
	if err != nil {
		t.Fatal(err)
	}
	defer healed.Close()
	if _, err := healed.Label(victim); err == nil {
		t.Fatal("damaged record decoded")
	}
	data, bits := s.Label(victim).Encode()
	if err := healed.Put(victim, bits, data); err != nil {
		t.Fatalf("heal: %v", err)
	}
	stores["healed"] = healed

	subset := []int{5, 9, 11, 12, victim, 40, 63}
	for _, sk := range sinks {
		for _, ids := range [][]int{nil, subset} {
			want := writeBytes(t, FromScheme(s), ids, sk.format3, sk.compress)
			for name, st := range stores {
				// victim stays clean in both splices, so it is always
				// copied, never re-extracted.
				for kind, src := range map[string]Source{
					"store":               st,
					"spliced, none dirty": Spliced(s, st, nil),
					"spliced, 3 dirty":    Spliced(s, st, []int32{3, 12, 63}),
				} {
					if got := writeBytes(t, src, ids, sk.format3, sk.compress); !bytes.Equal(got, want) {
						t.Errorf("%s sink, %s over a %s store (%d ids): differs from the scheme source",
							sk.name, kind, name, len(ids))
					}
				}
			}
		}
	}
}

// TestWriteNormalizesIds: every source × sink writes the ids sorted and
// de-duplicated, so a hand-given list with repeats (a region bundle
// assembled from overlapping balls) yields a loadable container whose
// header count is the number of distinct ids. Before the pipeline the
// FSDL2 scheme and splice writers wrote the raw list and Load refused
// the result ("count … exceeds n").
func TestWriteNormalizesIds(t *testing.T) {
	s := buildScheme(t, gen.Grid2D(3, 3))
	var full bytes.Buffer
	if err := Save(&full, s, nil); err != nil {
		t.Fatal(err)
	}
	prev, err := Load(&full)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{8, 2, 2, 5, 0, 8, 7, 2, 5, 0} // 10 entries > n = 9, 5 distinct
	for name, src := range map[string]Source{
		"scheme":  FromScheme(s),
		"spliced": Spliced(s, prev, []int32{2, 7}),
		"store":   prev,
	} {
		for _, sk := range sinks {
			path := filepath.Join(t.TempDir(), "out.fsdl")
			if err := os.WriteFile(path, writeBytes(t, src, ids, sk.format3, sk.compress), 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := Open(path)
			if err != nil {
				t.Fatalf("%s → %s: strict open: %v", name, sk.name, err)
			}
			if got := st.NumLabels(); got != 5 {
				t.Errorf("%s → %s: %d labels, want the 5 distinct ids", name, sk.name, got)
			}
			st.Close()
			sp, rep, err := OpenPartial(path)
			if err != nil {
				t.Fatalf("%s → %s: salvage open: %v", name, sk.name, err)
			}
			if rep.Total != 5 || rep.Kept != rep.Total {
				t.Errorf("%s → %s: salvage report %+v, want 5/5 kept", name, sk.name, rep)
			}
			sp.Close()
		}
	}
	if err := Save(&bytes.Buffer{}, s, []int{0, 9}); err == nil {
		t.Error("out-of-range id accepted")
	}
}

// TestWriteFormat3NeedsSeekable: the FSDL3 sink backfills its header
// and index, which a plain stream cannot do.
func TestWriteFormat3NeedsSeekable(t *testing.T) {
	s := buildScheme(t, gen.Grid2D(3, 3))
	if err := Write(&bytes.Buffer{}, FromScheme(s), nil, true, false); err == nil {
		t.Error("FSDL3 written to a non-seekable stream")
	}
}
