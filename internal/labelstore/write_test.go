package labelstore

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"fsdl/internal/core"
	"fsdl/internal/gen"
)

// writeBytes runs one Write into a fresh file and returns what landed.
func writeBytes(t *testing.T, src Source, ids []int) []byte {
	t.Helper()
	return writtenBy(t, func(f *os.File) error { return Write(f, src, ids) })
}

// writtenBy hands write a fresh file and returns what it left there.
func writtenBy(t *testing.T, write func(f *os.File) error) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "out.fsdl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := write(f); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGoldenContainers pins the exact bytes of each container for one
// fixed scheme. FSDL2 is pinned to the CRC computed at the commit before
// the writers were collapsed into Write (2537cc1). A round trip only
// proves a writer agrees with its own reader; this catches a byte that
// changes across commits — a re-encoded record, a reordered header field
// — which every deployed store and every incremental splice depends on
// not happening by accident. A deliberate format change updates the
// constants and says so: the FSDL3 row was re-cut for the factored form
// and again for the nested ball coding. Each encoding it replaced is a
// committed file that must still read (TestLegacyFSDL3Reads), and so is
// the canonical FSDL3 file this test pinned while it was still written.
func TestGoldenContainers(t *testing.T) {
	s := buildScheme(t, gen.Grid2D(6, 6)) // ε = 2
	for _, golden := range []struct {
		name  string
		write func(f *os.File) error
		crc   uint32
		size  int
	}{
		{"FSDL2", func(f *os.File) error { return Save(f, s, nil) }, 0x07b1f828, 10812},
		{"FSDL3", func(f *os.File) error { return Write(f, FromScheme(s), nil) }, 0x8edc44e3, 8933},
	} {
		got := writtenBy(t, golden.write)
		if crc := crc32.ChecksumIEEE(got); crc != golden.crc || len(got) != golden.size {
			t.Errorf("%s container: crc %#08x over %d bytes, golden %#08x over %d",
				golden.name, crc, len(got), golden.crc, golden.size)
		}
	}
	// The nested coding is what made the factored file smaller than the
	// flat one it replaced.
	old, err := os.ReadFile(pre26Factored)
	if err != nil {
		t.Fatal(err)
	}
	if now := writeBytes(t, FromScheme(buildScheme(t, gen.Path(60))), nil); len(now) >= len(old) {
		t.Errorf("the nested coding writes %d bytes where the flat one wrote %d", len(now), len(old))
	}
}

// sameAsScheme checks the contract every container is held to, for the
// given vertices (nil: all): Label(v) deep-equals the scheme's label,
// Raw(v) is that label's canonical encoding bit for bit, and Has(v)
// agrees with an FSDL2 store of the same scheme.
func sameAsScheme(t *testing.T, what string, st *Store, s *core.Scheme, ids []int) {
	t.Helper()
	if ids == nil {
		for v := 0; v < s.Graph().NumVertices(); v++ {
			ids = append(ids, v)
		}
	}
	var buf bytes.Buffer
	if err := Save(&buf, s, ids); err != nil {
		t.Fatal(err)
	}
	ref, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ids {
		want := s.Label(v)
		got, err := st.Label(v)
		if err != nil {
			t.Fatalf("%s: Label(%d): %v", what, v, err)
		}
		if !labelsEqual(got, want) {
			t.Fatalf("%s: Label(%d) differs from the scheme's", what, v)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: Label(%d) fails Validate: %v", what, v, err)
		}
		wantData, wantBits := want.Encode()
		bits, data, ok := st.Raw(v)
		if !ok || bits != wantBits || !bytes.Equal(data, wantData) {
			t.Fatalf("%s: Raw(%d) is not the scheme label's encoding (ok=%v, %d vs %d bits)", what, v, ok, bits, wantBits)
		}
		if got, want := st.Has(v), ref.Has(v); got != want {
			t.Fatalf("%s: Has(%d) = %v, the FSDL2 reference %v", what, v, got, want)
		}
	}
}

// labelsEqual compares two labels field by field and entry by entry, the
// edges as LevelEdges reads them (a nil and an empty list are the same
// list).
func labelsEqual(a, b *core.Label) bool {
	if a.V != b.V || a.Epsilon != b.Epsilon || a.C != b.C || a.MaxLevel != b.MaxLevel ||
		a.RShrink != b.RShrink || len(a.Levels) != len(b.Levels) {
		return false
	}
	for k := range a.Levels {
		if !slices.Equal(a.Levels[k].Points, b.Levels[k].Points) || !slices.Equal(a.LevelEdges(k, nil), b.LevelEdges(k, nil)) {
			return false
		}
	}
	return true
}

// TestWriteMatrix is the byte-identity gate of the whole pipeline:
// every source — spliced over or copied out of every kind of store —
// must produce exactly the bytes the scheme source does for the same ids
// in the container it picks. The source picks it: one that can supply
// the level graphs (a scheme, a splice under one, a factored store)
// writes the factored FSDL3 file SaveFormat3 writes, and a store that
// cannot (an FSDL2 store, and on the grid6x6 row the canonical and
// self-contained FSDL3 files that are only read) writes the FSDL2 stream
// Save writes; spliced under a scheme, whose level graphs it takes, such
// a store is an ordinary splice base.
//
// The rows are the graphs and dirty sets the gate has been run on: the
// second is the splice gate's (TestFormat3SpliceByteIdentical, folded in
// here), and the first row's id list without the victim is the partition
// gate's (TestFormat3PartitionByteIdentical, likewise); the third is the
// grid of the committed legacy files. A store is copied through the
// pinned SaveVerticesFormat3, the partition entry point.
func TestWriteMatrix(t *testing.T) {
	for _, row := range []struct {
		side   int
		dirty  []int32 // never the victim: it is always copied, never re-extracted
		idSets [][]int // besides nil (every vertex)
	}{
		{8, []int32{3, 12, 63}, [][]int{{5, 9, 11, 12, victim, 40, 63}, {5, 9, 11, 12, 40, 63}}},
		{10, []int32{3, 17, 64}, [][]int{{5, 9, 11, 12, victim, 40, 63}}},
		{6, []int32{3, 12, 30}, [][]int{{5, 9, 11, 12, victim, 30, 35}}},
	} {
		t.Run(fmt.Sprintf("grid%dx%d", row.side, row.side), func(t *testing.T) {
			writeMatrix(t, row.side, row.dirty, append([][]int{nil}, row.idSets...))
		})
	}
}

// victim is the record TestWriteMatrix damages on disk and heals.
const victim = 27

func writeMatrix(t *testing.T, side int, dirty []int32, idSets [][]int) {
	g := gen.Grid2D(side, side)
	s := buildScheme(t, g)
	dir := t.TempDir()

	// The previous-generation stores: heap FSDL2, a mapped FSDL3 file, the
	// same file with its victim record damaged on disk and healed through
	// the Put overlay, and on the 6×6 grid the two committed FSDL3 files
	// of encodings that are only read.
	var buf bytes.Buffer
	if err := Save(&buf, s, nil); err != nil {
		t.Fatal(err)
	}
	prev2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	prev3, err := Open(writeFormat3File(t, dir, "prev.fsdl3", s, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer prev3.Close()
	stores := map[string]*Store{"FSDL2": prev2, "FSDL3": prev3}
	hasLevelGraphs := map[string]bool{"FSDL3": true, "healed": true}
	healedPath := writeFormat3File(t, dir, "healed.fsdl3", s, nil)
	e, _, ok := prev3.f3.find(victim)
	if !ok {
		t.Fatal("victim record missing")
	}
	corruptFileByte(t, healedPath, int64(prev3.f3.hdr.dataOff)+int64(e.off)+int64(e.length)/2)
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
	if side == 6 {
		for name, path := range map[string]string{"canonical FSDL3": canonicalFSDL3, "self-contained FSDL3c": pre17FSDL3c} {
			st, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			stores[name] = st
		}
	}

	for _, ids := range idSets {
		want2 := writtenBy(t, func(f *os.File) error { return Save(f, s, ids) })
		want3 := writtenBy(t, func(f *os.File) error { return SaveFormat3(f, s, ids, true) })
		for name, st := range stores {
			for kind, src := range map[string]Source{
				"store":               st,
				"spliced, none dirty": Spliced(s, st, nil),
				"spliced, 3 dirty":    Spliced(s, st, dirty),
			} {
				want, container := want3, "FSDL3"
				if kind == "store" && !hasLevelGraphs[name] {
					want, container = want2, "FSDL2"
				}
				got := writtenBy(t, func(f *os.File) error {
					if kind == "store" {
						return st.SaveVerticesFormat3(f, ids, true)
					}
					return Write(f, src, ids)
				})
				if !bytes.Equal(got, want) {
					t.Errorf("%s over a %s store (%d ids): not the %s container the scheme writes",
						kind, name, len(ids), container)
				}
			}
		}
	}
}

// TestWriteNormalizesIds: every writer writes the ids sorted and
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
	factored, err := Open(writeFormat3File(t, t.TempDir(), "prev.fsdl3", s, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer factored.Close()
	ids := []int{8, 2, 2, 5, 0, 8, 7, 2, 5, 0} // 10 entries > n = 9, 5 distinct
	for name, write := range map[string]func(f *os.File) error{
		"scheme, FSDL2":  func(f *os.File) error { return Save(f, s, ids) },
		"scheme, FSDL3":  func(f *os.File) error { return Write(f, FromScheme(s), ids) },
		"spliced":        func(f *os.File) error { return Write(f, Spliced(s, prev, []int32{2, 7}), ids) },
		"FSDL2 store":    func(f *os.File) error { return Write(f, prev, ids) },
		"factored store": func(f *os.File) error { return Write(f, factored, ids) },
	} {
		path := filepath.Join(t.TempDir(), "out.fsdl")
		if err := os.WriteFile(path, writtenBy(t, write), 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(path)
		if err != nil {
			t.Fatalf("%s: strict open: %v", name, err)
		}
		if got := st.NumLabels(); got != 5 {
			t.Errorf("%s: %d labels, want the 5 distinct ids", name, got)
		}
		st.Close()
		sp, rep, err := OpenPartial(path)
		if err != nil {
			t.Fatalf("%s: salvage open: %v", name, err)
		}
		if rep.Total != 5 || rep.Kept != rep.Total {
			t.Errorf("%s: salvage report %+v, want 5/5 kept", name, rep)
		}
		sp.Close()
	}
	if err := Save(&bytes.Buffer{}, s, []int{0, 9}); err == nil {
		t.Error("out-of-range id accepted")
	}
}

// TestWriteFormat3NeedsSeekable: the FSDL3 sink backfills its header
// and index, which a plain stream cannot do.
func TestWriteFormat3NeedsSeekable(t *testing.T) {
	s := buildScheme(t, gen.Grid2D(3, 3))
	if err := Write(&bytes.Buffer{}, FromScheme(s), nil); err == nil {
		t.Error("FSDL3 written to a non-seekable stream")
	}
}

// TestWriteContainerFollowsSource: Write takes no container argument —
// the source decides. A source that can supply the level graphs (a
// scheme, whole or a region of it, and a factored store) writes a
// factored FSDL3 file, each byte for byte the file Write wrote when the
// caller still asked for FSDL3 (the CRCs were cut then); any other (an
// FSDL2 store, a store filled by Put, a factored store whose level-graphs
// section is damaged and whose records were healed through Put) writes
// FSDL2.
func TestWriteContainerFollowsSource(t *testing.T) {
	s := buildScheme(t, gen.Grid2D(6, 6))
	dir := t.TempDir()
	factoredPath := writeFormat3File(t, dir, "factored.fsdl3", s, nil)
	factored, err := Open(factoredPath)
	if err != nil {
		t.Fatal(err)
	}
	defer factored.Close()
	var buf bytes.Buffer
	if err := Save(&buf, s, nil); err != nil {
		t.Fatal(err)
	}
	fsdl2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	filled, err := NewEmpty(s.Graph().NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	healed := []int{3, 14}
	for _, v := range healed {
		data, bits := s.Label(v).Encode()
		if err := filled.Put(v, bits, data); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(factoredPath)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := parseFormat3Header(raw)
	if err != nil {
		t.Fatal(err)
	}
	raw[hdr.secOff+hdr.secLen/2] ^= 0x40
	damaged, _, err := OpenPartial(writeTemp(t, raw))
	if err != nil {
		t.Fatal(err)
	}
	defer damaged.Close()
	for _, v := range healed {
		data, bits := s.Label(v).Encode()
		if err := damaged.Put(v, bits, data); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct {
		name     string
		src      Source
		ids      []int
		factored bool
		crc      uint32 // of a factored output
		size     int
	}{
		{"scheme", FromScheme(s), nil, true, 0x8edc44e3, 8933},
		{"scheme, region", FromScheme(s), Region(s, 14, 2), true, 0xfce3f071, 8434},
		{"factored store", factored, nil, true, 0x8edc44e3, 8933},
		{"factored store, some ids", factored, []int{5, 9, 11, 12, 27, 30, 35}, true, 0xfa722053, 8345},
		{"FSDL2 store", fsdl2, nil, false, 0, 0},
		{"store filled by Put", filled, healed, false, 0, 0},
		{"factored store, damaged section", damaged, healed, false, 0, 0},
	} {
		got := writeBytes(t, tc.src, tc.ids)
		path := writeTemp(t, got)
		st, err := Open(path)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		enc := st.Encoding()
		st.Close()
		if tc.factored {
			if enc.Version != 3 || !enc.Factored {
				t.Errorf("%s: wrote %+v, want a factored FSDL3 file", tc.name, enc)
			}
			if crc := crc32.ChecksumIEEE(got); crc != tc.crc || len(got) != tc.size {
				t.Errorf("%s: crc %#08x over %d bytes, want %#08x over %d", tc.name, crc, len(got), tc.crc, tc.size)
			}
		} else if enc.Version != 2 {
			t.Errorf("%s: wrote %+v, want FSDL2", tc.name, enc)
		}
	}
}
