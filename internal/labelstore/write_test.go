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
	return writtenBy(t, func(f *os.File) error { return Write(f, src, ids, format3, compress) })
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

// pre17FSDL3c is a compressed FSDL3 file of grid 6×6 (ε = 2) written by
// the commit before the factored form existed (PR 16, 0b18dd4: `fsdl gen
// -kind grid -size 6`, `fsdl labels -format fsdl3 -compress`): every
// record self-contained, no level-graphs section. Its bytes are the
// FSDL3c golden TestGoldenContainers pinned until then.
const pre17FSDL3c = "testdata/grid6_pre17.fsdl3c"

// pre26Factored is a factored FSDL3c file of the 60-vertex path (ε = 2)
// written by the commit before the nested ball coding (PR 25, a410a10:
// `fsdl gen -kind path -size 60`, `fsdl labels -format fsdl3 -compress`):
// flags 0x03, every level of a record a saturated bit and a (gap, zigzag
// ΔD) list, bottom level first.
const pre26Factored = "testdata/path60_pr25.fsdl3c"

// TestGoldenContainers pins the exact bytes of each container for one
// fixed scheme. FSDL2 and FSDL3 are pinned to CRCs computed at the commit
// before the writers were collapsed into Write (PR 11, 2537cc1). A round
// trip only proves a writer agrees with its own reader; this catches a
// byte that changes across commits — a re-encoded record, a reordered
// header field — which every deployed store and every incremental splice
// depends on not happening by accident. A deliberate format change
// updates the constants and says so: PR 17 re-cut the FSDL3c row, and
// that row only, for the factored form a scheme source now writes. The
// encoding it replaced is still what a source without level graphs
// writes and what every reader reads, so its golden (0xc3e35ed6 over
// 15 238 bytes) moved to the committed file it described: the file must
// still be those bytes, answer like the scheme, and come out of Write
// unchanged when it is the source. PR 26 re-cut the FSDL3c row again, for
// the nested ball coding (header flag bit 2); a file in the coding it
// replaced is committed too and must keep opening, answer like the
// scheme, and — a factored store can supply the level graphs — come out
// of Write as the file the scheme now writes.
func TestGoldenContainers(t *testing.T) {
	s := buildScheme(t, gen.Grid2D(6, 6)) // ε = 2
	golden := []struct {
		crc  uint32
		size int
	}{
		{0x07b1f828, 10812},
		{0x1593b28b, 18745},
		{0x8edc44e3, 8933},
	}
	for i, sk := range sinks {
		got := writeBytes(t, FromScheme(s), nil, sk.format3, sk.compress)
		if crc := crc32.ChecksumIEEE(got); crc != golden[i].crc || len(got) != golden[i].size {
			t.Errorf("%s container: crc %#08x over %d bytes, golden %#08x over %d",
				sk.name, crc, len(got), golden[i].crc, golden[i].size)
		}
	}

	old, err := os.ReadFile(pre17FSDL3c)
	if err != nil {
		t.Fatal(err)
	}
	if crc := crc32.ChecksumIEEE(old); crc != 0xc3e35ed6 || len(old) != 15238 {
		t.Fatalf("%s: crc %#08x over %d bytes, want the pre-PR-17 golden 0xc3e35ed6 over 15238", pre17FSDL3c, crc, len(old))
	}
	for name, open := range map[string]func(string) (*Store, error){"Open": Open, "OpenHeap": OpenHeap} {
		st, err := open(pre17FSDL3c)
		if err != nil {
			t.Fatalf("%s of the pre-PR-17 file: %v", name, err)
		}
		if enc := st.Encoding(); enc != (Encoding{Version: 3, Compressed: true}) {
			t.Errorf("pre-PR-17 file sniffed as %+v", enc)
		}
		sameAsScheme(t, name+" of the pre-PR-17 file", st, s, nil)
		if got := writeBytes(t, st, nil, true, true); !bytes.Equal(got, old) {
			t.Errorf("%s: a store without level graphs, written compressed, is no longer the bytes it was read from", name)
		}
		st.Close()
	}

	path := buildScheme(t, gen.Path(60))
	old, err = os.ReadFile(pre26Factored)
	if err != nil {
		t.Fatal(err)
	}
	if crc := crc32.ChecksumIEEE(old); crc != 0x41bd63ce || len(old) != 11829 {
		t.Fatalf("%s: crc %#08x over %d bytes, want what PR 25 wrote, 0x41bd63ce over 11829", pre26Factored, crc, len(old))
	}
	now := writeBytes(t, FromScheme(path), nil, true, true)
	if len(now) >= len(old) {
		t.Errorf("the nested coding writes %d bytes where PR 25 wrote %d", len(now), len(old))
	}
	for name, open := range map[string]func(string) (*Store, error){"Open": Open, "OpenHeap": OpenHeap} {
		st, err := open(pre26Factored)
		if err != nil {
			t.Fatalf("%s of the PR 25 file: %v", name, err)
		}
		if h := st.f3.hdr; !h.factored() || h.nested() {
			t.Errorf("PR 25 file sniffed as flags %#02x", h.flags)
		}
		sameAsScheme(t, name+" of the PR 25 file", st, path, nil)
		if got := writeBytes(t, st, nil, true, true); !bytes.Equal(got, now) {
			t.Errorf("%s: a PR 25 store written compressed is not the file the scheme writes", name)
		}
		st.Close()
	}
	sp, rep, err := OpenPartial(pre26Factored)
	if err != nil || rep.Lost() != 0 {
		t.Fatalf("salvage open of the PR 25 file: %+v, %v", rep, err)
	}
	sp.Close()
}

// sameAsScheme checks the contract every container is held to, for the
// given vertices (nil: all): Label(v) deep-equals the scheme's label,
// Raw(v) is that label's canonical encoding bit for bit, and the digest
// over the ids agrees with an FSDL2 store of the same scheme.
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
	ids32 := make([]int32, len(ids))
	for i, v := range ids {
		ids32[i] = int32(v)
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
	}
	gd, gp, gm := st.DigestVertices(ids32)
	wd, wp, wm := ref.DigestVertices(ids32)
	if gd != wd || gp != wp || len(gm) != len(wm) {
		t.Fatalf("%s: digest %08x over %d present (%d missing), FSDL2 reference %08x over %d (%d missing)", what, gd, gp, len(gm), wd, wp, len(wm))
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

// TestWriteMatrix is the byte-identity gate of the whole pipeline: for
// every sink, every source — spliced over or copied out of every kind
// of store — must produce exactly the bytes the scheme source does for
// the same ids. One rule qualifies that, and it is decided by what the
// source is: the compressed FSDL3 sink writes the factored form when the
// source can supply the level graphs (a scheme, spliced over anything; a
// factored store, healed records included) and the self-contained
// compressed records it always wrote when it cannot (an FSDL2, an
// uncompressed FSDL3 or a pre-PR-17 compressed store on its own) — the
// same bytes from each of those, answering like the scheme, and pinned
// byte for byte by TestGoldenContainers' committed file.
//
// The rows are the graphs and dirty sets the gate has been run on: the
// second is the splice gate's (TestFormat3SpliceByteIdentical, folded in
// here), and the first row's id list without the victim is the partition
// gate's (TestFormat3PartitionByteIdentical, likewise). Both gates went
// through the public entry points, so the FSDL3 sinks still do:
// SaveFormat3 for the scheme's bytes, SaveVerticesFormat3 for a store's.
func TestWriteMatrix(t *testing.T) {
	for _, row := range []struct {
		side   int
		dirty  []int32 // never the victim: it is always copied, never re-extracted
		idSets [][]int // besides nil (every vertex)
	}{
		{8, []int32{3, 12, 63}, [][]int{{5, 9, 11, 12, victim, 40, 63}, {5, 9, 11, 12, 40, 63}}},
		{10, []int32{3, 17, 64}, [][]int{{5, 9, 11, 12, victim, 40, 63}}},
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

	// The previous-generation stores: heap FSDL2, mapped FSDL3 in both
	// payload encodings plus the compressed one of before PR 17, and a
	// factored FSDL3 whose victim record is damaged on disk and healed
	// through the Put overlay.
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
	if enc := stores["FSDL3c"].Encoding(); !enc.Factored {
		t.Fatalf("a scheme's compressed FSDL3 file is not factored: %+v", enc)
	}
	unfactoredPath := filepath.Join(dir, "prev.unfactored")
	if err := os.WriteFile(unfactoredPath, writeBytes(t, prev2, nil, true, true), 0o644); err != nil {
		t.Fatal(err)
	}
	unfactored, err := Open(unfactoredPath)
	if err != nil {
		t.Fatal(err)
	}
	defer unfactored.Close()
	if enc := unfactored.Encoding(); enc != (Encoding{Version: 3, Compressed: true}) {
		t.Fatalf("an FSDL2 store written compressed came out as %+v", enc)
	}
	sameAsScheme(t, "unfactored FSDL3c", unfactored, s, nil)
	stores["unfactored FSDL3c"] = unfactored
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
	hasLevelGraphs := map[string]bool{"FSDL3c": true, "healed": true}

	for _, sk := range sinks {
		for _, ids := range idSets {
			want := writtenBy(t, func(f *os.File) error {
				if sk.format3 {
					return SaveFormat3(f, s, ids, sk.compress)
				}
				return Save(f, s, ids)
			})
			wantAlone := want // from a store that cannot supply the level graphs
			if sk.compress {
				wantAlone = writeBytes(t, prev2, ids, true, true)
				if bytes.Equal(wantAlone, want) {
					t.Fatalf("%s sink: an FSDL2 store wrote the factored form", sk.name)
				}
			}
			for name, st := range stores {
				for kind, src := range map[string]Source{
					"store":               st,
					"spliced, none dirty": Spliced(s, st, nil),
					"spliced, 3 dirty":    Spliced(s, st, dirty),
				} {
					want, rule := want, "the scheme source"
					if kind == "store" && !hasLevelGraphs[name] {
						want, rule = wantAlone, "an FSDL2 store"
					}
					got := writtenBy(t, func(f *os.File) error {
						if kind == "store" && sk.format3 {
							return st.SaveVerticesFormat3(f, ids, sk.compress)
						}
						return Write(f, src, ids, sk.format3, sk.compress)
					})
					if !bytes.Equal(got, want) {
						t.Errorf("%s sink, %s over a %s store (%d ids): differs from %s",
							sk.name, kind, name, len(ids), rule)
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
