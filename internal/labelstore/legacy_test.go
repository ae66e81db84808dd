package labelstore

import (
	"bytes"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"fsdl/internal/core"
	"fsdl/internal/gen"
)

// The FSDL3 payload encodings that are read and no longer written, one
// committed file each. Every FSDL3 file written is factored with nested
// ball records (header byte 5 = 0x07); these carry 0x00, 0x01 and 0x03.

// canonicalFSDL3 is an uncompressed FSDL3 file of grid 6×6 (ε = 2) written
// at commit 4eb01f8 (`fsdl gen -kind grid -size 6`, `fsdl labels -format
// fsdl3`): canonical Label.Encode payloads, flags 0x00. Its bytes are the
// FSDL3 golden TestGoldenContainers pinned until that writer went.
const canonicalFSDL3 = "testdata/grid6_pr33.fsdl3"

// pre17FSDL3c is a compressed FSDL3 file of grid 6×6 (ε = 2) written at
// commit 0b18dd4, before the factored form existed (`fsdl gen -kind grid
// -size 6`, `fsdl labels -format fsdl3 -compress`): every record
// self-contained, no level-graphs section, flags 0x01.
const pre17FSDL3c = "testdata/grid6_pre17.fsdl3c"

// pre26Factored is a factored FSDL3 file of the 60-vertex path (ε = 2)
// written at commit a410a10, before the nested ball coding (`fsdl gen
// -kind path -size 60`, `fsdl labels -format fsdl3 -compress`): flags
// 0x03, every level of a record a saturated bit and a (gap, zigzag ΔD)
// list, bottom level first.
const pre26Factored = "testdata/path60_pr25.fsdl3c"

// fixtureCopy copies a committed file into a fresh directory, for a test
// that damages it.
func fixtureCopy(t testing.TB, fixture string) string {
	t.Helper()
	data, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	return writeTemp(t, data)
}

// canonicalWithJunk is a copy of the canonical fixture whose record of
// victim is garbage of the right length under a checksum that is right:
// it passes every check but the decode.
func canonicalWithJunk(t *testing.T, victim int) string {
	t.Helper()
	data, err := os.ReadFile(canonicalFSDL3)
	if err != nil {
		t.Fatal(err)
	}
	h, err := parseFormat3Header(data)
	if err != nil {
		t.Fatal(err)
	}
	e := parseIndex3Entry(data[format3Page+victim*format3EntryLen:])
	if int(e.vertex) != victim {
		t.Fatalf("index slot %d holds vertex %d", victim, e.vertex)
	}
	junk := data[h.dataOff+e.off : h.dataOff+e.off+uint64(e.length)]
	for i := range junk {
		junk[i] = 0xff
	}
	if _, err := core.DecodeLabel(junk, int(e.bits)); err == nil {
		t.Fatal("junk payload unexpectedly decodes")
	}
	return writeTemp(t, resealFormat3(data))
}

// TestLegacyFSDL3Reads holds the three read-only FSDL3 encodings to what
// every container owes its reader, each on the file that pins it: the
// bytes are still the ones committed; Label, Raw and Has are the
// scheme's (sameAsScheme), and a canonical file's Raw is the mapping
// itself, not a copy; a flipped payload byte is exactly one corrupt
// vertex to a salvaging open; and as a Write source each copies as the
// scheme does: the flat-balls file has level graphs, and comes out as the
// factored file the scheme writes, while the other two have none and come
// out as the FSDL2 stream Save writes.
func TestLegacyFSDL3Reads(t *testing.T) {
	grid6 := buildScheme(t, gen.Grid2D(6, 6))
	path60 := buildScheme(t, gen.Path(60))
	const victim = 20
	for _, fx := range []struct {
		path                 string
		crc                  uint32
		size                 int
		compressed, factored bool
		s                    *core.Scheme
	}{
		{canonicalFSDL3, 0x1593b28b, 18745, false, false, grid6},
		{pre17FSDL3c, 0xc3e35ed6, 15238, true, false, grid6},
		{pre26Factored, 0x41bd63ce, 11829, true, true, path60},
	} {
		t.Run(filepath.Base(fx.path), func(t *testing.T) {
			old, err := os.ReadFile(fx.path)
			if err != nil {
				t.Fatal(err)
			}
			if crc := crc32.ChecksumIEEE(old); crc != fx.crc || len(old) != fx.size {
				t.Fatalf("crc %#08x over %d bytes, want %#08x over %d", crc, len(old), fx.crc, fx.size)
			}
			st, err := Open(fx.path)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if enc := st.Encoding(); enc.Version != 3 || enc.Compressed != fx.compressed || enc.Factored != fx.factored {
				t.Fatalf("sniffed as %+v", enc)
			}
			sameAsScheme(t, fx.path, st, fx.s, nil)
			if !fx.compressed {
				for _, v := range st.Vertices() {
					_, raw, _ := st.Raw(v)
					_, mapped, _ := st.f3.storedPayload(int32(v))
					if &raw[0] != &mapped[0] {
						t.Fatalf("Raw(%d) is a copy, not the mapped payload", v)
					}
				}
			}

			want := writtenBy(t, func(f *os.File) error { return Save(f, fx.s, nil) })
			if fx.factored {
				want = writtenBy(t, func(f *os.File) error { return SaveFormat3(f, fx.s, nil, true) })
			}
			if got := writeBytes(t, st, nil); !bytes.Equal(got, want) {
				t.Errorf("written (factored: %v): not the container the scheme writes", fx.factored)
			}

			e, _, ok := st.f3.find(victim)
			if !ok {
				t.Fatal("victim record missing")
			}
			damaged := fixtureCopy(t, fx.path)
			corruptFileByte(t, damaged, int64(st.f3.hdr.dataOff)+int64(e.off)+int64(e.length)/2)
			sp, rep, err := OpenPartial(damaged)
			if err != nil {
				t.Fatal(err)
			}
			defer sp.Close()
			if len(rep.Corrupt) != 1 || rep.Corrupt[0] != victim || rep.Kept != rep.Total-1 || rep.Truncated {
				t.Errorf("one flipped payload byte: salvage report %+v, want exactly vertex %d lost", rep, victim)
			}
		})
	}
}
