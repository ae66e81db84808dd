package labelstore

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"fsdl/internal/core"
	"fsdl/internal/gen"
)

// openFormat3 writes every label of s as an FSDL3 file — factored when
// compressed — and opens it mapped.
func openFormat3(t *testing.T, s *core.Scheme, compress bool) *Store {
	t.Helper()
	st, err := Open(writeFormat3File(t, t.TempDir(), "s.fsdl", s, nil, compress))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStoredRecordsReadBack: every record a factored file — nested, or
// flat, as older factored files hold it — hands out as stored reads
// back, under the section it names, into the label its canonical bytes
// encode; and Levels.Label
// refuses a record that names other level graphs, fails its CRC, or
// decodes to another canonical length than its index entry states.
func TestStoredRecordsReadBack(t *testing.T) {
	flat, err := Open(filepath.Join("testdata", "path60_pr25.fsdl3c"))
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*Store{"nested": openFormat3(t, buildScheme(t, ringLattice(128)), true), "flat": flat} {
		t.Run(name, func(t *testing.T) {
			section, crc, ok := st.LevelsSection()
			if !ok {
				t.Fatal("a factored store without its section")
			}
			if _, err := LoadLevels(section, crc^1); err == nil {
				t.Fatal("a section loaded under another CRC")
			}
			lv, err := LoadLevels(section, crc)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range st.Vertices() {
				r, ok := st.Stored(v)
				if !ok || r.Nested != (name == "nested") || r.LevelsCRC != crc {
					t.Fatalf("vertex %d as stored: ok=%v nested=%v levels %08x", v, ok, r.Nested, r.LevelsCRC)
				}
				l, err := lv.Label(int32(v), r)
				if err != nil {
					t.Fatalf("vertex %d: %v", v, err)
				}
				bits, data, _ := st.Raw(v)
				buf, nbits := l.Encode()
				if nbits != bits || !bytes.Equal(buf[:(nbits+7)/8], data) {
					t.Fatalf("vertex %d reads back to another label than its canonical bytes", v)
				}
			}
			v := st.Vertices()[0]
			r, _ := st.Stored(v)
			bent := func(edit func(r *StoredRecord)) StoredRecord {
				c := r
				c.Data = bytes.Clone(r.Data)
				edit(&c)
				return c
			}
			for _, tc := range []struct {
				name string
				r    StoredRecord
				want error
			}{
				{"another section", bent(func(r *StoredRecord) { r.LevelsCRC ^= 1 }), ErrLevelsMismatch},
				{"a bent payload", bent(func(r *StoredRecord) { r.Data[len(r.Data)-1] ^= 0x01 }), ErrRecordCRC},
				{"a bent CRC", bent(func(r *StoredRecord) { r.CRC ^= 1 }), ErrRecordCRC},
				{"a lying bit length under a matching CRC", bent(func(r *StoredRecord) {
					r.Bits++
					r.CRC = recordChecksum(v, r.Bits, r.Data)
				}), ErrCanonicalLength},
			} {
				if l, err := lv.Label(int32(v), tc.r); !errors.Is(err, tc.want) || l != nil {
					t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
				}
			}
		})
	}
}

// TestStoredLeavesOtherRecordsToRaw: Stored answers only for what a
// factored file holds and the store serves from it. A heap-overlay
// record — even one shadowing an intact copy on disk — and every record
// of an FSDL2, uncompressed FSDL3 or pre-factoring compressed store go
// the canonical way.
func TestStoredLeavesOtherRecordsToRaw(t *testing.T) {
	st := openFormat3(t, buildScheme(t, ringLattice(64)), true)
	const v = 5
	other := buildScheme(t, gen.Path(64)).Label(v) // any decodable record
	buf, bits := other.Encode()
	st.mu.Lock()
	st.labels[v] = record{bits: bits, data: buf[:(bits+7)/8]}
	st.mu.Unlock()
	if _, ok := st.Stored(v); ok {
		t.Fatal("a heap-overlay record went out as stored")
	}
	if got, data, _ := st.Raw(v); got != bits || !bytes.Equal(data, buf[:(bits+7)/8]) {
		t.Fatal("Raw does not serve the overlay record")
	}
	if _, ok := st.Stored(v + 1); !ok {
		t.Fatal("the file's own record did not go out as stored")
	}

	s := buildScheme(t, gen.Grid2D(6, 6))
	pre17, err := Open(filepath.Join("testdata", "grid6_pre17.fsdl3c"))
	if err != nil {
		t.Fatal(err)
	}
	for name, other := range map[string]*Store{
		"FSDL2":                loadedStore(t, s),
		"uncompressed FSDL3":   openFormat3(t, s, false),
		"pre-factoring FSDL3c": pre17,
	} {
		if _, _, ok := other.LevelsSection(); ok {
			t.Errorf("%s: a level-graphs section", name)
		}
		for _, v := range other.Vertices() {
			if _, ok := other.Stored(v); ok {
				t.Fatalf("%s: vertex %d went out as stored", name, v)
			}
		}
	}
}
