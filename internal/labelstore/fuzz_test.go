package labelstore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"testing"

	"fsdl/internal/core"
	"fsdl/internal/gen"
	"fsdl/internal/graph"
)

// hostileHeaders are FSDL2 headers that declare a vertex space no file
// could back — 2^36, 2^62, 2^64−1 (negative once an int) — and no
// records: anything a loader sizes from n alone is gigabytes or a
// makeslice panic here.
var hostileHeaders = func() [][]byte {
	var out [][]byte
	for _, n := range []uint64{1 << 36, 1 << 62, 1<<64 - 1} {
		out = append(out, append(binary.AppendUvarint([]byte("FSDL2"), n), 0))
	}
	return out
}()

// FuzzLoad asserts Load never panics or over-allocates on arbitrary input.
func FuzzLoad(f *testing.F) {
	b := graph.NewBuilder(9)
	for i := 0; i+1 < 9; i++ {
		b.AddEdge(i, i+1)
	}
	s, err := core.BuildScheme(b.MustBuild(), 2)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, s, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("FSDL1"))
	f.Add([]byte{})
	for _, h := range hostileHeaders {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A loaded store must answer membership and size queries and
		// decode labels without panicking.
		st.SizeBits()
		for v := 0; v < st.NumVertices() && v < 16; v++ {
			if st.Has(v) {
				st.Label(v)
			}
		}
	})
}

// FuzzLoadPartial asserts the salvage path never panics, never
// over-allocates, and keeps its report consistent with the store it
// returns on arbitrary (often damaged) input.
func FuzzLoadPartial(f *testing.F) {
	b := graph.NewBuilder(9)
	for i := 0; i+1 < 9; i++ {
		b.AddEdge(i, i+1)
	}
	s, err := core.BuildScheme(b.MustBuild(), 2)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, s, nil); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	damaged := append([]byte(nil), good...)
	damaged[len(damaged)/2] ^= 0xff
	f.Add(damaged)
	f.Add(good[:len(good)*2/3])
	f.Add([]byte("FSDL1"))
	f.Add([]byte("FSDL2\x09\x09"))
	f.Add([]byte{})
	for _, h := range hostileHeaders {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, rep, err := LoadPartial(bytes.NewReader(data))
		if err != nil {
			if st != nil || rep != nil {
				t.Fatal("failed salvage still returned results")
			}
			return
		}
		if st.NumLabels() != rep.Kept {
			t.Fatalf("store holds %d labels, report says %d kept", st.NumLabels(), rep.Kept)
		}
		if rep.Kept+len(rep.Corrupt) > rep.Total {
			t.Fatalf("report overcounts: %+v", rep)
		}
		if rep.Lost() != 0 && !rep.Truncated && len(rep.Corrupt) == 0 {
			t.Fatalf("records lost without explanation: %+v", rep)
		}
		// Every salvaged record must decode: that is the whole contract.
		for v := 0; v < st.NumVertices() && v < 16; v++ {
			if !st.Has(v) {
				continue
			}
			if _, err := st.Label(v); err != nil {
				t.Fatalf("salvaged label %d does not decode: %v", v, err)
			}
		}
	})
}

// resealFormat3 recomputes every checksum of an FSDL3 file image over
// whatever the image now holds — record CRCs in the index, the
// level-graphs section's CRC, both header CRCs — reading the fields it
// needs straight from page 0 and skipping any window that leaves the
// image. It lets a fuzzer (or a test) state one thing wrong under
// checksums that are right, so the bytes reach the parsers the
// checksums guard.
func resealFormat3(data []byte) []byte {
	if len(data) < format3Page || string(data[:5]) != string(magicV3) {
		return data
	}
	out := bytes.Clone(data)
	le := binary.LittleEndian
	count, dataOff, dataLen := le.Uint64(out[16:]), le.Uint64(out[24:]), le.Uint64(out[32:])
	size := uint64(len(out))
	for i := uint64(0); i < count && format3Page+(i+1)*format3EntryLen <= size; i++ {
		ent := out[format3Page+i*format3EntryLen:]
		e := parseIndex3Entry(ent)
		if dataOff <= size && e.off <= dataLen && e.off <= size-dataOff && uint64(e.length) <= size-dataOff-e.off {
			start := dataOff + e.off
			le.PutUint32(ent[20:], recordChecksum(int(e.vertex), int(e.bits), out[start:start+uint64(e.length)]))
		}
	}
	at := format3SectionAt
	if off, length := le.Uint64(out[at:]), le.Uint64(out[at+8:]); off <= size && length <= size-off {
		le.PutUint32(out[at+16:], crc32.ChecksumIEEE(out[off:off+length]))
	}
	return setFormat3Header(out, func([]byte) {})
}

// FuzzOpenFormat3 is the container-level fuzz target: whole-file bytes
// through Open and OpenPartial, then Label and Raw on every
// vertex the index names. With reseal set the image's checksums are
// recomputed first, so a mutated offset, length, row, saturated bit,
// ball id or flags byte arrives under a right CRC. Whatever happens must be an open
// error or a record reported unknown/corrupt — never a fault, never an
// allocation sized from an unchecked field, and never a label that fails
// Validate (checked here by decoding its canonical encoding afresh,
// which walks every edge).
func FuzzOpenFormat3(f *testing.F) {
	s, err := core.BuildScheme(gen.Path(60), 2)
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	read := func(path string) []byte {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	factored := read(writeFormat3File(f, dir, "factored", s, nil))
	f.Add(factored, false)
	f.Add(read(writeFormat3File(f, dir, "subset", s, []int{3, 9, 20, 41, 59})), false)
	// Today's bytes under the flags of the three retired encodings, which
	// a reader refuses.
	for _, flags := range []byte{0x00, 0x01, 0x03} {
		f.Add(setFormat3Header(factored, func(page []byte) { page[5] = flags }), false)
	}
	// Damage under right checksums: the level-graphs window, its rows,
	// and records that lie about their balls.
	le := binary.LittleEndian
	at := format3SectionAt
	secOff, secLen := le.Uint64(factored[at:]), le.Uint64(factored[at+8:])
	for _, set := range []func(page []byte){
		func(page []byte) { le.PutUint64(page[at:], secOff+1) },
		func(page []byte) { le.PutUint64(page[at:], 1<<40) },
		func(page []byte) { le.PutUint64(page[at+8:], 1<<63) },
		func(page []byte) { le.PutUint64(page[at+8:], secLen+1<<20) },
		func(page []byte) { le.PutUint64(page[32:], 1<<63) },
		func(page []byte) { le.PutUint64(page[16:], 1<<31) },
		func(page []byte) { page[5] |= 1 << 3 },
		func(page []byte) { page[5] &^= 1 << 2 }, // nested records under PR 17's flags
		func(page []byte) { page[5] &^= 1 << 0 },
	} {
		f.Add(setFormat3Header(factored, set), false)
	}
	for i := secOff + secLen - 40; i < secOff+secLen; i++ { // the last rows: ids and distances
		bent := bytes.Clone(factored)
		bent[i] = 0
		f.Add(bent, true)
	}
	// Hostile records of a middle vertex and of an end of the path, whose
	// balls are one-sided.
	for _, v := range []int{20, 59} {
		for _, h := range hostileBalls(f, s.LevelGraphs(), s.Label(v)) {
			f.Add(read(writeFactoredWithPayload(f, s, v, h.payload)), false)
		}
	}
	f.Add(factored[:len(factored)*2/3], false)
	f.Add([]byte("FSDL3"), true)

	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		if reseal {
			data = resealFormat3(data)
		}
		path := writeTemp(t, data)
		exercise := func(st *Store) {
			defer st.Close()
			st.SizeBits()
			if st.f3 == nil {
				return
			}
			for i := 0; i < st.f3.idxCount && i < 64; i++ {
				v := int(st.f3.entry(i).vertex)
				if l, err := st.Label(v); err == nil {
					buf, nbits := l.Encode()
					if _, err := core.DecodeLabel(buf, nbits); err != nil {
						t.Fatalf("Label(%d) returned a label that fails Validate: %v", v, err)
					}
				}
				if bits, raw, ok := st.Raw(v); ok {
					if _, err := core.DecodeLabel(raw, bits); err != nil {
						t.Fatalf("Raw(%d) served a record that does not decode: %v", v, err)
					}
				}
				st.Corrupt(v)
			}
		}
		if st, err := Open(path); err == nil {
			exercise(st)
		}
		if st, rep, err := OpenPartial(path); err == nil {
			if rep.Kept < 0 || rep.Kept > rep.Total {
				t.Fatalf("salvage report keeps %d of %d", rep.Kept, rep.Total)
			}
			exercise(st)
		}
	})
}
