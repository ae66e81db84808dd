package labelstore

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"fsdl/internal/bitio"
	"fsdl/internal/core"
	"fsdl/internal/gen"
	"fsdl/internal/graph"
)

func writeFormat3File(t testing.TB, dir, name string, s *core.Scheme, vertices []int, compress bool) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveFormat3(f, s, vertices, compress); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// testGraphs is the equivalence matrix: grid, tree and random graphs,
// per the round-trip gate the partition writer set the precedent for.
func testGraphs(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	er, err := gen.ConnectedErdosRenyi(150, 400, rng)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"grid":   gen.Grid2D(12, 12),
		"tree":   gen.RandomTree(200, rand.New(rand.NewSource(7))),
		"random": er,
	}
}

// TestFormat3RoundTripEquivalence is the byte-level FSDL2↔FSDL3 gate:
// across graph families and both FSDL3 payload encodings, every record
// served from an FSDL3 file (mmap'd and heap-loaded) must be
// byte-identical to the FSDL2 record, digests must agree, and decoded
// labels must re-encode identically.
func TestFormat3RoundTripEquivalence(t *testing.T) {
	dir := t.TempDir()
	for name, g := range testGraphs(t) {
		s := buildScheme(t, g)
		n := g.NumVertices()

		var buf bytes.Buffer
		if err := Save(&buf, s, nil); err != nil {
			t.Fatal(err)
		}
		st2, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}

		for _, compress := range []bool{false, true} {
			path := writeFormat3File(t, dir, name+suffix(compress), s, nil, compress)
			for _, open := range []struct {
				how string
				fn  func(string) (*Store, error)
			}{{"mmap", Open}, {"heap", OpenHeap}} {
				st3, err := open.fn(path)
				if err != nil {
					t.Fatalf("%s %s %s: %v", name, suffix(compress), open.how, err)
				}
				if st3.Format() != 3 {
					t.Fatalf("%s: Format() = %d, want 3", name, st3.Format())
				}
				if st3.Compressed() != compress {
					t.Fatalf("%s: Compressed() = %v, want %v", name, st3.Compressed(), compress)
				}
				if st3.NumLabels() != st2.NumLabels() {
					t.Fatalf("%s: %d labels, want %d", name, st3.NumLabels(), st2.NumLabels())
				}
				for v := 0; v < n; v++ {
					b2, d2, ok2 := st2.Raw(v)
					b3, d3, ok3 := st3.Raw(v)
					if ok2 != ok3 || b2 != b3 || !bytes.Equal(d2, d3) {
						t.Fatalf("%s %s %s: vertex %d raw mismatch", name, suffix(compress), open.how, v)
					}
					l3, err := st3.Label(v)
					if err != nil {
						t.Fatalf("%s: label %d: %v", name, v, err)
					}
					e3, bits3 := l3.Encode()
					if bits3 != b2 || !bytes.Equal(e3, d2) {
						t.Fatalf("%s %s: vertex %d decoded label re-encodes differently", name, suffix(compress), v)
					}
				}
				ids := make([]int32, n)
				for i := range ids {
					ids[i] = int32(i)
				}
				dig2, p2, _ := st2.DigestVertices(ids)
				dig3, p3, _ := st3.DigestVertices(ids)
				if dig2 != dig3 || p2 != p3 {
					t.Fatalf("%s %s %s: digest mismatch", name, suffix(compress), open.how)
				}
				if err := st3.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func suffix(compress bool) string {
	if compress {
		return ".fsdl3c"
	}
	return ".fsdl3"
}

// TestFormat3CompressedRecordRoundTrip exercises the record codec alone:
// encodeRecord3 → decodeRecord3 must reproduce a label whose canonical
// encoding is bit-identical, for every label of every test graph.
func TestFormat3CompressedRecordRoundTrip(t *testing.T) {
	for name, g := range testGraphs(t) {
		s := buildScheme(t, g)
		for v := 0; v < g.NumVertices(); v++ {
			l := s.Label(v)
			var w bitio.Writer
			if err := encodeRecord3(l, &w); err != nil {
				t.Fatalf("%s: encode %d: %v", name, v, err)
			}
			got, err := decodeRecord3(w.Bytes(), int32(v), paramsOf(l))
			if err != nil {
				t.Fatalf("%s: decode %d: %v", name, v, err)
			}
			wantBuf, wantBits := l.Encode()
			gotBuf, gotBits := got.Encode()
			if gotBits != wantBits || !bytes.Equal(gotBuf, wantBuf) {
				t.Fatalf("%s: vertex %d compressed round trip diverges", name, v)
			}
			if len(w.Bytes()) >= (wantBits+7)/8 {
				t.Errorf("%s: vertex %d compressed (%dB) not smaller than canonical (%dB)",
					name, v, len(w.Bytes()), (wantBits+7)/8)
			}
		}
	}
}

// corruptFileByte flips one byte of a file in place.
func corruptFileByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestFormat3SalvageParity is the FSDL2 salvage contract replayed on
// FSDL3: a corrupt record is detected (lazily on access via Open,
// eagerly via OpenPartial), surfaced as Corrupt rather than absent,
// excluded from counts, and healable by Putting an intact copy.
func TestFormat3SalvageParity(t *testing.T) {
	for _, compress := range []bool{false, true} {
		dir := t.TempDir()
		g := gen.Grid2D(8, 8)
		s := buildScheme(t, g)
		path := writeFormat3File(t, dir, "store"+suffix(compress), s, nil, compress)

		// Find the payload window of one record via a clean open, then
		// flip a byte in the middle of it.
		clean, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		const victim = 27
		e, _, ok := clean.f3.find(victim)
		if !ok {
			t.Fatal("victim record missing")
		}
		dataOff := int64(clean.f3.hdr.dataOff)
		clean.Close()
		corruptFileByte(t, path, dataOff+int64(e.off)+int64(e.length)/2)

		// Strict open succeeds (structure is fine) and discovers the
		// damage on access.
		st, err := Open(path)
		if err != nil {
			t.Fatalf("strict open after payload damage: %v", err)
		}
		if _, _, ok := st.Raw(victim); ok {
			t.Fatal("corrupt record served")
		}
		if !st.Corrupt(victim) {
			t.Fatal("corrupt record not reported as corrupt")
		}
		if st.Has(victim) {
			t.Fatal("corrupt record reported as held")
		}
		if _, err := st.Label(victim); err == nil {
			t.Fatal("corrupt record decoded")
		}
		if got, want := st.NumLabels(), g.NumVertices()-1; got != want {
			t.Fatalf("NumLabels = %d, want %d", got, want)
		}

		// OpenPartial finds it eagerly and reports it.
		sp, rep, err := OpenPartial(path)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Version != 3 || rep.Kept != g.NumVertices()-1 || len(rep.Corrupt) != 1 || rep.Corrupt[0] != victim {
			t.Fatalf("salvage report %+v", rep)
		}
		if rep.Truncated {
			t.Fatal("salvage reported truncation for in-place damage")
		}

		// Healing: Put the intact canonical bytes; the overlay shadows
		// the damaged on-disk record.
		wantBuf, wantBits := s.Label(victim).Encode()
		if err := sp.Put(victim, wantBits, wantBuf); err != nil {
			t.Fatalf("heal: %v", err)
		}
		if sp.Corrupt(victim) {
			t.Fatal("healed record still reported corrupt")
		}
		bits, data, ok := sp.Raw(victim)
		if !ok || bits != wantBits || !bytes.Equal(data, wantBuf) {
			t.Fatal("healed record does not serve intact bytes")
		}
		if got, want := sp.NumLabels(), g.NumVertices(); got != want {
			t.Fatalf("NumLabels after heal = %d, want %d", got, want)
		}
		sp.Close()
		st.Close()

		// Index damage (a vertex field, breaking the ascending order):
		// strict open refuses, salvage keeps the rest.
		corruptFileByte(t, path, format3Page+2*format3EntryLen)
		if _, err := Open(path); err == nil {
			t.Fatal("strict open accepted a damaged index")
		}
		si, rep2, err := OpenPartial(path)
		if err != nil {
			t.Fatal(err)
		}
		if rep2.Kept >= g.NumVertices() || rep2.Kept < g.NumVertices()-4 {
			t.Fatalf("index-damage salvage kept %d of %d", rep2.Kept, g.NumVertices())
		}
		si.Close()

		// Header damage: even salvage gives up (nothing is trustworthy).
		corruptFileByte(t, path, 9)
		if _, _, err := OpenPartial(path); err == nil {
			t.Fatal("salvage accepted a damaged header")
		}
	}
}

// TestFormat3DecodeCorruptionSticks covers the damage class the CRC
// cannot see: a record whose checksum passes (verify memoizes ok) but
// whose payload does not decode. The corrupt verdict reached on first
// decode must override the memoized verified bit — Has, Corrupt, Raw
// and storedPayload must all treat the record as damaged afterwards,
// exactly like a CRC failure.
func TestFormat3DecodeCorruptionSticks(t *testing.T) {
	g := gen.Grid2D(8, 8)
	s := buildScheme(t, g)
	n := g.NumVertices()
	const victim = 13

	for _, compress := range []bool{false, true} {
		dir := t.TempDir()
		path := filepath.Join(dir, "store"+suffix(compress))
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		w, err := newFormat3Writer(f, n, n, compress, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		prm := paramsOf(s.Label(0))
		for v := 0; v < n; v++ {
			l := s.Label(v)
			if v != victim {
				if err := w.add(v, rec{label: l}); err != nil {
					t.Fatal(err)
				}
				continue
			}
			// The writer checksums whatever payload it is handed, so a
			// garbage serialized body yields a valid-CRC, undecodable
			// record — for the uncompressed store the payload length must
			// still match the claimed canonical bit length.
			bits := canonicalBitLen(l, &edgeBitsMemo{})
			junk := bytes.Repeat([]byte{0xff}, (bits+7)/8)
			if !compress {
				if _, err := core.DecodeLabel(junk, bits); err == nil {
					t.Fatal("junk payload unexpectedly decodes")
				}
			} else if _, err := decodeRecord3(junk, victim, prm); err == nil {
				t.Fatal("junk payload unexpectedly decodes")
			}
			r := rec{bits: bits, data: junk}
			if compress {
				r.prm = prm
			}
			if err := w.add(v, r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.finish(); err != nil {
			t.Fatal(err)
		}
		f.Close()

		st, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		// Before discovery the CRC passes, so the record looks held.
		if !st.Has(victim) {
			t.Fatalf("compress=%v: undiscovered record not held", compress)
		}
		if _, err := st.Label(victim); err == nil {
			t.Fatalf("compress=%v: garbage payload decoded", compress)
		}
		// The decode failure must stick despite the memoized CRC pass.
		if st.Has(victim) {
			t.Fatalf("compress=%v: decode-corrupt record still reported held", compress)
		}
		if !st.Corrupt(victim) {
			t.Fatalf("compress=%v: decode-corrupt record not reported corrupt", compress)
		}
		if _, _, ok := st.f3.storedPayload(victim); ok {
			t.Fatalf("compress=%v: storedPayload serves decode-corrupt record", compress)
		}
		if compress {
			if _, _, ok := st.Raw(victim); ok {
				t.Fatalf("compress=%v: Raw serves decode-corrupt record", compress)
			}
		}
		if got := st.CorruptCount(); got != 1 {
			t.Fatalf("compress=%v: CorruptCount = %d, want 1", compress, got)
		}
		st.Close()

		// OpenPartial's eager salvage scan reaches the same verdict and
		// the store it returns must agree with its report.
		sp, rep, err := OpenPartial(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Corrupt) != 1 || rep.Corrupt[0] != victim || rep.Kept != n-1 {
			t.Fatalf("compress=%v: salvage report %+v", compress, rep)
		}
		if sp.Has(victim) || !sp.Corrupt(victim) {
			t.Fatalf("compress=%v: salvaged store contradicts its report", compress)
		}
		sp.Close()
	}
}

// TestFormat3SpliceHealedOverlay: incremental compaction from a base
// whose corrupt record was healed via Put must copy the healed overlay
// record (Raw path), not fail on — or worse, fast-copy — the damaged
// on-disk payload. Output stays byte-identical to a full save.
func TestFormat3SpliceHealedOverlay(t *testing.T) {
	dir := t.TempDir()
	g := gen.Grid2D(8, 8)
	s := buildScheme(t, g)
	const victim = 27

	want, err := os.ReadFile(writeFormat3File(t, dir, "full.fsdl3c", s, nil, true))
	if err != nil {
		t.Fatal(err)
	}
	prevPath := writeFormat3File(t, dir, "prev.fsdl3c", s, nil, true)
	clean, err := Open(prevPath)
	if err != nil {
		t.Fatal(err)
	}
	e, _, ok := clean.f3.find(victim)
	if !ok {
		t.Fatal("victim record missing")
	}
	dataOff := int64(clean.f3.hdr.dataOff)
	clean.Close()
	corruptFileByte(t, prevPath, dataOff+int64(e.off)+int64(e.length)/2)

	prev, err := Open(prevPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prev.Label(victim); err == nil {
		t.Fatal("damaged record decoded")
	}
	buf, bits := s.Label(victim).Encode()
	if err := prev.Put(victim, bits, buf); err != nil {
		t.Fatalf("heal: %v", err)
	}

	// victim is clean (not dirty), so without the overlay guard the
	// fast-copy path would hit the damaged on-disk payload.
	path := filepath.Join(dir, "spliced")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(f, Spliced(s, prev, []int32{3, 17}), nil, true, true); err != nil {
		t.Fatalf("splice from healed base: %v", err)
	}
	f.Close()
	prev.Close()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("splice from healed base differs from full save")
	}
}

// TestFormat3TruncatedFile: strict open rejects, salvage reports
// Truncated and keeps the readable prefix.
func TestFormat3TruncatedFile(t *testing.T) {
	dir := t.TempDir()
	g := gen.Grid2D(8, 8)
	s := buildScheme(t, g)
	path := writeFormat3File(t, dir, "store.fsdl3", s, nil, true)
	whole, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the file in the middle of its data section (in a factored file
	// the records are a small share of the whole).
	cut := int64(whole.f3.hdr.dataOff + whole.f3.hdr.dataLen/2)
	whole.Close()
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("strict open accepted a truncated file")
	}
	st, rep, err := OpenPartial(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated {
		t.Fatal("salvage did not flag truncation")
	}
	if rep.Kept == 0 || rep.Kept >= rep.Total {
		t.Fatalf("truncated salvage kept %d of %d", rep.Kept, rep.Total)
	}
	for _, v := range st.Vertices() {
		if _, err := st.Label(v); err != nil && !st.Corrupt(v) {
			t.Fatalf("kept vertex %d neither decodes nor reports corrupt: %v", v, err)
		}
	}
	st.Close()
}

// TestFormat3OutOfCoreDifferential is the acceptance gate: an FSDL3
// mmap shard serves a store larger than a GOMEMLIMIT-style heap ceiling
// set well below the on-disk size, with every answer byte-identical to
// the in-heap FSDL2 path.
func TestFormat3OutOfCoreDifferential(t *testing.T) {
	dir := t.TempDir()
	g := gen.Grid2D(20, 20)
	n := g.NumVertices()
	s := buildScheme(t, g)

	var buf bytes.Buffer
	if err := Save(&buf, s, nil); err != nil {
		t.Fatal(err)
	}
	path := writeFormat3File(t, dir, "store.fsdl3", s, nil, false)
	pathC := writeFormat3File(t, dir, "store.fsdl3c", s, nil, true)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	fileSize := fi.Size()
	if fileSize < 4<<20 {
		t.Fatalf("test store too small to prove anything: %d bytes", fileSize)
	}

	// Phase 1, in heap: compute reference answers from the FSDL2 path.
	st2, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	type qcase struct {
		s, t   int
		faults *graph.FaultSet
	}
	type answer struct {
		dist     int64
		ok       bool
		degraded bool
	}
	var queries []qcase
	var want []answer
	for i := 0; i < 60; i++ {
		qc := qcase{s: rng.Intn(n), t: rng.Intn(n),
			faults: gen.RandomVertexFaults(g, 4, []int{}, rng)}
		res, err := st2.DistanceRobust(qc.s, qc.t, qc.faults, 0)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, qc)
		want = append(want, answer{res.Dist, res.OK, res.Degraded})
	}
	// Drop every in-heap copy of the labels before the ceiling phase.
	st2 = nil
	s = nil
	buf = bytes.Buffer{}
	runtime.GC()
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	// Phase 2, out of core: a heap ceiling well below the file size.
	ceiling := before.HeapAlloc + uint64(fileSize)/4
	prevLimit := debug.SetMemoryLimit(int64(ceiling))
	defer debug.SetMemoryLimit(prevLimit)

	for _, p := range []string{path, pathC} {
		st3, err := Open(p)
		if err != nil {
			t.Fatal(err)
		}
		if !st3.Mapped() {
			t.Skip("mmap unavailable on this platform")
		}
		st3.SetDecodedCacheCapacity(2)
		for i, qc := range queries {
			res, err := st3.DistanceRobust(qc.s, qc.t, qc.faults, 0)
			if err != nil {
				t.Fatal(err)
			}
			got := answer{res.Dist, res.OK, res.Degraded}
			if got != want[i] {
				t.Fatalf("%s: query %d: got %+v want %+v", p, i, got, want[i])
			}
		}
		st3.Close()
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > ceiling+uint64(fileSize)/4 {
		t.Fatalf("serving blew through the heap ceiling: %d -> %d (ceiling %d, file %d)",
			before.HeapAlloc, after.HeapAlloc, ceiling, fileSize)
	}
}

// FuzzFormat3Record hardens the compressed record decoder: arbitrary
// payloads must never panic or over-allocate, and anything that decodes
// must survive a re-encode/decode round trip bit-identically.
func FuzzFormat3Record(f *testing.F) {
	g := gen.Grid2D(5, 5)
	s, err := core.BuildScheme(g, 2)
	if err != nil {
		f.Fatal(err)
	}
	prm := paramsOf(s.Label(0))
	for v := 0; v < 4; v++ {
		var w bitio.Writer
		if err := encodeRecord3(s.Label(v), &w); err != nil {
			f.Fatal(err)
		}
		f.Add(w.Bytes())
	}
	// Ball records of the same labels: the bytes a factored file holds
	// where this decoder expects a self-contained record.
	enc := NewBallEncoder(s.LevelGraphs())
	for v := 0; v < 4; v++ {
		record, err := enc.Encode(s.Label(v))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Clone(record))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, payload []byte) {
		l, err := decodeRecord3(payload, 0, prm)
		if err != nil {
			return
		}
		var w bitio.Writer
		if err := encodeRecord3(l, &w); err != nil {
			t.Fatalf("decoded label does not re-encode: %v", err)
		}
		l2, err := decodeRecord3(w.Bytes(), 0, prm)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		b1, n1 := l.Encode()
		b2, n2 := l2.Encode()
		if n1 != n2 || !bytes.Equal(b1, b2) {
			t.Fatal("record round trip diverges")
		}
	})
}

// TestFsyncDir just proves the helper works on a real directory.
func TestFsyncDir(t *testing.T) {
	dir := t.TempDir()
	if err := FsyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := FsyncParentDir(filepath.Join(dir, "somefile")); err != nil {
		t.Fatal(err)
	}
	if err := FsyncDir(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("fsync of a missing directory succeeded")
	}
}
