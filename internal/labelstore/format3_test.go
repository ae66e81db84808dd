package labelstore

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"fsdl/internal/core"
	"fsdl/internal/gen"
	"fsdl/internal/graph"
)

// writeFormat3File writes the labels of the given vertices of s (nil:
// all) as an FSDL3 file — factored, as every FSDL3 file written is.
func writeFormat3File(t testing.TB, dir, name string, s *core.Scheme, vertices []int) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveFormat3(f, s, vertices, true); err != nil {
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
// across graph families, every record served from a (factored, mapped)
// FSDL3 file must be byte-identical to the FSDL2 record, both stores
// must hold the same ids (Has), and decoded labels must re-encode
// identically.
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

		st3, err := Open(writeFormat3File(t, dir, name+".fsdl3", s, nil))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if enc := st3.Encoding(); enc.Version != 3 || !enc.Factored {
			t.Fatalf("%s: an FSDL3 file written as %+v, want factored", name, enc)
		}
		if st3.NumLabels() != st2.NumLabels() {
			t.Fatalf("%s: %d labels, want %d", name, st3.NumLabels(), st2.NumLabels())
		}
		for v := 0; v < n; v++ {
			b2, d2, ok2 := st2.Raw(v)
			b3, d3, ok3 := st3.Raw(v)
			if ok2 != ok3 || b2 != b3 || !bytes.Equal(d2, d3) {
				t.Fatalf("%s: vertex %d raw mismatch", name, v)
			}
			if h2, h3 := st2.Has(v), st3.Has(v); h2 != h3 || !h3 {
				t.Fatalf("%s: vertex %d: Has %v in FSDL2, %v in FSDL3", name, v, h2, h3)
			}
			l3, err := st3.Label(v)
			if err != nil {
				t.Fatalf("%s: label %d: %v", name, v, err)
			}
			e3, bits3 := l3.Encode()
			if bits3 != b2 || !bytes.Equal(e3, d2) {
				t.Fatalf("%s: vertex %d decoded label re-encodes differently", name, v)
			}
		}
		if err := st3.Close(); err != nil {
			t.Fatal(err)
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
	for _, c := range []struct {
		name string
		s    *core.Scheme
	}{
		{"grid8", buildScheme(t, gen.Grid2D(8, 8))},
		{"grid6", buildScheme(t, gen.Grid2D(6, 6))},
	} {
		s, path := c.s, writeFormat3File(t, t.TempDir(), "store.fsdl3", c.s, nil)
		g := s.Graph()

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
		if !st.Unknown(victim) {
			t.Fatal("corrupt record not reported as unknown")
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
		if sp.Unknown(victim) {
			t.Fatal("healed record still reported unknown")
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
			t.Fatalf("%s: salvage accepted a damaged header", c.name)
		}
	}
}

// TestFormat3DecodeCorruptionSticks covers the damage class the CRC
// cannot see: a record whose checksum passes (verify memoizes ok) but
// whose payload does not decode. The corrupt verdict reached on first
// decode must override the memoized verified bit — Has, Unknown, Raw
// and storedPayload must all treat the record as damaged afterwards,
// exactly like a CRC failure, and it must be the only record marked.
func TestFormat3DecodeCorruptionSticks(t *testing.T) {
	const victim = 13
	for _, c := range []struct {
		name string
		s    *core.Scheme
	}{
		{"grid8", buildScheme(t, gen.Grid2D(8, 8))},
		{"ring64", buildScheme(t, ringLattice(64))},
	} {
		path, n := junkRecordFile(t, c.s, victim), c.s.Graph().NumVertices()
		st, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		// Before discovery the CRC passes, so the record looks held.
		if !st.Has(victim) {
			t.Fatalf("%s: undiscovered record not held", c.name)
		}
		if _, err := st.Label(victim); err == nil {
			t.Fatalf("%s: garbage payload decoded", c.name)
		}
		// The decode failure must stick despite the memoized CRC pass.
		if st.Has(victim) {
			t.Fatalf("%s: decode-corrupt record still reported held", c.name)
		}
		if !st.Unknown(victim) {
			t.Fatalf("%s: decode-corrupt record not reported unknown", c.name)
		}
		if _, _, ok := st.f3.storedPayload(victim); ok {
			t.Fatalf("%s: storedPayload serves decode-corrupt record", c.name)
		}
		if _, _, ok := st.Raw(victim); ok {
			t.Fatalf("%s: Raw serves decode-corrupt record", c.name)
		}
		if st.Authoritative() {
			t.Fatalf("%s: a store holding a decode-corrupt record claims authority", c.name)
		}
		if got := st.f3.corruptCount(); got != 1 {
			t.Fatalf("%s: %d records marked corrupt, want 1", c.name, got)
		}
		if got := st.NumLabels(); got != n-1 {
			t.Fatalf("%s: NumLabels = %d, want %d", c.name, got, n-1)
		}
		st.Close()

		// OpenPartial's eager salvage scan reaches the same verdict and
		// the store it returns must agree with its report.
		sp, rep, err := OpenPartial(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Corrupt) != 1 || rep.Corrupt[0] != victim || rep.Kept != n-1 {
			t.Fatalf("%s: salvage report %+v", c.name, rep)
		}
		if sp.Has(victim) || !sp.f3.corruptAt(victim) {
			t.Fatalf("%s: salvaged store contradicts its report", c.name)
		}
		if got := sp.f3.corruptCount(); got != 1 {
			t.Fatalf("%s: salvaged store marks %d records corrupt, want 1", c.name, got)
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

	want, err := os.ReadFile(writeFormat3File(t, dir, "full.fsdl3", s, nil))
	if err != nil {
		t.Fatal(err)
	}
	prevPath := writeFormat3File(t, dir, "prev.fsdl3", s, nil)
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
	if err := Write(f, Spliced(s, prev, []int32{3, 17}), nil); err != nil {
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
	path := writeFormat3File(t, dir, "store.fsdl3", s, nil)
	whole, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the file in the middle of its data section (in a factored file
	// the records are a small share of the whole).
	cut := int64(whole.f3.hdr.dataOff + whole.f3.hdr.dataLen/2)
	if !whole.Authoritative() {
		t.Fatal("strict open of the intact file is not authoritative")
	}
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
		if _, err := st.Label(v); err != nil && !st.f3.corruptAt(int32(v)) {
			t.Fatalf("kept vertex %d neither decodes nor is marked corrupt: %v", v, err)
		}
	}
	// The truncation lost records: nothing the store lacks is absent.
	if st.Authoritative() {
		t.Fatal("truncated salvage claims authority")
	}
	for v := range g.NumVertices() {
		if _, err := st.Label(v); err != nil && (errors.Is(err, core.ErrNoLabel) || !st.Unknown(v)) {
			t.Fatalf("vertex %d lost to the cut: Label = %v, Unknown=%v", v, err, st.Unknown(v))
		}
	}
	st.Close()
}

// TestFormat3OutOfCoreDifferential is the acceptance gate: an FSDL3
// mmap shard serves labels whose canonical bytes are larger than a
// GOMEMLIMIT-style heap ceiling set well below them, with every answer
// byte-identical to the in-heap FSDL2 path.
func TestFormat3OutOfCoreDifferential(t *testing.T) {
	dir := t.TempDir()
	g := gen.Grid2D(20, 20)
	n := g.NumVertices()
	s := buildScheme(t, g)

	var buf bytes.Buffer
	if err := Save(&buf, s, nil); err != nil {
		t.Fatal(err)
	}
	path := writeFormat3File(t, dir, "store.fsdl3", s, nil)
	fileSize := int64(buf.Len()) // the labels' canonical bytes
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

	st3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !st3.Encoding().Mapped {
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
			t.Fatalf("query %d: got %+v want %+v", i, got, want[i])
		}
	}
	st3.Close()
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > ceiling+uint64(fileSize)/4 {
		t.Fatalf("serving blew through the heap ceiling: %d -> %d (ceiling %d, labels %d)",
			before.HeapAlloc, after.HeapAlloc, ceiling, fileSize)
	}
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
