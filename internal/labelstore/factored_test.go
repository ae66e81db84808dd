package labelstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"fsdl/internal/bitio"
	"fsdl/internal/core"
	"fsdl/internal/gen"
	"fsdl/internal/graph"
)

// factoredGraphs are the shapes the factored form is held against the
// scheme on: saturated at every level (grid, rgg, star, K₂₀₀), saturated
// at the upper levels only (ring), and wide enough that low-level balls
// are genuinely local (path).
func factoredGraphs(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	rgg, _, err := gen.RandomGeometric(60, 0.25, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	star := graph.NewBuilder(33)
	for v := 1; v < 33; v++ {
		star.AddEdge(0, v)
	}
	k200 := graph.NewBuilder(200)
	for u := 0; u < 200; u++ {
		for v := u + 1; v < 200; v++ {
			k200.AddEdge(u, v)
		}
	}
	return map[string]*graph.Graph{
		"grid8x8": gen.Grid2D(8, 8),
		"ring256": ringLattice(256),
		"path800": gen.Path(800),
		"rgg60":   rgg,
		"star33":  star.MustBuild(),
		"K200":    k200.MustBuild(),
	}
}

// TestFactoredMatchesScheme is materialised ≡ extracted, container by
// container: for every graph, the full store and a 7-id subset, every
// Label from the factored file deep-equals the scheme's, every Raw is the
// canonical encoding bit for bit, and Has agrees with an FSDL2 store of
// the same scheme.
func TestFactoredMatchesScheme(t *testing.T) {
	for name, g := range factoredGraphs(t) {
		s := buildScheme(t, g)
		n := g.NumVertices()
		subset := []int{0, 1, n / 5, n / 3, n / 2, n - 2, n - 1}
		for _, ids := range [][]int{nil, subset} {
			path := writeFormat3File(t, t.TempDir(), "store.fsdl3c", s, ids)
			st, err := Open(path)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if enc := st.Encoding(); !enc.Factored || enc.Version != 3 {
				t.Fatalf("%s: a scheme's FSDL3 store is %+v", name, enc)
			}
			sameAsScheme(t, name, st, s, ids)
			if interned, _ := st.LevelTableStats(); interned != 0 {
				t.Errorf("%s: a factored store sent %d lists through the level table", name, interned)
			}
			st.Close()
			sp, rep, err := OpenPartial(path)
			if err != nil || rep.Lost() != 0 || rep.Truncated {
				t.Fatalf("%s: salvage open of an intact file: %+v, %v", name, rep, err)
			}
			sp.Close()
		}
	}
}

// TestFactoredLabelsHoldNoPrivateEdges: a label parsed from a factored
// record is its balls. Through the store and through the parser a
// cluster frontend shares (Levels.Label), every level it holds an edge
// list for is saturated and holds the level's one whole list — the same
// array in every label — and every other level holds none, which on a
// ring's and a path's low levels is every label's.
func TestFactoredLabelsHoldNoPrivateEdges(t *testing.T) {
	for name, g := range factoredGraphs(t) {
		s := buildScheme(t, g)
		st, err := Open(writeFormat3File(t, t.TempDir(), "store.fsdl3c", s, nil))
		if err != nil {
			t.Fatal(err)
		}
		section, crc, _ := st.LevelsSection()
		lv, err := LoadLevels(section, crc)
		if err != nil {
			t.Fatal(err)
		}
		// Each reader holds its own level graphs: one whole list per level
		// each.
		whole := [2]map[int]*core.EdgeEntry{{}, {}}
		for v := 0; v < g.NumVertices(); v++ {
			r, ok := st.Stored(v)
			if !ok {
				t.Fatalf("%s: no stored record for %d", name, v)
			}
			frontend, err := lv.Label(int32(v), r)
			if err != nil {
				t.Fatal(err)
			}
			local, err := st.Label(v)
			if err != nil {
				t.Fatal(err)
			}
			for i, l := range []*core.Label{local, frontend} {
				for k, level := range l.Levels {
					saturated := len(level.Points) == len(lv.LevelGraphs().NetPoints(k))
					switch {
					case !l.HoldsEdges(k):
					case !saturated || len(level.Edges) == 0:
						t.Fatalf("%s: vertex %d holds a list of %d edges at level index %d (saturated %v)", name, v, len(level.Edges), k, saturated)
					case whole[i][k] == nil:
						whole[i][k] = &level.Edges[0]
					case whole[i][k] != &level.Edges[0]:
						t.Fatalf("%s: vertex %d holds a private copy of level index %d's whole list", name, v, k)
					}
				}
				if (name == "ring256" || name == "path800") && l.HoldsEdges(0) {
					t.Fatalf("%s: vertex %d holds its lowest level's edges, which are local", name, v)
				}
			}
		}
		st.Close()
	}
}

// TestCanonicalBitLen: the index's canonical bit length is checked
// against the re-encode on every Raw, so Label.BitLen must stay exact —
// over labels that share a level's whole list, labels that do not (a
// ring's low levels), labels that leave those to their level graphs (a
// factored store's), and a list that aliases the whole one at another
// length.
func TestCanonicalBitLen(t *testing.T) {
	for name, g := range factoredGraphs(t) {
		s := buildScheme(t, g)
		st, err := Open(writeFormat3File(t, t.TempDir(), "store.fsdl3c", s, nil))
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.NumVertices(); v++ {
			l := s.Label(v)
			_, want := l.Encode()
			if got := l.BitLen(); got != want {
				t.Fatalf("%s: vertex %d: canonical length %d, Encode says %d", name, v, got, want)
			}
			fl, err := st.Label(v)
			if err != nil {
				t.Fatal(err)
			}
			if got := fl.BitLen(); got != want {
				t.Fatalf("%s: vertex %d's factored label: canonical length %d, the scheme label's %d", name, v, got, want)
			}
		}
		st.Close()
	}
	l := buildScheme(t, gen.Grid2D(6, 6)).Label(0)
	whole := l.BitLen()
	prefix := *l // the same level graphs, so the whole list is looked for
	prefix.Levels = slices.Clone(l.Levels)
	prefix.Levels[1].Edges = l.Levels[1].Edges[:len(l.Levels[1].Edges)/2]
	if _, want := prefix.Encode(); prefix.BitLen() != want || want == whole {
		t.Fatalf("a prefix of the whole list: %d bits, want %d (whole label %d)", prefix.BitLen(), want, whole)
	}
}

// TestSplicedAcrossChangedNets: a clean label — byte-identical in both
// generations — may still change its factored record, because "this
// ball is every net point of the level" is a statement about the level
// as well as the ball. Cutting the first edge of a path isolates vertex
// 0, which thereby joins every net; the far vertices' labels never held
// it and do not change, yet their upper-level balls stop being
// saturated. The splice must notice (SameNetPoints) and not copy those
// payloads verbatim.
func TestSplicedAcrossChangedNets(t *testing.T) {
	const n = 80
	build := func(cut bool) *core.Scheme {
		b := graph.NewBuilder(n)
		for i := 0; i+1 < n; i++ {
			if !cut || i > 0 {
				b.AddEdge(i, i+1)
			}
		}
		return buildScheme(t, b.MustBuild())
	}
	sA, sB := build(false), build(true)
	if sA.LevelGraphs().SameNetPoints(sB.LevelGraphs()) {
		t.Fatal("fixture: isolating a vertex left every net as it was")
	}
	dir := t.TempDir()
	prev, err := Open(writeFormat3File(t, dir, "genA", sA, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer prev.Close()
	full, err := Open(writeFormat3File(t, dir, "genB", sB, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	var dirty []int32
	clean, moved := 0, 0
	for v := 0; v < n; v++ {
		a, abits := sA.Label(v).Encode()
		b, bbits := sB.Label(v).Encode()
		if abits != bbits || !bytes.Equal(a, b) {
			dirty = append(dirty, int32(v))
			continue
		}
		clean++
		_, pa, _ := prev.f3.storedPayload(int32(v))
		_, pb, _ := full.f3.storedPayload(int32(v))
		if !bytes.Equal(pa, pb) {
			moved++
		}
	}
	if clean == 0 || moved == 0 {
		t.Fatalf("fixture: %d clean labels, %d of them with a changed record — need both", clean, moved)
	}
	want, err := os.ReadFile(filepath.Join(dir, "genB"))
	if err != nil {
		t.Fatal(err)
	}
	if got := writeBytes(t, Spliced(sB, prev, dirty), nil); !bytes.Equal(got, want) {
		t.Fatal("splice over a generation with other net points differs from a full write")
	}
	// With the nets unchanged the clean payloads travel verbatim.
	same, err := Open(writeFormat3File(t, dir, "genB.prev", sB, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer same.Close()
	if got := writeBytes(t, Spliced(sB, same, dirty), nil); !bytes.Equal(got, want) {
		t.Fatal("splice over the same generation differs from a full write")
	}
}

// setFormat3Header rewrites page-0 fields of an FSDL3 file image and
// reseals both header checksums, so a test can state one thing wrong
// under checksums that are right.
func setFormat3Header(data []byte, set func(page []byte)) []byte {
	out := bytes.Clone(data)
	set(out)
	le := binary.LittleEndian
	le.PutUint32(out[60:], crc32.ChecksumIEEE(out[:60]))
	le.PutUint32(out[format3SectionAt+20:], crc32.ChecksumIEEE(out[:format3SectionAt+20]))
	return out
}

func writeTemp(t testing.TB, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.fsdl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFormat3RejectsUnknownFlags: FSDL3 has one encoding, header byte
// 5 = 0x07, and every opener refuses every other value of that byte —
// the three earlier payload encodings (0x00, 0x01, 0x03) among them, and
// bits no version has defined — with an error that names the byte,
// instead of misreading the file. That check is also what keeps a PR
// 17–25 binary off the nested ball records: it knows bits 0 and 1, and
// refuses bit 2 as "format flags 0x04".
func TestFormat3RejectsUnknownFlags(t *testing.T) {
	written, err := os.ReadFile(writeFormat3File(t, t.TempDir(), "store", buildScheme(t, gen.Grid2D(4, 4)), nil))
	if err != nil {
		t.Fatal(err)
	}
	if written[5] != format3Flags {
		t.Fatalf("a written file carries flags %#02x, want %#02x", written[5], format3Flags)
	}
	for b := 0; b < 256; b++ {
		path := writeTemp(t, setFormat3Header(written, func(page []byte) { page[5] = byte(b) }))
		st, errOpen := Open(path)
		sp, _, errPartial := OpenPartial(path)
		if b == format3Flags {
			if errOpen != nil || errPartial != nil {
				t.Fatalf("flags %#02x: Open %v, OpenPartial %v", b, errOpen, errPartial)
			}
			st.Close()
			sp.Close()
			continue
		}
		for name, err := range map[string]error{"Open": errOpen, "OpenPartial": errPartial} {
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("byte 5 is %#02x", b)) {
				t.Fatalf("flags %#02x: %s: %v, want an error naming the byte", b, name, err)
			}
		}
	}
}

// TestFactoredDamagedLevelGraphs: no record of a factored file means
// anything without its level graphs. Damage there — a flipped byte, a
// window that leaves the file, a length of 2⁶³, rows that are wrong
// under a checksum that is right — is an error from a strict open, and
// from a salvaging one a store that reports every record lost: corrupt,
// not absent, never a fault, and healable record by record through Put.
func TestFactoredDamagedLevelGraphs(t *testing.T) {
	g := gen.Grid2D(5, 5)
	s := buildScheme(t, g)
	n := g.NumVertices()
	good, err := os.ReadFile(writeFormat3File(t, t.TempDir(), "store", s, nil))
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := parseFormat3Header(good)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	at := format3SectionAt
	// A section that lies under a checksum that is right: some row
	// entry's distance (found from the back, where the rows are) set to
	// 0, the section checksum recomputed over it.
	lies := bytes.Clone(good)
	sec := lies[hdr.secOff : hdr.secOff+hdr.secLen]
	if !bytes.Equal(sec, s.LevelGraphs().Encode()) {
		t.Fatal("the section is not the level graphs' encoding")
	}
	bent := false
	for i := len(sec) - 1; i > len(sec)/2 && !bent; i-- {
		old := sec[i]
		sec[i] = 0
		if _, err := core.LoadLevelGraphs(sec); err != nil && strings.Contains(err.Error(), "distance 0") {
			bent = true
		} else {
			sec[i] = old
		}
	}
	if !bent {
		t.Fatal("fixture: no row distance found to zero")
	}
	lies = setFormat3Header(lies, func(page []byte) { le.PutUint32(page[at+16:], crc32.ChecksumIEEE(sec)) })

	flipped := bytes.Clone(good)
	flipped[hdr.secOff+hdr.secLen/2] ^= 0x40

	salvageable := map[string][]byte{
		"flipped section byte":        flipped,
		"wrong rows, right checksums": lies,
	}
	for name, data := range salvageable {
		path := writeTemp(t, data)
		if _, err := Open(path); err == nil {
			t.Errorf("%s: strict open accepted the file", name)
		}
		st, rep, err := OpenPartial(path)
		if err != nil {
			t.Fatalf("%s: salvage open: %v", name, err)
		}
		if rep.Total != n || rep.Kept != 0 || len(rep.Corrupt) != n {
			t.Errorf("%s: salvage report %+v, want all %d records lost", name, rep, n)
		}
		if st.NumLabels() != 0 || len(st.Vertices()) != 0 {
			t.Errorf("%s: %d labels servable", name, st.NumLabels())
		}
		for v := 0; v < n; v++ {
			if _, err := st.Label(v); err == nil || !st.Unknown(v) || st.Has(v) {
				t.Fatalf("%s: vertex %d: Label err=%v Unknown=%v Has=%v, want a corrupt record", name, v, err, st.Unknown(v), st.Has(v))
			}
			if _, _, ok := st.Raw(v); ok {
				t.Fatalf("%s: vertex %d: Raw served a record", name, v)
			}
		}
		// Such a store cannot supply level graphs any more, and it heals
		// like any other.
		if lg, _ := st.levelGraphs(); lg != nil {
			t.Errorf("%s: a store without level graphs offers some", name)
		}
		data, bits := s.Label(3).Encode()
		if err := st.Put(3, bits, data); err != nil {
			t.Fatalf("%s: heal: %v", name, err)
		}
		sameAsScheme(t, name+", healed vertex", st, s, []int{3})
		st.Close()
	}

	for name, data := range map[string][]byte{
		"section offset off by one": setFormat3Header(good, func(page []byte) { le.PutUint64(page[at:], hdr.secOff+1) }),
		"section offset far away":   setFormat3Header(good, func(page []byte) { le.PutUint64(page[at:], 1<<40) }),
		"section length 2^63":       setFormat3Header(good, func(page []byte) { le.PutUint64(page[at+8:], 1<<63) }),
		"section length 2^64-1":     setFormat3Header(good, func(page []byte) { le.PutUint64(page[at+8:], 1<<64-1) }),
		"section longer than file":  setFormat3Header(good, func(page []byte) { le.PutUint64(page[at+8:], hdr.secLen+4096) }),
		"data length 2^63":          setFormat3Header(good, func(page []byte) { le.PutUint64(page[32:], 1<<63) }),
		"second header checksum": func() []byte {
			out := bytes.Clone(good)
			out[at+20] ^= 1
			return out
		}(),
	} {
		path := writeTemp(t, data)
		_, errOpen := Open(path)
		_, _, errPartial := OpenPartial(path)
		if errOpen == nil || errPartial == nil {
			t.Errorf("%s: accepted (Open %v, OpenPartial %v)", name, errOpen, errPartial)
		}
	}
}

// hostileBall is a factored record payload a writer never produces, and
// a piece of the error that must refuse it.
type hostileBall struct {
	name    string
	payload []byte
	want    string
}

// hostileBalls are record payloads for a vertex of lg, good's, that parse
// as bits and are wrong — one per way the ball coding can be: each must
// be refused before it becomes a label.
func hostileBalls(t testing.TB, lg *core.LevelGraphs, good *core.Label) []hostileBall {
	t.Helper()
	c := newBallCodec(lg)
	top := len(c.levels) - 1
	// encode writes good's balls with the levels named in bent replaced by
	// what their functions write.
	encode := func(bent map[int]func(w *bitio.Writer)) []byte {
		var w bitio.Writer
		var sc ballScratch
		var up []core.PointEntry
		for k := top; k >= 0; k-- {
			pts := good.Levels[k].Points
			if write := bent[k]; write != nil {
				write(&w)
			} else if x, ok := c.encodeLevel(k, pts, up, &w, &sc); !ok {
				t.Fatalf("fixture: level index %d point %d is no net point", k, x)
			}
			up = pts
		}
		return bytes.Clone(w.Bytes())
	}
	// level1 writes level index 1 flat and unsaturated: the count, then
	// whatever rest adds.
	level1 := func(count int, rest func(w *bitio.Writer)) []byte {
		return encode(map[int]func(w *bitio.Writer){1: func(w *bitio.Writer) {
			w.WriteBits(0, 2)
			w.WriteDelta(uint64(count))
			rest(w)
		}})
	}
	net := len(c.levels[1].net)
	if top < 2 || net < 3 || len(lg.NetPoints(2)) == 0 {
		t.Fatalf("fixture: %d levels, %d net points at level index 1", top+1, net)
	}
	whole := encode(nil)
	if balls, err := c.parse(whole, nil); err != nil {
		t.Fatalf("fixture: the unbent record does not parse: %v", err)
	} else if _, err := lg.Label(good.V, balls); err != nil {
		t.Fatalf("fixture: the unbent record is no label: %v", err)
	}
	return []hostileBall{
		{"all ones", bytes.Repeat([]byte{0xff}, 40), "nested under no level"},
		{"top level nested", encode(map[int]func(w *bitio.Writer){top: func(w *bitio.Writer) {
			w.WriteBits(1, 2)
			w.WriteDelta(0)
		}}), "nested under no level"},
		{"saturated and nested under a ball that is not", encode(map[int]func(w *bitio.Writer){
			2: func(w *bitio.Writer) { w.WriteBits(0, 2); w.WriteDelta(0) },
			1: func(w *bitio.Writer) { w.WriteBits(3, 2) },
		}), "from the level above"},
		{"count past the level's net points", level1(net+1, func(w *bitio.Writer) {}), "point count"},
		{"run starting past the level's net points", level1(1, func(w *bitio.Writer) {
			w.WriteDelta(uint64(net))
			w.WriteDelta(0)
		}), "overruns the level"},
		{"run overrunning the level's net points", level1(2, func(w *bitio.Writer) {
			w.WriteDelta(uint64(net - 1))
			w.WriteDelta(1)
		}), "overruns the level"},
		{"run longer than the count", level1(2, func(w *bitio.Writer) {
			w.WriteDelta(0)
			w.WriteDelta(2)
		}), "overruns the level"},
		{"zero run past the level's distances", level1(2, func(w *bitio.Writer) {
			w.WriteDelta(0)
			w.WriteDelta(1)
			w.WriteGamma(1)
			w.WriteBits(predDelta2, 1)
			w.WriteGamma(5)
		}), "zero run"},
		{"distance below zero", level1(2, func(w *bitio.Writer) {
			w.WriteDelta(0)
			w.WriteDelta(1)
			w.WriteGamma(0)
			w.WriteBits(predDelta2, 1)
			w.WriteGamma(0)
			w.WriteBits(1, 1)
			w.WriteGamma(0)
		}), "distance out of range"},
		{"distance past the ball radius", level1(1, func(w *bitio.Writer) {
			w.WriteDelta(0)
			w.WriteDelta(0)
			w.WriteGamma(1 << 20)
		}), "distance"},
		{"a level missing", encode(map[int]func(w *bitio.Writer){0: func(w *bitio.Writer) {}}), ""},
		{"a trailing byte", append(bytes.Clone(whole), 0), "trailing bits"},
		{"empty", nil, ""},
	}
}

// writeFactoredWithPayload writes the full factored store of s with the
// victim's record replaced by a raw payload under a valid record CRC.
func writeFactoredWithPayload(t testing.TB, s *core.Scheme, victim int, payload []byte) string {
	t.Helper()
	n := s.Graph().NumVertices()
	path := filepath.Join(t.TempDir(), "store.fsdl3c")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lg := s.LevelGraphs()
	w, err := newFormat3Writer(f, n, n, lg, lg.Encode())
	if err != nil {
		t.Fatal(err)
	}
	encode := w.encoder()
	for v := 0; v < n; v++ {
		r := rec{label: s.Label(v)}
		if v == victim {
			_, bits := r.label.Encode()
			r = rec{bits: bits, data: payload, prm: paramsOfScheme(lg.Params())}
		}
		r, err := encode(v, r)
		if err == nil {
			err = w.append(v, r)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.finish(); err != nil {
		t.Fatal(err)
	}
	return path
}

// junkRecordFile is the factored file of s whose record of victim is
// garbage under a checksum that is right: it passes every check but the
// parse.
func junkRecordFile(t testing.TB, s *core.Scheme, victim int) string {
	t.Helper()
	junk := bytes.Repeat([]byte{0xff}, 40)
	if _, err := newBallCodec(s.LevelGraphs()).parse(junk, nil); err == nil {
		t.Fatal("junk payload unexpectedly parses")
	}
	return writeFactoredWithPayload(t, s, victim, junk)
}

// TestFactoredHostileRecords: a ball payload that passes its CRC and is
// wrong — a level nested under nothing, a count or run that leaves the
// level's net points, a zero run past the level's distances, a distance
// past the radius, bits left over — is a corrupt record from every reader, like
// a CRC failure, and never a label: not from Label or Raw, not as a
// splice source, and a salvaging open lists it. Has, which reads no
// payload past the CRC, counts it present until the first failed read
// condemns it. Each payload is refused for the reason it was bent for.
func TestFactoredHostileRecords(t *testing.T) {
	g := gen.Path(60)
	s := buildScheme(t, g)
	const victim = 20
	lg := s.LevelGraphs()
	codec := newBallCodec(lg)
	paths := map[string]string{} // case → the file that holds it
	for _, h := range hostileBalls(t, lg, s.Label(victim)) {
		balls, err := codec.parse(h.payload, nil)
		if err == nil {
			_, err = lg.Label(victim, balls)
		}
		if err == nil || !strings.Contains(err.Error(), h.want) {
			t.Errorf("%s: refused with %v, want an error about %q", h.name, err, h.want)
		}
		paths[h.name] = writeFactoredWithPayload(t, s, victim, h.payload)
	}
	for name, path := range paths {
		st, err := Open(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !st.Has(victim) || st.Unknown(victim) {
			t.Errorf("%s: before any read: Has=%v Unknown=%v, want a present record", name, st.Has(victim), st.Unknown(victim))
		}
		if l, err := st.Label(victim); err == nil {
			t.Fatalf("%s: decoded into a label (Validate: %v)", name, l.Validate())
		}
		if !st.Unknown(victim) || st.Has(victim) {
			t.Errorf("%s: Unknown=%v Has=%v after the failed decode", name, st.Unknown(victim), st.Has(victim))
		}
		if _, _, ok := st.Raw(victim); ok {
			t.Errorf("%s: Raw served the record", name)
		}
		if err := Write(&seekBuffer{}, st, nil); err == nil {
			t.Errorf("%s: the store copied the record into a new container", name)
		}
		sameAsScheme(t, name+", the other records", st, s, []int{0, victim - 1, victim + 1, 59})
		st.Close()

		raw, err := Open(path) // Raw first this time: the transcode path condemns it too
		if err != nil {
			t.Fatal(err)
		}
		if _, _, ok := raw.Raw(victim); ok || !raw.Unknown(victim) {
			t.Errorf("%s: Raw on a fresh store: ok=%v Unknown=%v", name, ok, raw.Unknown(victim))
		}
		raw.Close()

		sp, rep, err := OpenPartial(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Corrupt) != 1 || rep.Corrupt[0] != victim || rep.Kept != 59 {
			t.Errorf("%s: salvage report %+v, want exactly vertex %d lost", name, rep, victim)
		}
		sp.Close()
	}
}

// seekBuffer is an in-memory fileLike for writes whose bytes do not
// matter.
type seekBuffer struct {
	data []byte
	pos  int64
}

func (b *seekBuffer) Write(p []byte) (int, error) {
	n, err := b.WriteAt(p, b.pos)
	b.pos += int64(n)
	return n, err
}

func (b *seekBuffer) WriteAt(p []byte, off int64) (int, error) {
	if need := int(off) + len(p); need > len(b.data) {
		b.data = append(b.data, make([]byte, need-len(b.data))...)
	}
	return copy(b.data[off:], p), nil
}

func (b *seekBuffer) Seek(off int64, whence int) (int64, error) {
	b.pos = off // the writer only ever seeks from the start
	return off, nil
}

// TestFactoredPutOverDamagedRecord: repair ingest over a factored
// backing. The canonical record Put installs shadows the damaged balls
// on disk; lookups, Has and the next container written from the
// store (a shard's -persist) see the repaired label, and that container
// is again the scheme's factored file byte for byte.
func TestFactoredPutOverDamagedRecord(t *testing.T) {
	g := ringLattice(128)
	s := buildScheme(t, g)
	const victim = 77
	path := writeFormat3File(t, t.TempDir(), "store", s, nil)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	e, _, ok := clean.f3.find(victim)
	if !ok {
		t.Fatal("victim record missing")
	}
	// An intact record refuses a different one and shrugs at its own.
	data, bits := s.Label(victim).Encode()
	if err := clean.Put(victim, bits, data); err != nil {
		t.Fatalf("re-putting the record a factored store holds: %v", err)
	}
	other, obits := s.Label(victim + 1).Encode()
	if err := clean.Put(victim, obits, other); err == nil {
		t.Fatal("a conflicting record was accepted over an intact one")
	}
	off := int64(clean.f3.hdr.dataOff) + int64(e.off) + int64(e.length)/2
	clean.Close()
	corruptFileByte(t, path, off)

	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Label(victim); err == nil || !st.Unknown(victim) {
		t.Fatal("damaged record served")
	}
	if err := st.Put(victim, bits, data); err != nil {
		t.Fatalf("heal: %v", err)
	}
	if st.Unknown(victim) || !st.Has(victim) {
		t.Fatal("healed record still reported corrupt")
	}
	sameAsScheme(t, "healed factored store", st, s, nil)
	if got := writeBytes(t, st, nil); !bytes.Equal(got, want) {
		t.Fatal("the healed store persists to other bytes than the scheme's factored file")
	}
}

// TestFactoredConcurrentReaders: eight readers on one mapped factored
// store — cold labels, Raw transcodes, Has — beside DropCaches.
// Every label induced shares the file's level lists and the lazily built
// whole lists are built under the readers' feet; run under -race.
func TestFactoredConcurrentReaders(t *testing.T) {
	const n = 192
	s := buildScheme(t, ringLattice(n))
	st, err := Open(writeFormat3File(t, t.TempDir(), "store", s, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.SetDecodedCacheCapacity(16)
	want := make([][]byte, n)
	for v := range want {
		want[v], _ = s.Label(v).Encode()
	}
	var readers sync.WaitGroup
	for r := 0; r < 8; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; i < 300; i++ {
				v := (i*13 + r*29) % n
				l, err := st.Label(v)
				if err != nil {
					t.Errorf("reader %d: Label(%d): %v", r, v, err)
					return
				}
				if got, _ := l.Encode(); !bytes.Equal(got, want[v]) {
					t.Errorf("reader %d: Label(%d) encodes to other bytes", r, v)
					return
				}
				if i%7 == 0 {
					if _, data, ok := st.Raw((v + 5) % n); !ok || !bytes.Equal(data, want[(v+5)%n]) {
						t.Errorf("reader %d: Raw(%d) differs", r, (v+5)%n)
						return
					}
				}
				if !st.Has((v + 1) % n) {
					t.Errorf("reader %d: Has(%d) is false", r, (v+1)%n)
					return
				}
			}
		}(r)
	}
	stop, dropped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(dropped)
		for {
			select {
			case <-stop:
				return
			default:
				st.DropCaches()
			}
		}
	}()
	readers.Wait()
	close(stop)
	<-dropped
}
