package core

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"fsdl/internal/graph"
)

// FuzzDecodeLabel asserts DecodeLabel never panics on arbitrary input and
// that valid labels round-trip through a decode→encode→decode cycle.
func FuzzDecodeLabel(f *testing.F) {
	// Seed with real labels of a small grid and a path.
	g := gridGraphF(6, 5)
	s, err := BuildScheme(g, 2)
	if err != nil {
		f.Fatal(err)
	}
	for _, v := range []int{0, 7, 29} {
		buf, nbits := s.Label(v).Encode()
		f.Add(buf, nbits)
	}
	f.Add([]byte{}, 0)
	f.Add([]byte{0xff, 0x00, 0xff}, 24)
	f.Fuzz(func(t *testing.T, data []byte, nbits int) {
		if nbits < 0 || nbits > 8*len(data) {
			nbits = 8 * len(data)
		}
		l, err := DecodeLabel(data, nbits)
		if err != nil {
			return // malformed input rejected cleanly — fine
		}
		// A successfully decoded label must re-encode and decode to an
		// equivalent label.
		buf2, n2 := l.Encode()
		l2, err := DecodeLabel(buf2, n2)
		if err != nil {
			t.Fatalf("re-decode of re-encoded label failed: %v", err)
		}
		if l2.V != l.V || l2.C != l.C || l2.MaxLevel != l.MaxLevel || len(l2.Levels) != len(l.Levels) {
			t.Fatal("re-encoded label differs structurally")
		}
		for k := range l.Levels {
			if len(l2.Levels[k].Points) != len(l.Levels[k].Points) ||
				len(l2.Levels[k].Edges) != len(l.Levels[k].Edges) {
				t.Fatalf("level %d size mismatch after round trip", k)
			}
		}
	})
}

// FuzzDecodeFFLabel mirrors FuzzDecodeLabel for the failure-free labels.
func FuzzDecodeFFLabel(f *testing.F) {
	g := gridGraphF(5, 5)
	s, err := BuildFFScheme(g, 0.5)
	if err != nil {
		f.Fatal(err)
	}
	for _, v := range []int{0, 12, 24} {
		buf, nbits := s.Label(v).Encode()
		f.Add(buf, nbits)
	}
	f.Add([]byte{0x80}, 8)
	f.Fuzz(func(t *testing.T, data []byte, nbits int) {
		if nbits < 0 || nbits > 8*len(data) {
			nbits = 8 * len(data)
		}
		l, err := DecodeFFLabel(data, nbits)
		if err != nil {
			return
		}
		buf2, n2 := l.Encode()
		if _, err := DecodeFFLabel(buf2, n2); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
	})
}

// checkCanonicalWalk holds the answers to one query to the definition
// (referenceDecode, with these patches). Whatever labels pass Validate,
// the walk decode's (d, path, ok) is d_H(s,t) and the walk that steps to
// the tight predecessor of the smallest id. Each distance-only δ (-1: no
// path) is d_H too whenever the labels' bound L is at most d_H — always,
// for labels whose distances are d_G — and lies between d_H and L when
// the labels contradict each other.
func checkCanonicalWalk(t *testing.T, what string, q *Query, patches []PatchEdge, d int64, path []int32, ok bool, plain ...int64) {
	t.Helper()
	var want Trace
	wd, _, _, _, err := referenceDecode(q, &want, patches...)
	if err != nil {
		if ok || slices.ContainsFunc(plain, func(p int64) bool { return p >= 0 }) {
			t.Fatalf("%s: answered (%d,%v) and %v, the reference refuses the query: %v", what, d, ok, plain, err)
		}
		return
	}
	if ok != (wd >= 0) || ok && d != wd {
		t.Fatalf("%s: answered (%d,%v), the reference δ=%d", what, d, ok, wd)
	}
	if wantPath := want.Path; ok && !slices.Equal(path, wantPath) {
		t.Fatalf("%s: walks %v, the canonical walk is %v", what, path, wantPath)
	}
	l := refLabelBound(q)
	for _, p := range plain {
		if wd < 0 && p != -1 || wd >= 0 && (l <= wd && p != wd || l > wd && (p < wd || p > l)) {
			t.Fatalf("%s: distance-only δ=%d, the reference δ=%d, the labels' bound %d", what, p, wd, l)
		}
	}
}

// orNone is a decode's (δ, ok) as checkCanonicalWalk takes a plain one.
func orNone(d int64, ok bool) int64 {
	if !ok {
		return -1
	}
	return d
}

// internAll runs the labels through one table that admits at first
// sight, so equal level lists among them end up shared.
func internAll(labels ...*Label) {
	table := NewLevelCensus()
	for _, l := range labels {
		table.Intern(l)
	}
}

// fuzzSeedLabels encodes the labels every decode fuzzer seeds with: s,
// t, f and g of the 5×5 grid at ε = 2.
func fuzzSeedLabels(tb testing.TB) (data [4][]byte, n [4]int) {
	return encodeSeedLabels(tb, gridGraphF(5, 5), [4]int{0, 24, 12, 7})
}

// fuzzPathSeedLabels are FuzzDecode's second seed labels: s = 0, t = 5,
// f = 39 and g = 20 of a 40-vertex path at ε = 2. On the grid every
// fault's protected balls hold s and t, so no δ-only decode is certified
// there; here f is far from both and g from s, and the labels answer alone.
func fuzzPathSeedLabels(tb testing.TB) (data [4][]byte, n [4]int) {
	return encodeSeedLabels(tb, gridGraphF(40, 1), [4]int{0, 5, 39, 20})
}

// encodeSeedLabels encodes the labels of vs in g's scheme at ε = 2.
func encodeSeedLabels(tb testing.TB, g *graph.Graph, vs [4]int) (data [4][]byte, n [4]int) {
	s, err := BuildScheme(g, 2)
	if err != nil {
		tb.Fatal(err)
	}
	for i, v := range vs {
		data[i], n[i] = s.Label(v).Encode()
	}
	return data, n
}

// fuzzDecodeSels are the Opts selectors FuzzDecode seeds with.
var fuzzDecodeSels = []byte{0, 1, 2, 3, 4, 5, 8, 16, 17, 0x1f, 0x20, 0x21, 0x2b, 0x3c, 0x50, 0x55, 0x6d, 0x75, 0x88, 0xc8, 0xe8, 0xff}

// FuzzDecode drives Decode with labels decoded from bytes the fuzzer may
// have bent into anything that still parses — four of them, s, t, f and
// g, taking turns as endpoints and faults through the steps of one batch
// on a kept Decoder, so its fault frame is keyed, built, reused, dropped
// for another fault side and built again. sel picks the Opts every step
// asks and the query's budget: bit 0 the walk, bit 1 the trace, bit 2 the
// patch g–t (admitted, or rejected where g is a fault), bit 3 a budget of
// 8 << (2·(sel >> 6)) — 8, 32 or 128 cut the seeds' scans short, 512
// covers them (they cost 348 under f, 439 under f and g) — bit 4 the
// shared frame of the first step's fault side (matching that side; a step
// whose faults hold f composes its run from it), bit 5 the balls-only run,
// and bit 6, when bit 3 is clear, moves bit 4's frame to the patches alone:
// a frame on a subset of every step's fault side, as a live delta's is,
// which every untraced step without a degraded fault composes from.
// Nothing
// may panic, and every answer must be a fresh Decoder's without the frame,
// and the reference's on the query as demote leaves it — for a
// distance-only decode, within the labels' bound. The strict
// Query.Distance refuses what fails Validate, and before the labels were
// interned the first step answered as after. With bit 5 every step also
// runs over balls-only labels of the seed's scheme (fuzzBallsOnly) on a
// kept Decoder of its own, beside materialised copies of them on a fresh
// one: δ, the Result, the walk and Query.Sketch's H must be equal. The
// seeds run on the grid's labels and on the path's (fuzzPathSeedLabels),
// whose δ-only decodes the labels answer alone.
func FuzzDecode(f *testing.F) {
	d, n := fuzzSeedLabels(f)
	p, pn := fuzzPathSeedLabels(f)
	for _, sel := range fuzzDecodeSels {
		f.Add(d[0], n[0], d[1], n[1], d[2], n[2], d[3], n[3], sel)
		f.Add(d[0], n[0], d[1], n[1], d[2], n[2], d[2], n[2], sel) // equal content, another pointer
	}
	for _, sel := range fuzzDecodeSels {
		f.Add(p[0], pn[0], p[1], pn[1], p[2], pn[2], p[3], pn[3], sel)
	}
	f.Fuzz(func(t *testing.T, ds []byte, ns int, dt []byte, nt int, df []byte, nf int, dg []byte, ng int, sel byte) {
		fuzzDecodeBatch(t, [4][]byte{ds, dt, df, dg}, [4]int{ns, nt, nf, ng}, sel)
	})
}

// TestFuzzDecodeSeedsCertify: among FuzzDecode's seeds are decodes the
// labels answer alone, so the fuzzer starts from the certificate too.
func TestFuzzDecodeSeedsCertify(t *testing.T) {
	p, pn := fuzzPathSeedLabels(t)
	before := DecoderPool().Certified
	for _, sel := range fuzzDecodeSels {
		fuzzDecodeBatch(t, p, pn, sel)
	}
	if certified := DecoderPool().Certified - before; certified == 0 {
		t.Error("no decode of the path seeds was certified")
	} else {
		t.Logf("%d decodes of the path seeds certified", certified)
	}
}

// FuzzQueryDistance is FuzzDecode's batch over three labels, g a second
// pointer to f's content, asking δ alone: the strict Query.Distance, the
// private first step and every kept-Decoder answer are held to the
// reference within the labels' bound.
func FuzzQueryDistance(f *testing.F) {
	d, n := fuzzSeedLabels(f)
	f.Add(d[0], n[0], d[1], n[1], d[2], n[2])
	f.Fuzz(func(t *testing.T, ds []byte, ns int, dt []byte, nt int, df []byte, nf int) {
		fuzzDecodeBatch(t, [4][]byte{ds, dt, df, df}, [4]int{ns, nt, nf, nf}, 0)
	})
}

// FuzzDecodePath is FuzzQueryDistance asking the walk: every answer must
// be the reference's δ and canonical walk.
func FuzzDecodePath(f *testing.F) {
	d, n := fuzzSeedLabels(f)
	f.Add(d[0], n[0], d[1], n[1], d[2], n[2])
	f.Fuzz(func(t *testing.T, ds []byte, ns int, dt []byte, nt int, df []byte, nf int) {
		fuzzDecodeBatch(t, [4][]byte{ds, dt, df, df}, [4]int{ns, nt, nf, nf}, 1)
	})
}

// FuzzFramedDecode is FuzzDecode's batch asking the walk, with g free: the
// kept Decoder's frame must never make its answer or its walk differ from
// a fresh Decoder's, or from the reference's.
func FuzzFramedDecode(f *testing.F) {
	d, n := fuzzSeedLabels(f)
	f.Add(d[0], n[0], d[1], n[1], d[2], n[2], d[3], n[3])
	f.Add(d[0], n[0], d[1], n[1], d[2], n[2], d[2], n[2]) // equal content, another pointer
	f.Fuzz(func(t *testing.T, ds []byte, ns int, dt []byte, nt int, df []byte, nf int, dg []byte, ng int) {
		fuzzDecodeBatch(t, [4][]byte{ds, dt, df, dg}, [4]int{ns, nt, nf, ng}, 1)
	})
}

// fuzzDecodeBatch is the body of the decode fuzzers: it decodes the four
// labels (returning on any that fails to parse) and runs FuzzDecode's
// batch on them with the Opts sel picks.
func fuzzDecodeBatch(t *testing.T, data [4][]byte, n [4]int, sel byte) {
	var labels [4]*Label
	for i := range labels {
		if n[i] < 0 || n[i] > 8*len(data[i]) {
			n[i] = 8 * len(data[i])
		}
		l, err := DecodeLabel(data[i], n[i])
		if err != nil {
			return
		}
		labels[i] = l
	}
	ls, lt, lf, lg := labels[0], labels[1], labels[2], labels[3]
	underF, underG := []*Label{lf}, []*Label{lf, lg}
	budget := 0
	if sel&8 != 0 {
		budget = 8 << (2 * (sel >> 6))
	}
	var balls, held func(*Label) *Label
	if sel&32 != 0 {
		var ok bool
		if balls, held, ok = fuzzBallsOnly(t, labels); !ok {
			balls = nil
		}
	}
	var ballsDec Decoder
	defer ballsDec.Release()
	var patches []PatchEdge
	if sel&4 != 0 {
		patches = []PatchEdge{{U: lg, V: lt}}
	}
	// The seed's 5×5 grid is saturated at every level, so interning
	// makes the labels share whatever lists the mutation left equal —
	// and sharing must not take an answer out of the contract.
	var private Decoder
	first := private.Decode(&Query{S: ls, T: lt, VertexFaults: underF, Budget: budget}, Opts{Patches: patches})
	private.Release()
	internAll(labels[:]...)
	var frame *Frame
	if sel&16 != 0 {
		side := underF
		if sel&(64|8) == 64 {
			side = nil
		}
		frame = NewFrame(&Query{S: ls, T: lt, VertexFaults: side}, patches)
	}
	var dec Decoder
	defer dec.Release()
	var buf []int32
	for step, q := range []*Query{
		{S: ls, T: lt, VertexFaults: underF},
		{S: lt, T: ls, VertexFaults: underF},
		{S: ls, T: lt, VertexFaults: underF},
		{S: ls, T: lt, VertexFaults: underG},
		{S: lt, T: lf, VertexFaults: underG[1:]},
		{S: ls, T: lt, VertexFaults: underF},
		{S: ls, T: lt, VertexFaults: underG},
		{S: lt, T: ls, VertexFaults: underG},
		{S: lt, T: ls, VertexFaults: underG, EdgeFaults: [][2]*Label{{ls, lf}}},
		{S: ls, T: lt, VertexFaults: underG, EdgeFaults: [][2]*Label{{ls, lf}}},
		{S: lt, T: ls, VertexFaults: underG, EdgeFaults: [][2]*Label{{ls, lf}}},
		{S: ls, T: lt, VertexFaults: underF, DegradedVertexFaults: []int32{lg.V}},
	} {
		q.Budget = budget
		what := fmt.Sprintf("step %d, sel %#x", step, sel)
		o, fo := Opts{Patches: patches, Frame: frame}, Opts{Patches: patches}
		var tr, ftr Trace
		var fbuf []int32
		if sel&1 != 0 {
			buf = buf[:0]
			o.Path, fo.Path = &buf, &fbuf
		}
		if sel&2 != 0 {
			o.Trace, fo.Trace = &tr, &ftr
		}
		res := dec.Decode(q, o)
		var fresh Decoder
		fres := fresh.Decode(q, fo)
		if !reflect.DeepEqual(res, fres) || !slices.Equal(buf, fbuf) || !reflect.DeepEqual(maskTrace(tr), maskTrace(ftr)) {
			t.Fatalf("%s: the kept Decoder answers %+v %v %+v, a fresh one %+v %v %+v", what, res, buf, tr, fres, fbuf, ftr)
		}
		walk, plain := buf, []int64(nil)
		switch {
		case o.Trace != nil:
			walk = tr.Path
		case o.Path == nil:
			// δ alone: held to the bound beside a fresh walk decode's.
			plain = append(plain, orNone(res.Dist, res.OK))
			walk = walk[:0]
			res = fresh.Decode(q, Opts{Patches: patches, Path: &walk})
		}
		fresh.Release()
		if step == 0 {
			plain = append(plain, orNone(first.Dist, first.OK))
		}
		if d, ok := q.Distance(); q.Validate() != nil && ok {
			t.Fatalf("%s: Query.Distance answers %d for a query that fails Validate", what, d)
		} else if q.Validate() == nil && patches == nil {
			plain = append(plain, orNone(d, ok))
		}
		var sc decodeScratch
		if rq, _, ok := sc.demote(q); ok {
			checkCanonicalWalk(t, what, &rq, patches, res.Dist, walk, res.OK, plain...)
		} else if res.OK {
			t.Fatalf("%s: answered %+v where demote refuses", what, res)
		}
		if balls != nil {
			checkBallsOnly(t, what, &ballsDec, q, patches, o.Path != nil, balls, held)
		}
	}
}

// fuzzBallsOnly maps the fuzz labels onto the seed scheme's level graphs:
// balls returns the label LevelGraphs.Label materialises from a label's
// balls — each saturated ball of an even level one point short, so that
// the decode reads those levels off the rows beside the whole lists of the
// others — and held a deep copy of that which holds every list. ok is
// false when some label's balls do not pass LevelGraphs.Label.
func fuzzBallsOnly(t *testing.T, labels [4]*Label) (balls, held func(*Label) *Label, ok bool) {
	lg := fuzzGrid5().LevelGraphs()
	b, h := make(map[*Label]*Label), make(map[*Label]*Label)
	for _, l := range labels {
		if b[l] != nil {
			continue
		}
		ball := ballsOf(l)
		if len(ball) != lg.Params().NumLevelRange() {
			return nil, nil, false
		}
		for k, pts := range ball {
			if k%2 == 0 && len(pts) > 1 && len(pts) == len(lg.NetPoints(k)) {
				ball[k] = pts[:len(pts)-1]
			}
		}
		m, err := lg.Label(l.V, ball)
		if err != nil {
			return nil, nil, false
		}
		b[l], h[l] = m, unsharedLabel(m)
	}
	lookup := func(m map[*Label]*Label) func(*Label) *Label {
		return func(l *Label) *Label { return m[l] }
	}
	return lookup(b), lookup(h), true
}

// fuzzGrid5 is the scheme of the fuzz seeds' 5×5 grid.
var fuzzGrid5 = sync.OnceValue(func() *Scheme {
	s, err := BuildScheme(gridGraphF(5, 5), 2)
	if err != nil {
		panic(err)
	}
	return s
})

// checkBallsOnly decodes q over balls-only labels on dec, which the steps
// keep, and over their materialised copies on a fresh Decoder: the Result,
// the walk (with path) and the sketch must be the same.
func checkBallsOnly(t *testing.T, what string, dec *Decoder, q *Query, patches []PatchEdge, path bool, balls, held func(*Label) *Label) {
	t.Helper()
	var fresh Decoder
	defer fresh.Release()
	bq, hq := mapQuery(q, balls), mapQuery(q, held)
	o, ho := Opts{Patches: mapPatches(patches, balls)}, Opts{Patches: mapPatches(patches, held)}
	var walk, hwalk []int32
	if path {
		o.Path, ho.Path = &walk, &hwalk
	}
	res, hres := dec.Decode(bq, o), fresh.Decode(hq, ho)
	if !reflect.DeepEqual(res, hres) || !slices.Equal(walk, hwalk) {
		t.Fatalf("%s: over balls-only labels %+v %v, over materialised ones %+v %v", what, res, walk, hres, hwalk)
	}
	sk, err := bq.Sketch()
	hsk, herr := hq.Sketch()
	if (err == nil) != (herr == nil) || !reflect.DeepEqual(sk, hsk) {
		t.Fatalf("%s: balls-only sketch %d edges (%v), materialised %d (%v)", what, len(sk), err, len(hsk), herr)
	}
}

// gridGraphF builds a grid without a testing.T (fuzz seeds run outside a
// test context).
func gridGraphF(w, h int) *graph.Graph {
	b := graph.NewBuilder(w * h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddEdge(y*w+x, y*w+x+1)
			}
			if y+1 < h {
				b.AddEdge(y*w+x, (y+1)*w+x)
			}
		}
	}
	return b.MustBuild()
}

// FuzzLoadScheme feeds arbitrary bytes to the one codec of the level
// graphs — LoadLevelGraphs, which a factored container runs on its
// level-graphs section at open, and LoadScheme on top of it. Neither may
// fault or size an allocation from an unchecked field; what loads must
// encode to a fixed point, and every label induced from it — here from
// the fullest balls there are, every net point of every level — must pass
// the full Validate walk that LevelGraphs.Label skips.
func FuzzLoadScheme(f *testing.F) {
	for _, g := range []*graph.Graph{gridGraphF(6, 5), gridGraphF(1, 40), gridGraphF(1, 1)} {
		s, err := BuildScheme(g, 2)
		if err != nil {
			f.Fatal(err)
		}
		good := s.LevelGraphs().Encode()
		f.Add(good)
		f.Add(good[:len(good)/2])
		// Every byte of a small encoding bent once: ids, distances, counts
		// and header fields all get their turn as seeds.
		if len(good) < 400 {
			for i := len(schemeMagic); i < len(good); i++ {
				bent := append([]byte(nil), good...)
				bent[i] ^= 0x21
				f.Add(bent)
			}
		}
	}
	f.Add([]byte("FSDLS1"))
	f.Add(append([]byte("FSDLS1"), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01))
	f.Add([]byte("FSDLS1\x00\x02\x03\x00\xff\xff\xff\x07\x00"))         // n = 2²⁴−1 in nine bytes
	f.Add([]byte("FSDLS1\x00\x02\xff\xff\xff\xff\xff\xff\xff\x7f\x00")) // a level count that never ends
	// A ring lattice's section, the shape a cluster frontend fetches per
	// generation: two edges a vertex, local low levels, saturated top ones.
	ring, err := BuildScheme(ringLattice(f, 128), 2)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ring.LevelGraphs().Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		lg, err := LoadLevelGraphs(data)
		if err != nil {
			if _, err := LoadScheme(bytes.NewReader(data)); err == nil {
				t.Fatal("LoadScheme accepted what LoadLevelGraphs refused")
			}
			return
		}
		enc := lg.Encode()
		again, err := LoadLevelGraphs(enc)
		if err != nil {
			t.Fatalf("re-load of the re-encoded level graphs: %v", err)
		}
		if !bytes.Equal(again.Encode(), enc) {
			t.Fatal("encoding is not a fixed point")
		}
		if lg.NumVertices() > 256 {
			return
		}
		balls := make([][]PointEntry, len(lg.levels))
		for k := range balls {
			for _, x := range lg.NetPoints(k) {
				balls[k] = append(balls[k], PointEntry{X: x})
			}
		}
		for v := 0; v < lg.NumVertices(); v++ {
			for k := range balls {
				for i := range balls[k] {
					balls[k][i].D = 1
					if balls[k][i].X == int32(v) {
						balls[k][i].D = 0
					}
				}
			}
			l, err := lg.Label(int32(v), balls)
			if err != nil {
				t.Fatalf("saturated balls of vertex %d refused: %v", v, err)
			}
			if err := l.validate(); err != nil {
				t.Fatalf("induced label of vertex %d fails Validate: %v", v, err)
			}
		}
		s, err := LoadScheme(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("LoadScheme refused what LoadLevelGraphs accepted: %v", err)
		}
		for _, v := range []int{0, lg.NumVertices() / 2, lg.NumVertices() - 1} {
			if v >= 0 && v < lg.NumVertices() {
				if err := s.Label(v).validate(); err != nil {
					t.Fatalf("extracted label of vertex %d fails Validate: %v", v, err)
				}
			}
		}
	})
}
