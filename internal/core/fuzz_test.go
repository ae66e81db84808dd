package core

import (
	"bytes"
	"fmt"
	"slices"
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
// (referenceDecode). Whatever labels pass Validate, the path decode's
// (d, path, ok) is d_H(s,t) and the walk that steps to the tight
// predecessor of the smallest id. Each plain, distance-only δ (-1: no
// path) is d_H too whenever the labels' bound L is at most d_H — always,
// for labels whose distances are d_G — and lies between d_H and L when
// the labels contradict each other.
func checkCanonicalWalk(t *testing.T, what string, q *Query, d int64, path []int32, ok bool, plain ...int64) {
	t.Helper()
	var want Trace
	wd, _, _, _, err := referenceDecode(q, &want)
	if err != nil {
		if ok || slices.ContainsFunc(plain, func(p int64) bool { return p >= 0 }) {
			t.Fatalf("%s: answered (%d,%v) and %v, the reference refuses the query: %v", what, d, ok, plain, err)
		}
		return
	}
	if ok != (wd >= 0) || ok && d != wd {
		t.Fatalf("%s: answered (%d,%v), the reference δ=%d", what, d, ok, wd)
	}
	if wantPath := want.Path; ok && q.S.V != q.T.V && !slices.Equal(path, wantPath) {
		t.Fatalf("%s: walks %v, the canonical walk is %v", what, path, wantPath)
	}
	l := refLabelBound(q)
	for _, p := range plain {
		if wd < 0 && p != -1 || wd >= 0 && (l <= wd && p != wd || l > wd && (p < wd || p > l)) {
			t.Fatalf("%s: distance-only δ=%d, the reference δ=%d, the labels' bound %d", what, p, wd, l)
		}
	}
}

// orNone is a plain decode's (δ, ok) as checkCanonicalWalk takes it.
func orNone(d int64, ok bool) int64 {
	if !ok {
		return -1
	}
	return d
}

// FuzzQueryDistance drives the decoder with decoded-from-bytes labels; it
// must never panic regardless of label content mutations, and what it
// answers is the reference's answer and walk — or, for a plain decode of
// labels that contradict each other, a δ inside the labels' bound.
func FuzzQueryDistance(f *testing.F) {
	g := gridGraphF(5, 5)
	s, err := BuildScheme(g, 2)
	if err != nil {
		f.Fatal(err)
	}
	bufS, nS := s.Label(0).Encode()
	bufT, nT := s.Label(24).Encode()
	bufF, nF := s.Label(12).Encode()
	f.Add(bufS, nS, bufT, nT, bufF, nF)
	f.Fuzz(func(t *testing.T, ds []byte, ns int, dt []byte, nt int, df []byte, nf int) {
		clamp := func(n, limit int) int {
			if n < 0 || n > limit {
				return limit
			}
			return n
		}
		ls, err := DecodeLabel(ds, clamp(ns, 8*len(ds)))
		if err != nil {
			return
		}
		lt, err := DecodeLabel(dt, clamp(nt, 8*len(dt)))
		if err != nil {
			return
		}
		lf, err := DecodeLabel(df, clamp(nf, 8*len(df)))
		if err != nil {
			return
		}
		q := &Query{S: ls, T: lt, VertexFaults: []*Label{lf}}
		d, ok := q.Distance() // must not panic, whatever the labels say
		var dec Decoder
		pd, path, pok := dec.DecodePath(q, nil)
		dec.Release()
		// The seed's 5×5 grid is saturated at every level, so interning
		// makes the three labels share whatever lists the mutation left
		// equal — and sharing must not take an answer out of the contract.
		internAll(ls, lt, lf)
		sd, sok := q.Distance()
		checkCanonicalWalk(t, "private and interned labels", q, pd, path, pok, orNone(d, ok), orNone(sd, sok))
	})
}

// internAll runs the labels through one table that admits at first
// sight, so equal level lists among them end up shared.
func internAll(labels ...*Label) {
	table := NewLevelCensus()
	for _, l := range labels {
		table.Intern(l)
	}
}

// FuzzDecodePath feeds the path-reporting decoder the same corrupt-label
// space as FuzzQueryDistance: it must never panic, and whatever it
// answers must agree with the plain decode on the same query within the
// contract checkCanonicalWalk states — the two share the CSR scratch
// pipeline, so any other divergence is a decoder bug even on garbage
// input.
func FuzzDecodePath(f *testing.F) {
	g := gridGraphF(5, 5)
	s, err := BuildScheme(g, 2)
	if err != nil {
		f.Fatal(err)
	}
	bufS, nS := s.Label(0).Encode()
	bufT, nT := s.Label(24).Encode()
	bufF, nF := s.Label(12).Encode()
	f.Add(bufS, nS, bufT, nT, bufF, nF)
	f.Fuzz(func(t *testing.T, ds []byte, ns int, dt []byte, nt int, df []byte, nf int) {
		clamp := func(n, limit int) int {
			if n < 0 || n > limit {
				return limit
			}
			return n
		}
		ls, err := DecodeLabel(ds, clamp(ns, 8*len(ds)))
		if err != nil {
			return
		}
		lt, err := DecodeLabel(dt, clamp(nt, 8*len(dt)))
		if err != nil {
			return
		}
		lf, err := DecodeLabel(df, clamp(nf, 8*len(df)))
		if err != nil {
			return
		}
		internAll(ls, lt, lf) // shared level lists, as served labels have
		q := &Query{S: ls, T: lt, VertexFaults: []*Label{lf}}
		var dec Decoder
		defer dec.Release()
		d, path, ok := dec.DecodePath(q, nil)
		wd, wok := q.Distance()
		if !ok && len(path) != 0 {
			t.Fatalf("disconnected answer carries a path of %d hops", len(path))
		}
		if ok && (int64(len(path)) > d+1 || len(path) < 1) {
			t.Fatalf("path length %d inconsistent with distance %d", len(path), d)
		}
		checkCanonicalWalk(t, "shared labels", q, d, path, ok, orNone(wd, wok))
	})
}

// FuzzFramedDecode is FuzzDecodePath with a Decoder that is kept: two
// fault sets over the same corrupt-label space take turns on it, so its
// fault frame is keyed, built, reused, dropped for the other set and
// built again — and at every step the answer and the path must be those
// of a Decoder that has seen nothing, and of the reference.
func FuzzFramedDecode(f *testing.F) {
	g := gridGraphF(5, 5)
	s, err := BuildScheme(g, 2)
	if err != nil {
		f.Fatal(err)
	}
	bufS, nS := s.Label(0).Encode()
	bufT, nT := s.Label(24).Encode()
	bufF, nF := s.Label(12).Encode()
	bufG, nG := s.Label(7).Encode()
	f.Add(bufS, nS, bufT, nT, bufF, nF, bufG, nG)
	f.Add(bufS, nS, bufT, nT, bufF, nF, bufF, nF) // equal content, another pointer
	f.Fuzz(func(t *testing.T, ds []byte, ns int, dt []byte, nt int, df []byte, nf int, dg []byte, ng int) {
		var labels [4]*Label
		for i, in := range []struct {
			data []byte
			n    int
		}{{ds, ns}, {dt, nt}, {df, nf}, {dg, ng}} {
			if in.n < 0 || in.n > 8*len(in.data) {
				in.n = 8 * len(in.data)
			}
			l, err := DecodeLabel(in.data, in.n)
			if err != nil {
				return
			}
			labels[i] = l
		}
		internAll(labels[:]...) // shared level lists, as served labels have
		ls, lt, lf, lg := labels[0], labels[1], labels[2], labels[3]
		underF, underG := []*Label{lf}, []*Label{lf, lg}
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
		} {
			var d int64
			var ok bool
			d, buf, ok = dec.DecodePath(q, buf[:0])
			var fresh Decoder
			wd, wpath, wok := fresh.DecodePath(q, nil)
			fresh.Release()
			if ok != wok || ok && (d != wd || !slices.Equal(buf, wpath)) {
				t.Fatalf("step %d: kept Decoder answers (%d,%v) %v, a fresh one (%d,%v) %v", step, d, ok, buf, wd, wok, wpath)
			}
			pd, pok := dec.Distance(q)
			checkCanonicalWalk(t, fmt.Sprintf("step %d", step), q, d, buf, ok, orNone(pd, pok))
		}
	})
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
			l, err := lg.Label(int32(v), balls, nil)
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
