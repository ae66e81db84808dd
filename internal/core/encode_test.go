package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fsdl/internal/bitio"
	"fsdl/internal/gen"
	"fsdl/internal/graph"
)

// refEncode is the canonical encoding coded edge by edge wherever a list
// stands — Encode before a whole list's section was coded once per level
// graphs and appended.
func refEncode(l *Label) ([]byte, int) {
	var w bitio.Writer
	for _, x := range []uint64{uint64(l.V), uint64(l.Epsilon * 65536), uint64(l.C), uint64(l.MaxLevel), uint64(l.RShrink)} {
		w.WriteUvarint(x)
	}
	for k, lv := range l.Levels {
		w.WriteDelta(uint64(len(lv.Points)))
		prev := int64(-1)
		for _, pe := range lv.Points {
			w.WriteDelta(uint64(int64(pe.X) - prev - 1))
			prev = int64(pe.X)
			w.WriteGamma(uint64(pe.D))
		}
		edges := l.LevelEdges(k, nil)
		w.WriteDelta(uint64(len(edges)))
		var prevXI, prevYI int64
		for _, e := range edges {
			dx := int64(e.XI) - prevXI
			w.WriteGamma(uint64(dx))
			if dx != 0 {
				prevYI = 0
			}
			w.WriteGamma(uint64(int64(e.YI) - prevYI))
			prevXI, prevYI = int64(e.XI), int64(e.YI)
			w.WriteGamma(uint64(e.D))
		}
	}
	return w.Bytes(), w.Len()
}

// checkEncode holds Encode to refEncode and BitLen to Encode's length.
func checkEncode(t *testing.T, name string, l *Label) {
	t.Helper()
	got, gotBits := l.Encode()
	want, wantBits := refEncode(l)
	if gotBits != wantBits || !bytes.Equal(got, want) {
		t.Fatalf("%s: Encode gives %d bits, the edge-by-edge coder %d (bytes equal: %v)", name, gotBits, wantBits, bytes.Equal(got, want))
	}
	if n := l.BitLen(); n != gotBits {
		t.Fatalf("%s: BitLen %d, Encode wrote %d bits", name, n, gotBits)
	}
}

// TestEncodeMatchesReference: a level list that is its level graphs'
// whole list is appended as the section coded with that list, and every
// other list is coded where it stands. The bytes must be the edge-by-edge
// coder's for every kind of label — held ones from a scheme, labels
// materialised from their balls, labels decoded from canonical bytes —
// and a list must be recognised by identity alone: a held list as long
// as the whole one but in its own array, and a prefix of the whole one,
// are coded as they are.
func TestEncodeMatchesReference(t *testing.T) {
	rgg, _, err := gen.RandomGeometric(150, 0.15, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	path := graph.NewBuilder(90)
	for i := 0; i+1 < 90; i++ {
		path.AddEdge(i, i+1)
	}
	graphs := map[string]*graph.Graph{
		"grid12": gridGraphF(12, 12), "ring256": ringLattice(t, 256), "rgg150": rgg, "path90": path.MustBuild(),
	}
	for gname, g := range graphs {
		s, err := BuildScheme(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		factored := factoredLabels(t, s)
		sections := 0
		for v := 0; v < g.NumVertices(); v++ {
			l := s.Label(v)
			checkEncode(t, fmt.Sprintf("%s: held label of %d", gname, v), l)
			checkEncode(t, fmt.Sprintf("%s: label of %d from its balls", gname, v), factored(l))
			data, bits := l.Encode()
			d, err := DecodeLabel(data, bits)
			if err != nil {
				t.Fatal(err)
			}
			checkEncode(t, fmt.Sprintf("%s: decoded label of %d", gname, v), d)
			for k := range l.Levels {
				if l.section(k) == nil {
					continue
				}
				sections++
				// The same length, the same level graphs, another array
				// — and one distance off, so that appending the whole
				// list's section would show.
				own := *l
				own.Levels = slices.Clone(l.Levels)
				edges := slices.Clone(l.Levels[k].Edges)
				edges[len(edges)-1].D++
				own.Levels[k].Edges = edges
				checkEncode(t, fmt.Sprintf("%s: label of %d with its own list at level index %d", gname, v, k), &own)
				own.Levels[k].Edges = l.Levels[k].Edges[:len(edges)-1]
				checkEncode(t, fmt.Sprintf("%s: label of %d with a prefix of the whole list at level index %d", gname, v, k), &own)
			}
		}
		if gname == "grid12" && sections == 0 {
			t.Fatalf("%s: no label holds a whole list; the sections went untested", gname)
		}
	}
}
