package core

import (
	"bytes"
	"slices"
	"testing"
)

func sameArray(a, b []EdgeEntry) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// TestLevelTableSecondSighting: a list is shared from its second sighting
// on — the first label through keeps its own copy, the second's becomes
// the canonical one, every later label gets that — and no label's bytes
// change on the way, whether it came through Intern or through Parse.
func TestLevelTableSecondSighting(t *testing.T) {
	s, err := BuildScheme(gridGraph(t, 8, 8), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, staged := range []bool{false, true} {
		table := NewLevelTable(16)
		var got []*Label
		for v := 0; v < 5; v++ {
			buf, nbits := s.Label(v).Encode()
			var l *Label
			if staged {
				l, err = table.DecodeLabel(buf, nbits)
			} else if l, err = DecodeLabel(buf, nbits); err == nil {
				table.Intern(l)
			}
			if err != nil {
				t.Fatal(err)
			}
			if again, n := l.Encode(); n != nbits || !bytes.Equal(again, buf) {
				t.Fatalf("staged=%v: label %d re-encodes differently after interning", staged, v)
			}
			got = append(got, l)
		}
		levels := 0
		for k := range got[0].Levels {
			if len(got[0].Levels[k].Edges) == 0 {
				continue
			}
			levels++
			if sameArray(got[0].Levels[k].Edges, got[1].Levels[k].Edges) {
				t.Errorf("staged=%v level %d: shared at first sight", staged, k)
			}
			for v := 2; v < 5; v++ {
				if !sameArray(got[1].Levels[k].Edges, got[v].Levels[k].Edges) {
					t.Errorf("staged=%v level %d: label %d does not hold the list label 1 brought", staged, k, v)
				}
			}
		}
		if interned, lists := table.Stats(); lists != levels || interned != int64(3*levels) {
			t.Errorf("staged=%v: %d lists held, %d interned; want %d and %d", staged, lists, interned, levels, 3*levels)
		}
	}
}

// TestLevelTableKeysOnPointsToo: equal Edges over different point ids are
// different lists (the indices mean other vertices), as are equal lists
// at different level indices.
func TestLevelTableKeysOnPointsToo(t *testing.T) {
	edges := func() []EdgeEntry { return []EdgeEntry{{0, 1, 1}, {1, 2, 1}} }
	level := func(x0 int32) LevelLabel {
		return LevelLabel{Points: []PointEntry{{x0, 0}, {x0 + 1, 1}, {x0 + 2, 2}}, Edges: edges()}
	}
	table := NewLevelCensus()
	a := &Label{Levels: []LevelLabel{level(0), level(0)}}
	b := &Label{Levels: []LevelLabel{level(0), level(7)}}
	table.Intern(a)
	table.Intern(b)
	if !sameArray(a.Levels[0].Edges, b.Levels[0].Edges) {
		t.Error("same level, points and edges: not shared")
	}
	if sameArray(a.Levels[1].Edges, b.Levels[1].Edges) {
		t.Error("shared across different point ids")
	}
	if sameArray(a.Levels[0].Edges, a.Levels[1].Edges) {
		t.Error("shared across level indices")
	}
	if _, lists := table.Stats(); lists != 3 {
		t.Errorf("%d lists held, want 3", lists)
	}
}

// TestLevelTableCollisionCannotAlias: two different lists under one hash
// value chain; each lookup is settled by the full compare.
func TestLevelTableCollisionCannotAlias(t *testing.T) {
	table := NewLevelCensus()
	pts := []PointEntry{{0, 0}, {1, 1}, {2, 2}}
	x := []EdgeEntry{{0, 1, 1}, {1, 2, 1}}
	y := []EdgeEntry{{0, 1, 1}, {0, 2, 2}}
	const h = 42
	if got := table.intern(h, 0, 1, pts, x, false); !sameArray(got, x) {
		t.Fatal("first list not admitted as itself")
	}
	if got := table.intern(h, 0, 1, pts, y, false); !sameArray(got, y) {
		t.Fatal("a different list under the same hash was replaced")
	}
	if got := table.intern(h, 0, 1, pts, slices.Clone(x), false); !sameArray(got, x) {
		t.Error("equal list not found behind a colliding one")
	}
	if got := table.intern(h, 0, 1, pts, slices.Clone(y), false); !sameArray(got, y) {
		t.Error("equal list not found at the head of the chain")
	}
}

// TestLevelTableParseOwnsNothingOfTheStage: labels parsed one after the
// other through one table reuse one staging buffer; none may still point
// into it afterwards. A parse that fails leaves the table as it was.
func TestLevelTableParseOwnsNothingOfTheStage(t *testing.T) {
	s, err := BuildScheme(pathGraph(t, 300), 2) // low-level balls differ from vertex to vertex
	if err != nil {
		t.Fatal(err)
	}
	table := NewLevelTable(4)
	var labels []*Label
	var want [][]byte
	for v := 0; v < 300; v += 13 {
		buf, nbits := s.Label(v).Encode()
		l, err := table.DecodeLabel(buf, nbits)
		if err != nil {
			t.Fatal(err)
		}
		labels, want = append(labels, l), append(want, buf)
	}
	for i, l := range labels {
		if got, _ := l.Encode(); !bytes.Equal(got, want[i]) {
			t.Fatalf("label %d changed after later labels were parsed: it aliases the staging buffer", i)
		}
	}
	interned, lists := table.Stats()
	if _, err := table.DecodeLabel(want[0][:len(want[0])/2], 4*len(want[0])); err == nil {
		t.Fatal("half a record parsed")
	}
	if i, l := table.Stats(); i != interned || l != lists {
		t.Errorf("failed parses moved the table: %d/%d → %d/%d", interned, lists, i, l)
	}
}
