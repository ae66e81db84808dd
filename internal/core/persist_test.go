package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"fsdl/internal/graph"
)

func TestSchemeSaveLoadRoundTrip(t *testing.T) {
	g := gridGraph(t, 9, 8)
	s, err := BuildScheme(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveScheme(&buf, s); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadScheme(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p, lp := s.Params(), loaded.Params()
	if p.C != lp.C || p.MaxLevel != lp.MaxLevel || p.RShrink != lp.RShrink {
		t.Fatalf("params changed: %+v -> %+v", p, lp)
	}
	// Labels must be bit-identical.
	for _, v := range []int{0, 31, 71} {
		a, abits := s.Label(v).Encode()
		b, bbits := loaded.Label(v).Encode()
		if abits != bbits || !bytes.Equal(a[:(abits+7)/8], b[:(bbits+7)/8]) {
			t.Fatalf("label %d differs after scheme round trip", v)
		}
	}
	// Queries must agree.
	f := graph.FaultVertices(30, 40)
	d1, ok1 := s.Distance(0, 71, f)
	d2, ok2 := loaded.Distance(0, 71, f)
	if d1 != d2 || ok1 != ok2 {
		t.Fatalf("query differs: (%d,%v) vs (%d,%v)", d1, ok1, d2, ok2)
	}
}

// TestSchemeSaveLoadWorkers extends the round trip across the worker
// pool: a scheme built with a full pool persists to exactly the bytes of
// the serial build's stream, and survives Load with identical labels.
func TestSchemeSaveLoadWorkers(t *testing.T) {
	g := gridGraph(t, 9, 8)
	serial, err := BuildSchemeWorkers(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := SaveScheme(&want, serial); err != nil {
		t.Fatal(err)
	}
	pooled, err := BuildSchemeWorkers(g, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := SaveScheme(&got, pooled); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("4-worker build persists to different bytes than serial (%d vs %d)",
			got.Len(), want.Len())
	}
	loaded, err := LoadScheme(&got)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{0, 35, 71} {
		a, abits := pooled.Label(v).Encode()
		b, bbits := loaded.Label(v).Encode()
		if abits != bbits || !bytes.Equal(a[:(abits+7)/8], b[:(bbits+7)/8]) {
			t.Fatalf("label %d differs after pooled-build round trip", v)
		}
	}
}

func TestSchemeSaveLoadAblated(t *testing.T) {
	g := pathGraph(t, 80)
	s, err := BuildSchemeAblated(g, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveScheme(&buf, s); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadScheme(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Params().RShrink != 2 {
		t.Fatalf("RShrink lost: %d", loaded.Params().RShrink)
	}
	a, abits := s.Label(40).Encode()
	b, bbits := loaded.Label(40).Encode()
	if abits != bbits || !bytes.Equal(a[:(abits+7)/8], b[:(bbits+7)/8]) {
		t.Fatal("ablated label differs after round trip")
	}
}

func TestSchemeLoadRejectsCorruption(t *testing.T) {
	g := pathGraph(t, 20)
	s, _ := BuildScheme(g, 2)
	var buf bytes.Buffer
	if err := SaveScheme(&buf, s); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := LoadScheme(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream must fail")
	}
	if _, err := LoadScheme(bytes.NewReader([]byte("NOTASCHEME"))); err == nil {
		t.Error("bad magic must fail")
	}
	if _, err := LoadScheme(bytes.NewReader(good[:len(good)/3])); err == nil {
		t.Error("truncated stream must fail")
	}
}

func TestSchemeRoundTripRandomGraphQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := randomConnected(t, 70, 90, rng)
	s, err := BuildScheme(g, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveScheme(&buf, s); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadScheme(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 25; trial++ {
		u, v := rng.Intn(70), rng.Intn(70)
		f := graph.NewFaultSet()
		for i := 0; i < rng.Intn(4); i++ {
			x := rng.Intn(70)
			if x != u && x != v {
				f.AddVertex(x)
			}
		}
		d1, ok1 := s.Distance(u, v, f)
		d2, ok2 := loaded.Distance(u, v, f)
		if d1 != d2 || ok1 != ok2 {
			t.Fatalf("trial %d (%d,%d): (%d,%v) vs (%d,%v)", trial, u, v, d1, ok1, d2, ok2)
		}
	}
}

func TestStoreStats(t *testing.T) {
	g := gridGraph(t, 8, 8)
	s, err := BuildScheme(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := s.StoreStats()
	if len(st.Levels) != s.Params().NumLevelRange() {
		t.Fatalf("levels = %d, want %d", len(st.Levels), s.Params().NumLevelRange())
	}
	if st.Levels[0].NetPoints != 64 {
		t.Errorf("lowest level net points = %d, want n=64 (N_0 = V)", st.Levels[0].NetPoints)
	}
	if st.Levels[0].NetEdges != 0 {
		t.Errorf("lowest level should have no net graph, got %d edges", st.Levels[0].NetEdges)
	}
	if st.TotalNetEdges <= 0 {
		t.Error("store must have net edges at higher levels")
	}
	for i := 1; i < len(st.Levels); i++ {
		if st.Levels[i].NetPoints > st.Levels[i-1].NetPoints {
			t.Errorf("net points must shrink with level: %d -> %d",
				st.Levels[i-1].NetPoints, st.Levels[i].NetPoints)
		}
	}
	// Stats must survive persistence.
	var buf bytes.Buffer
	if err := SaveScheme(&buf, s); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadScheme(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lst := loaded.StoreStats()
	if lst.TotalNetEdges != st.TotalNetEdges {
		t.Errorf("TotalNetEdges %d -> %d after round trip", st.TotalNetEdges, lst.TotalNetEdges)
	}
}

// TestSchemeSaveLoadDense: LoadScheme must read back whatever SaveScheme
// wrote. The plausibility bound on m used to be 64·n, which refused any
// graph of average degree above 128 — K₂₀₀ has m = 19 900 = 99.5·n.
func TestSchemeSaveLoadDense(t *testing.T) {
	const n = 200
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	s, err := BuildScheme(b.MustBuild(), 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveScheme(&buf, s); err != nil {
		t.Fatal(err)
	}
	saved := bytes.Clone(buf.Bytes())
	loaded, err := LoadScheme(&buf)
	if err != nil {
		t.Fatalf("LoadScheme of what SaveScheme wrote for K%d: %v", n, err)
	}
	if !bytes.Equal(loaded.LevelGraphs().Encode(), saved) {
		t.Fatal("the loaded scheme encodes to other bytes")
	}
	for _, v := range []int{0, 99, 199} {
		a, abits := s.Label(v).Encode()
		b, bbits := loaded.Label(v).Encode()
		if abits != bbits || !bytes.Equal(a, b) {
			t.Fatalf("label %d differs after the round trip", v)
		}
	}
}

// schemeParts is a persisted scheme taken apart far enough to put it
// together wrong: the encoding, re-implemented here field by field so
// the table below can write what Encode never would.
type schemeParts struct {
	header   [6]uint64 // ε·2¹⁶, c, max level, r-shrink, n, m
	edges    [][2]uint64
	netLevel []uint64
	// rows[li-1][i] is the row of the i-th net point of level index li:
	// (id gap, distance) pairs.
	rows [][][][2]uint64
	tail []byte
}

func takeApart(t *testing.T, st *LevelGraphs) *schemeParts {
	t.Helper()
	p := st.params
	sb := &schemeParts{header: [6]uint64{uint64(p.Epsilon * 65536), uint64(p.C), uint64(p.MaxLevel),
		uint64(p.RShrink), uint64(st.g.NumVertices()), uint64(st.g.NumEdges())}}
	prevU := 0
	st.g.ForEachEdge(func(u, v int) {
		sb.edges = append(sb.edges, [2]uint64{uint64(u - prevU), uint64(v)})
		prevU = u
	})
	for _, lvl := range st.netLevel {
		sb.netLevel = append(sb.netLevel, uint64(lvl))
	}
	for li := 1; li < len(st.levels); li++ {
		var rows [][][2]uint64
		for _, v := range st.levels[li].members {
			row := [][2]uint64{}
			prev := int64(-1)
			for _, nb := range st.levels[li].row(v) {
				row = append(row, [2]uint64{uint64(int64(nb.x) - prev - 1), uint64(nb.d)})
				prev = int64(nb.x)
			}
			rows = append(rows, row)
		}
		sb.rows = append(sb.rows, rows)
	}
	return sb
}

func (sb *schemeParts) bytes() []byte {
	b := append([]byte(nil), schemeMagic...)
	for _, v := range sb.header {
		b = binary.AppendUvarint(b, v)
	}
	for _, e := range sb.edges {
		b = binary.AppendUvarint(binary.AppendUvarint(b, e[0]), e[1])
	}
	for _, lvl := range sb.netLevel {
		b = binary.AppendUvarint(b, lvl)
	}
	for _, rows := range sb.rows {
		for _, row := range rows {
			b = binary.AppendUvarint(b, uint64(len(row)))
			for _, e := range row {
				b = binary.AppendUvarint(binary.AppendUvarint(b, e[0]), e[1])
			}
		}
	}
	return append(b, sb.tail...)
}

// TestLoadLevelGraphsRejectsHostileInput: labels are induced from the
// rows without a second look (LevelGraphs.Label returns them validated),
// so everything Validate would have caught in an edge — and everything
// that sizes an allocation — must be refused when the rows are loaded.
// Each case is a faithful encoding of a real scheme with one thing wrong.
func TestLoadLevelGraphsRejectsHostileInput(t *testing.T) {
	s, err := BuildScheme(pathGraph(t, 40), 2)
	if err != nil {
		t.Fatal(err)
	}
	st := s.LevelGraphs()
	if !bytes.Equal(takeApart(t, st).bytes(), st.Encode()) {
		t.Fatal("the test's encoder disagrees with Encode on an untouched scheme")
	}
	// Level index 1 uses N_1, which vertex `outsider` is not in; its first
	// net point with a non-empty row is where the rows are bent.
	const li = 1
	outsider := uint64(slices.IndexFunc(st.netLevel, func(l int32) bool { return l < st.levels[li].netLvl }))
	ri := slices.IndexFunc(st.levels[li].members, func(v int32) bool { return len(st.levels[li].row(v)) >= 2 })
	self := uint64(st.levels[li].members[ri])
	lambda := uint64(st.params.Lambda(st.levels[li].level))
	row := func(sb *schemeParts) [][2]uint64 { return sb.rows[li-1][ri] }

	cases := map[string]func(sb *schemeParts){
		"distance 0":                     func(sb *schemeParts) { row(sb)[0][1] = 0 },
		"distance past λ":                func(sb *schemeParts) { row(sb)[0][1] = lambda + 1 },
		"distance that truncates to 1":   func(sb *schemeParts) { row(sb)[0][1] = 1<<32 + 1 },
		"neighbour outside the level":    func(sb *schemeParts) { sb.rows[li-1][ri] = [][2]uint64{{outsider, 1}} },
		"neighbour is the point itself":  func(sb *schemeParts) { sb.rows[li-1][ri] = [][2]uint64{{self, 1}} },
		"id gap past n":                  func(sb *schemeParts) { row(sb)[1][0] = 40 },
		"id gap that wraps":              func(sb *schemeParts) { row(sb)[1][0] = 1<<64 - 3 },
		"more entries than net points":   func(sb *schemeParts) { sb.rows[li-1][ri] = make([][2]uint64, 41) },
		"net level outside the nets":     func(sb *schemeParts) { sb.netLevel[7] = 99 },
		"level count that never ends":    func(sb *schemeParts) { sb.header[2] = 1 << 40 },
		"c past every radius":            func(sb *schemeParts) { sb.header[1], sb.header[2] = 40, 41 },
		"r-shrink out of range":          func(sb *schemeParts) { sb.header[3] = 33 },
		"n the input cannot hold":        func(sb *schemeParts) { sb.header[4] = 1 << 24 },
		"m past a simple graph's":        func(sb *schemeParts) { sb.header[5] = 40*39/2 + 1 },
		"m the input cannot hold":        func(sb *schemeParts) { sb.header[4], sb.header[5] = 1<<20, 1<<30 },
		"edge endpoint out of range":     func(sb *schemeParts) { sb.edges[3][1] = 40 },
		"edge gap that wraps":            func(sb *schemeParts) { sb.edges[3][0] = 1<<64 - 1 },
		"self-loop":                      func(sb *schemeParts) { sb.edges[3] = [2]uint64{0, 2} },
		"repeated edge":                  func(sb *schemeParts) { sb.edges[3] = [2]uint64{0, 3} },
		"trailing bytes":                 func(sb *schemeParts) { sb.tail = []byte{0} },
		"last level's rows cut off":      func(sb *schemeParts) { sb.rows[len(sb.rows)-1] = sb.rows[len(sb.rows)-1][:0] },
		"row of a net point left out":    func(sb *schemeParts) { sb.rows[li-1] = sb.rows[li-1][1:] },
		"level of rows left out":         func(sb *schemeParts) { sb.rows = sb.rows[:len(sb.rows)-1] },
		"a level of rows too many":       func(sb *schemeParts) { sb.rows = append(sb.rows, sb.rows[0]) },
		"net level demoted under a row":  func(sb *schemeParts) { sb.netLevel[self] = 0 },
		"vertex promoted without a row":  func(sb *schemeParts) { sb.netLevel[outsider] = uint64(st.levels[li].netLvl) },
		"ε past what a label can encode": func(sb *schemeParts) { sb.header[0] = 1 << 41 },
	}
	for name, bend := range cases {
		sb := takeApart(t, st)
		bend(sb)
		lg, err := LoadLevelGraphs(sb.bytes())
		if err == nil {
			// Whatever got through must still only mint valid labels.
			for v := 0; v < lg.NumVertices(); v++ {
				balls := make([][]PointEntry, len(lg.levels))
				for k := range balls {
					for _, x := range lg.NetPoints(k) {
						balls[k] = append(balls[k], PointEntry{X: x})
					}
				}
				if l, err := lg.Label(int32(v), balls); err == nil {
					if err := l.validate(); err != nil {
						t.Errorf("%s: accepted, and vertex %d's label fails Validate: %v", name, v, err)
						break
					}
				}
			}
			t.Errorf("%s: accepted", name)
		}
		if _, err := LoadScheme(bytes.NewReader(sb.bytes())); err == nil {
			t.Errorf("%s: accepted by LoadScheme", name)
		}
	}
	good := st.Encode()
	for name, raw := range map[string][]byte{
		"nothing":              nil,
		"the magic alone":      schemeMagic,
		"an overlong varint":   append(bytes.Clone(schemeMagic), bytes.Repeat([]byte{0x80}, 11)...),
		"cut inside a varint":  append(bytes.Clone(good[:len(good)-1]), 0x80),
		"cut at two thirds":    good[:2*len(good)/3],
		"another file's magic": append([]byte("FSDL3\x00"), good[6:]...),
	} {
		if _, err := LoadLevelGraphs(raw); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestLabelFromBallsRejectsHostileBalls: the balls come out of a
// container's records; "this ball holds every net point of its level" is
// decided by counting them, which is only sound once every id is known
// to be in range, ascending and a net point of the level.
func TestLabelFromBallsRejectsHostileBalls(t *testing.T) {
	s, err := BuildScheme(pathGraph(t, 40), 2)
	if err != nil {
		t.Fatal(err)
	}
	lg := s.LevelGraphs()
	const v, k = 17, 1
	good := s.Label(v)
	if _, err := lg.Label(v, ballsOf(good)); err != nil {
		t.Fatalf("the label's own balls: %v", err)
	}
	outsider := int32(slices.IndexFunc(lg.netLevel, func(l int32) bool { return l < lg.levels[k].netLvl }))
	net := lg.NetPoints(k)
	cases := map[string]func(balls [][]PointEntry) [][]PointEntry{
		"id past n":         func(b [][]PointEntry) [][]PointEntry { b[k][len(b[k])-1].X = 40; return b },
		"negative id":       func(b [][]PointEntry) [][]PointEntry { b[k][0].X = -1; return b },
		"repeated id":       func(b [][]PointEntry) [][]PointEntry { b[k][1].X = b[k][0].X; return b },
		"descending ids":    func(b [][]PointEntry) [][]PointEntry { b[k][0], b[k][1] = b[k][1], b[k][0]; return b },
		"not a net point":   func(b [][]PointEntry) [][]PointEntry { b[k] = []PointEntry{{X: outsider}}; return b },
		"distance past r":   func(b [][]PointEntry) [][]PointEntry { b[k][0].D = lg.params.R(lg.levels[k].level) + 1; return b },
		"negative distance": func(b [][]PointEntry) [][]PointEntry { b[k][0].D = -1; return b },
		"a level too few":   func(b [][]PointEntry) [][]PointEntry { return b[:len(b)-1] },
		"a level too many":  func(b [][]PointEntry) [][]PointEntry { return append(b, nil) },
		// As many points as the level has net points, one of them wrong:
		// counted alone this ball would pass for saturated.
		"saturated by count only": func(b [][]PointEntry) [][]PointEntry {
			b[k] = nil
			for _, x := range net {
				b[k] = append(b[k], PointEntry{X: x})
			}
			b[k][len(b[k])-1].X = b[k][len(b[k])-2].X
			return b
		},
	}
	for name, bend := range cases {
		if l, err := lg.Label(v, bend(ballsOf(good))); err == nil {
			t.Errorf("%s: accepted (validate says %v)", name, l.validate())
		}
	}
	if _, err := lg.Label(40, ballsOf(good)); err == nil {
		t.Error("vertex past n accepted")
	}
}
