package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"fsdl/internal/bitio"
	"fsdl/internal/graph"
)

// Label is the self-contained forbidden-set distance label L(v) of one
// vertex. Given only the labels of s, t and the forbidden set F, the
// decoder (see Query) answers (1+ε)-approximate distance queries on G\F.
//
// Levels[k] holds the level-(c+1+k) graph H_ℓ(v): the net points of
// N_{ℓ-c-1} within r_ℓ of v with their exact distances from v, and the
// short edges between them. At the lowest level the edges are the original
// unit-weight graph edges inside the ball.
//
// A label is immutable once Validate has accepted it: the verdict is
// recorded on the label (labels are shared and cached, and every query
// re-validates the ones it touches), so modifying a validated label in
// place — or a struct copy of one, which carries the verdict along —
// leaves that verdict standing over contents it no longer describes.
// Build a changed label as a new Label value instead. The rule covers the
// backing arrays too: Levels[k].Edges may be one array that many labels
// hold (a scheme's saturated levels, a store's or frontend's interned
// lists — see LevelTable), so writing through it rewrites all of them.
//
// A label materialised from its balls (LevelGraphs.Label: what a factored
// store or a cluster frontend parses) holds only what its record encodes:
// its points, a saturated level's one shared list, and the level graphs
// the rest of its edges are read from. Read edges through LevelEdges,
// which induces such a level's list on demand; Levels[k].Edges is nil
// there.
type Label struct {
	// V is the labeled vertex.
	V int32
	// Epsilon, C, MaxLevel and RShrink echo the scheme parameters so that
	// a label is interpretable on its own (and so the decoder can
	// cross-check that all labels of a query come from compatible
	// schemes). RShrink matters for soundness: the decoder's
	// "outside the protected ball" certificates depend on the ball radius
	// the label was extracted with.
	Epsilon  float64
	C        int
	MaxLevel int
	RShrink  int
	// Levels[k] is the level-(c+1+k) content.
	Levels []LevelLabel

	// validated is nonzero once Validate has accepted the label; it is
	// read and written atomically. A plain word rather than an atomic
	// type so that a Label value stays copyable.
	validated uint32
	fromBalls bool
	// graphs are the level graphs the label was induced from (nil: decoded
	// from canonical bytes), whose coded whole lists Encode appends; on a
	// label materialised from its balls (fromBalls) they induce the
	// levels whose Edges it leaves nil.
	graphs *LevelGraphs
}

// LevelLabel is the per-level slice of a label.
type LevelLabel struct {
	// Points lists the net points x of this level's ball around v,
	// sorted by vertex id, with D = d_G(v, x) ≤ r_ℓ.
	Points []PointEntry
	// Edges lists the short edges between points: indices into Points and
	// the exact distance D = d_G(x,y) ≤ λ_ℓ (D = 1 at the lowest level,
	// where edges are original graph edges).
	//
	// Read it through Label.LevelEdges, not directly: on a label
	// materialised from its balls (LevelGraphs.Label) it is nil on every
	// level that is not saturated, and LevelEdges induces the list there.
	Edges []EdgeEntry
}

// PointEntry is a net point of a label ball and its distance from the
// labeled vertex.
type PointEntry struct {
	X int32 // vertex id
	D int32 // d_G(v, X)
}

// EdgeEntry is a short edge between two points of the same level, stored
// as indices into the Points slice (XI < YI), with its exact length.
type EdgeEntry struct {
	XI, YI int32
	D      int32
}

// Level returns the scheme level of Levels[k], namely c+1+k.
func (l *Label) Level(k int) int { return l.C + 1 + k }

// DistTo returns d_G(v, x) if x is a point of level ℓ's ball, with
// ok = false when x is outside the ball (distance > r_ℓ).
func (l *Label) DistTo(level int, x int32) (int32, bool) {
	k := level - l.C - 1
	if k < 0 || k >= len(l.Levels) {
		return 0, false
	}
	pts := l.Levels[k].Points
	i := sort.Search(len(pts), func(i int) bool { return pts[i].X >= x })
	if i < len(pts) && pts[i].X == x {
		return pts[i].D, true
	}
	return 0, false
}

// InProtectedBall reports whether x lies in the level-ℓ protected ball
// PB_ℓ(v) = B(v, λ_ℓ) around this label's vertex. As the paper observes,
// the label data suffices: r_ℓ > λ_ℓ, so any x missing from the ball list
// is certainly outside PB_ℓ(v).
func (l *Label) InProtectedBall(level int, x int32) bool {
	if x == l.V {
		return true
	}
	d, ok := l.DistTo(level, x)
	return ok && d <= lambdaOf(level)
}

func lambdaOf(level int) int32 { return 1 << uint(level+1) }

// NumPoints returns the total number of point entries across levels.
func (l *Label) NumPoints() int {
	total := 0
	for _, lv := range l.Levels {
		total += len(lv.Points)
	}
	return total
}

// NumEdges returns the total number of edge entries across levels.
func (l *Label) NumEdges() int {
	total := 0
	var buf []EdgeEntry
	for k := range l.Levels {
		total += len(l.LevelEdges(k, &buf))
	}
	return total
}

// HoldsEdges reports whether the label holds the edge list of level index
// k itself — false for a level of a label materialised from its balls
// that is not saturated, whose list LevelEdges induces.
func (l *Label) HoldsEdges(k int) bool {
	return !l.fromBalls || l.Levels[k].Edges != nil
}

// LevelEdges returns the edge list of level index k: the label's own
// (HoldsEdges), or the one its level graphs induce on the level's ball,
// read into *buf (grown as needed and stored back; a nil buf allocates).
// The result must not be modified; an induced one is valid until *buf is
// reused.
func (l *Label) LevelEdges(k int, buf *[]EdgeEntry) []EdgeEntry {
	if l.HoldsEdges(k) {
		return l.Levels[k].Edges
	}
	if buf == nil {
		buf = new([]EdgeEntry)
	}
	idx := l.graphs.balls.Get().(*ballIndex)
	edges := l.levelEdges(k, idx, buf)
	l.graphs.balls.Put(idx)
	return edges
}

// levelEdges is LevelEdges with a position map the caller keeps (the
// decoder's scratch has its own) instead of one from the level graphs'
// pool.
func (l *Label) levelEdges(k int, idx *ballIndex, buf *[]EdgeEntry) []EdgeEntry {
	if l.HoldsEdges(k) {
		return l.Levels[k].Edges
	}
	*buf = l.graphs.inducedEdges(k, l.Levels[k].Points, idx, (*buf)[:0])
	return *buf
}

// levelEdgeCount is len(levelEdges(k, idx, …)) without building the list.
func (l *Label) levelEdgeCount(k int, idx *ballIndex) int {
	if l.HoldsEdges(k) {
		return len(l.Levels[k].Edges)
	}
	return l.graphs.inducedEdgeCount(k, l.Levels[k].Points, idx)
}

// Validate checks the structural invariants a well-formed label satisfies:
// consistent level count, strictly sorted point lists, in-range edge
// indices with XI < YI, and distances within the level bounds (points
// within r_ℓ of v, edges within λ_ℓ). DecodeLabel applies it, making
// decoded labels trustworthy structurally (their distances may still be
// semantically wrong if the producer lied — the decoder's guarantees are
// only as good as the marker that produced the labels, exactly as in the
// paper's model).
//
// The first successful Validate records its verdict and later calls
// return it without walking the label again; see the immutability note
// on Label.
func (l *Label) Validate() error {
	if atomic.LoadUint32(&l.validated) != 0 {
		return nil
	}
	if err := l.validate(); err != nil {
		return err
	}
	atomic.StoreUint32(&l.validated, 1)
	return nil
}

func (l *Label) validate() error {
	if l.C < 2 {
		return fmt.Errorf("core: label c = %d < 2", l.C)
	}
	if len(l.Levels) != l.MaxLevel-l.C {
		return fmt.Errorf("core: label has %d levels, want %d", len(l.Levels), l.MaxLevel-l.C)
	}
	if l.RShrink < 0 || l.RShrink > 32 {
		return fmt.Errorf("core: label r-shrink %d out of range", l.RShrink)
	}
	var buf []EdgeEntry
	for k := range l.Levels {
		level := l.Level(k)
		lv := &l.Levels[k]
		r := labelBallRadius(l.C, level, l.RShrink)
		lambda := lambdaOf(level)
		var prev int32 = -1
		for i, pe := range lv.Points {
			if pe.X <= prev {
				return fmt.Errorf("core: level %d point %d not strictly sorted", level, i)
			}
			prev = pe.X
			if pe.D < 0 || pe.D > r {
				return fmt.Errorf("core: level %d point %d distance %d outside [0,%d]",
					level, i, pe.D, r)
			}
			if pe.D == 0 && pe.X != l.V { // every sketch edge weighs something (graph.SketchSolver)
				return fmt.Errorf("core: level %d point %d at distance 0 is not the label's vertex", level, i)
			}
		}
		maxEdgeLen := lambda
		if level == l.C+1 {
			maxEdgeLen = 1 // lowest level stores original unit edges
		}
		for i, e := range l.LevelEdges(k, &buf) {
			if e.XI < 0 || e.YI < 0 || int(e.XI) >= len(lv.Points) || int(e.YI) >= len(lv.Points) {
				return fmt.Errorf("core: level %d edge %d index out of range", level, i)
			}
			if e.XI >= e.YI {
				return fmt.Errorf("core: level %d edge %d has XI >= YI", level, i)
			}
			if e.D <= 0 || e.D > maxEdgeLen {
				return fmt.Errorf("core: level %d edge %d length %d outside (0,%d]",
					level, i, e.D, maxEdgeLen)
			}
		}
	}
	return nil
}

// extractScratch pools the per-extraction transients: the O(n) BFS state
// and distance column, the ball's position map, and staging buffers for
// points and edges. All of them grow to the largest label seen and are
// reused, so a cold extraction allocates only the exact-size slices
// retained by the returned Label — no per-level map, no append-doubling
// garbage.
type extractScratch struct {
	bfs    *graph.BFSScratch
	inBall ballIndex
	pts    []PointEntry
	edges  []EdgeEntry
	// dist[w] is w's distance from the vertex being extracted, for every
	// net point the current level's BFS met; stale for every other vertex.
	dist []int32
}

// ballIndex is a dense vertex → position map over the points of one ball:
// pos[x] is i+1 for the i-th point, 0 for a vertex outside the ball. Every
// use sets it for one ball and clears it again (inducedEdges), so it is
// all zeros between balls and a position never outlives its ball.
type ballIndex struct {
	pos []int32
	// edges stages a list induced on the ball (eachLevel).
	edges []EdgeEntry
}

func (b *ballIndex) set(pts []PointEntry, n int) {
	if len(b.pos) < n {
		b.pos = make([]int32, n)
	}
	for i, pe := range pts {
		b.pos[pe.X] = int32(i) + 1
	}
}

func (b *ballIndex) clear(pts []PointEntry) {
	for _, pe := range pts {
		b.pos[pe.X] = 0
	}
}

func newExtractScratch(n int) *extractScratch {
	return &extractScratch{bfs: graph.NewBFSScratch(n), dist: make([]int32, n)}
}

// extractLabel materializes the label of v from the level graphs: one
// truncated BFS of radius r_ℓ per level discovers the ball (points and
// their distances); the edges are induced on it (induce). A ball that met
// every net point of its level is read off the level's ascending members
// instead of sorted.
func (st *LevelGraphs) extractLabel(v int, sc *extractScratch) *Label {
	p := st.params
	l := st.newLabel(int32(v))
	netLevel, dist := st.netLevel, sc.dist
	for level := p.LowestLevel(); level <= p.MaxLevel; level++ {
		k := st.levelIndex(level)
		sl := &st.levels[k]
		pts := sc.pts[:0]
		sc.bfs.TruncatedBFS(st.g, v, p.R(level), func(w, d int32) {
			if netLevel[w] >= sl.netLvl {
				pts = append(pts, PointEntry{X: w, D: d})
				dist[w] = d
			}
		})
		if len(pts) == len(sl.members) {
			// Saturated: this BFS wrote every member's entry, so no
			// stale one is read.
			for i, x := range sl.members {
				pts[i] = PointEntry{X: x, D: dist[x]}
			}
		} else {
			slices.SortFunc(pts, func(a, b PointEntry) int { return cmp.Compare(a.X, b.X) })
		}
		l.Levels[k] = LevelLabel{Points: exactCopy(pts), Edges: st.induce(k, pts, sc)}
		sc.pts = pts[:0]
	}
	return l
}

func (st *LevelGraphs) newLabel(v int32) *Label {
	p := st.params
	return &Label{
		V:        v,
		Epsilon:  p.Epsilon,
		C:        p.C,
		MaxLevel: p.MaxLevel,
		RShrink:  p.RShrink,
		Levels:   make([]LevelLabel, p.NumLevelRange()),
		graphs:   st,
	}
}

// Label materialises the label of v from its balls: balls[k] lists the
// net points of level index k within r_ℓ of v, ascending by id, with
// their distances from v. The label is its balls: it keeps the points, a
// saturated level's edge list — the level's one whole list, which every
// label from these level graphs shares (wholeEdges) — and the level
// graphs, off whose rows LevelEdges and the decoder read every other
// level's edges. Those are the edges extractLabel induces, so for the
// balls a scheme's extraction finds it is that label, less the private
// lists. The balls come from outside (a container's records) and are
// checked here for everything Validate checks in points plus what the
// row walk relies on: every id in range, strictly ascending and a net
// point of its level. The label takes ownership of the ball slices.
//
// The edges need no such walk: they are read off rows that
// LoadLevelGraphs checked once (or a scheme built), between points
// checked here, so the label is returned validated.
func (st *LevelGraphs) Label(v int32, balls [][]PointEntry) (*Label, error) {
	if v < 0 || int(v) >= len(st.netLevel) {
		return nil, fmt.Errorf("core: vertex %d outside the level graphs' [0,%d)", v, len(st.netLevel))
	}
	if len(balls) != len(st.levels) {
		return nil, fmt.Errorf("core: %d balls for %d levels", len(balls), len(st.levels))
	}
	for k, pts := range balls {
		sl := &st.levels[k]
		r := st.params.R(sl.level)
		prev := int32(-1)
		for i, pe := range pts {
			if pe.X <= prev || int(pe.X) >= len(st.netLevel) || st.netLevel[pe.X] < sl.netLvl {
				return nil, fmt.Errorf("core: level %d ball point %d (vertex %d) out of order, out of range or not a net point", sl.level, i, pe.X)
			}
			prev = pe.X
			if pe.D < 0 || pe.D > r {
				return nil, fmt.Errorf("core: level %d ball point %d distance %d outside [0,%d]", sl.level, i, pe.D, r)
			}
		}
	}
	l := st.newLabel(v)
	for k, pts := range balls {
		l.Levels[k].Points = pts
		if len(pts) == len(st.levels[k].members) {
			l.Levels[k].Edges = st.wholeEdges(k)
		}
	}
	l.fromBalls = true
	l.validated = 1
	return l, nil
}

// induce returns the level-k edge list of a label whose ball holds pts
// (net points of the level, ascending by id). A saturated ball — every
// net point of the level is in it — induces the whole level graph, which
// is the same list for every such vertex: the label takes the one copy
// (wholeEdges), pointer-identical across every label induced from these
// level graphs. Any other ball gets inducedEdges as a private copy.
func (st *LevelGraphs) induce(k int, pts []PointEntry, sc *extractScratch) []EdgeEntry {
	if len(pts) == len(st.levels[k].members) {
		return st.wholeEdges(k)
	}
	sc.edges = st.inducedEdges(k, pts, &sc.inBall, sc.edges[:0])
	return exactCopy(sc.edges)
}

// inducedEdges appends to edges the level-k edges between the points of
// pts (ascending by X), as indices into pts, in (XI, YI) order: for each
// point x, the forward half of its row — the entries y > x of the store's
// net-graph row or, at the lowest level, of the original graph's
// adjacency, both ascending by id, up to the ball's last point — kept
// where y is in the ball. idx is the position map, set for the ball and
// cleared again before returning.
func (st *LevelGraphs) inducedEdges(k int, pts []PointEntry, idx *ballIndex, edges []EdgeEntry) []EdgeEntry {
	if len(pts) == 0 {
		return edges
	}
	idx.set(pts, len(st.netLevel))
	pos, last := idx.pos, pts[len(pts)-1].X
	if k == 0 {
		for i, pe := range pts {
			nb := st.g.Neighbors(int(pe.X))
			for len(nb) > 0 && nb[0] < pe.X {
				nb = nb[1:]
			}
			for _, w := range nb {
				if w > last {
					break
				}
				if j := pos[w]; j != 0 {
					edges = append(edges, EdgeEntry{XI: int32(i), YI: j - 1, D: 1})
				}
			}
		}
	} else {
		sl := &st.levels[k]
		for i, pe := range pts {
			for _, nb := range sl.forwardRow(pe.X) {
				if nb.x > last {
					break
				}
				if j := pos[nb.x]; j != 0 {
					edges = append(edges, EdgeEntry{XI: int32(i), YI: j - 1, D: nb.d})
				}
			}
		}
	}
	idx.clear(pts)
	return edges
}

// inducedEdgeCount is len(inducedEdges(k, pts, idx, nil)): the same walk
// of the forward rows, counting the entries it would keep.
func (st *LevelGraphs) inducedEdgeCount(k int, pts []PointEntry, idx *ballIndex) (n int) {
	if len(pts) == 0 {
		return 0
	}
	idx.set(pts, len(st.netLevel))
	pos, last := idx.pos, pts[len(pts)-1].X
	if k == 0 {
		for _, pe := range pts {
			for _, w := range st.g.Neighbors(int(pe.X)) {
				if w > last {
					break
				}
				if w > pe.X && pos[w] != 0 {
					n++
				}
			}
		}
	} else {
		sl := &st.levels[k]
		for _, pe := range pts {
			for _, nb := range sl.forwardRow(pe.X) {
				if nb.x > last {
					break
				}
				if pos[nb.x] != 0 {
					n++
				}
			}
		}
	}
	idx.clear(pts)
	return n
}

// wholeEdges returns the edge list of level index k induced on all of the
// level's net points, built on first use.
func (st *LevelGraphs) wholeEdges(k int) []EdgeEntry {
	w := st.levels[k].whole
	w.once.Do(func() {
		members := st.levels[k].members
		pts := make([]PointEntry, len(members))
		for i, x := range members {
			pts[i].X = x
		}
		// Each edge sits in two rows (at the lowest level: two adjacency
		// lists), so the list's size is known up front.
		size := st.g.NumEdges()
		if k > 0 {
			size = len(st.levels[k].entries) / 2
		}
		var idx ballIndex
		if edges := st.inducedEdges(k, pts, &idx, make([]EdgeEntry, 0, size)); len(edges) > 0 {
			w.edges = edges
		}
	})
	return w.edges
}

// section returns the coded edge section of level index k when the
// label's list there is its level graphs' whole list itself — the same
// backing array and length, never an equal or equally long copy —
// coding it on first use with the coder every other list goes through.
func (l *Label) section(k int) *bitio.Writer {
	edges := l.Levels[k].Edges
	if l.graphs == nil || k >= len(l.graphs.levels) || len(edges) == 0 ||
		len(l.Levels[k].Points) != len(l.graphs.levels[k].members) {
		return nil
	}
	// A saturated level was handed the whole list when the label was
	// made: this builds nothing.
	if whole := l.graphs.wholeEdges(k); len(whole) != len(edges) || &whole[0] != &edges[0] {
		return nil
	}
	w := l.graphs.levels[k].whole
	w.coded.Do(func() { writeEdgeSection(&w.section, w.edges) })
	return &w.section
}

// exactCopy returns a copy of s sized exactly to its length (nil for
// empty), so the retained label never pins staging-buffer capacity.
func exactCopy[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// Encode serializes the label to a bit string. The encoding is
// self-delimiting and uses Elias gamma/delta codes so that the measured
// label length in bits reflects the paper's accounting (ids and distances
// cost O(log n) bits each). A level list that is its level graphs' whole
// list is appended as the section coded with it (section).
func (l *Label) Encode() ([]byte, int) {
	var w bitio.Writer
	for _, x := range l.header() {
		w.WriteUvarint(x)
	}
	l.eachLevel(func(k int, edges []EdgeEntry, sec *bitio.Writer) {
		w.WriteDelta(uint64(len(l.Levels[k].Points)))
		prev := int64(-1)
		for _, pe := range l.Levels[k].Points {
			w.WriteDelta(uint64(int64(pe.X) - prev - 1)) // gap code
			prev = int64(pe.X)
			w.WriteGamma(uint64(pe.D))
		}
		if sec != nil {
			w.WriteWords(sec)
		} else {
			writeEdgeSection(&w, edges)
		}
	})
	return w.Bytes(), w.Len()
}

// BitLen returns the exact length of Encode's output in bits without
// writing it; a whole list costs its section's cached length.
func (l *Label) BitLen() int {
	n := 0
	for _, x := range l.header() {
		n += bitio.UvarintLen(x)
	}
	l.eachLevel(func(k int, edges []EdgeEntry, sec *bitio.Writer) {
		n += bitio.DeltaLen(uint64(len(l.Levels[k].Points)))
		prev := int64(-1)
		for _, pe := range l.Levels[k].Points {
			n += bitio.DeltaLen(uint64(int64(pe.X)-prev-1)) + bitio.GammaLen(uint64(pe.D))
			prev = int64(pe.X)
		}
		if sec != nil {
			n += sec.Len()
		} else {
			n += edgeSectionBits(edges)
		}
	})
	return n
}

// header lists the parameters Encode writes first, as varints. ε is
// stored as a rational with 2^16 denominator — enough for any precision
// the scheme distinguishes (only c matters operationally).
func (l *Label) header() [5]uint64 {
	return [5]uint64{uint64(l.V), uint64(l.Epsilon * 65536), uint64(l.C), uint64(l.MaxLevel), uint64(l.RShrink)}
}

// eachLevel calls f with every level index and its edge list, or — for a
// list that is its level graphs' whole one — with that list's coded
// section and no edges. A list the label leaves to its level graphs is
// induced into a pooled buffer that lasts while f runs.
func (l *Label) eachLevel(f func(k int, edges []EdgeEntry, sec *bitio.Writer)) {
	var idx *ballIndex
	for k := range l.Levels {
		switch sec := l.section(k); {
		case sec != nil:
			f(k, nil, sec)
		case l.HoldsEdges(k):
			f(k, l.Levels[k].Edges, nil)
		default:
			if idx == nil {
				idx = l.graphs.balls.Get().(*ballIndex)
				defer l.graphs.balls.Put(idx)
			}
			f(k, l.levelEdges(k, idx, &idx.edges), nil)
		}
	}
}

// writeEdgeSection writes one level's edge list as Encode codes it: the
// count, then per edge, in (XI, YI) order, the gap of XI, the gap of YI
// within a run of equal XI, and the distance.
func writeEdgeSection(w *bitio.Writer, edges []EdgeEntry) {
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

// edgeSectionBits is the length of writeEdgeSection's output.
func edgeSectionBits(edges []EdgeEntry) int {
	n := bitio.DeltaLen(uint64(len(edges)))
	var prevXI, prevYI int64
	for _, e := range edges {
		dx := int64(e.XI) - prevXI
		if dx != 0 {
			prevYI = 0
		}
		n += bitio.GammaLen(uint64(dx)) + bitio.GammaLen(uint64(int64(e.YI)-prevYI)) + bitio.GammaLen(uint64(e.D))
		prevXI, prevYI = int64(e.XI), int64(e.YI)
	}
	return n
}

// DecodeLabel parses a label serialized by Encode. nbits is the exact bit
// length returned by Encode.
func DecodeLabel(buf []byte, nbits int) (*Label, error) {
	return decodeLabel(buf, nbits, nil)
}

// decodeLabel is DecodeLabel taking each level's edge slice from alloc
// (nil: a fresh allocation) — see LevelTable.DecodeLabel.
func decodeLabel(buf []byte, nbits int, alloc func(n int) []EdgeEntry) (*Label, error) {
	r := bitio.NewReader(buf, nbits)
	l := &Label{}
	v, err := r.ReadUvarint()
	if err != nil {
		return nil, fmt.Errorf("core: decode label vertex: %w", err)
	}
	l.V = int32(v)
	epsQ, err := r.ReadUvarint()
	if err != nil {
		return nil, fmt.Errorf("core: decode label epsilon: %w", err)
	}
	l.Epsilon = float64(epsQ) / 65536
	c, err := r.ReadUvarint()
	if err != nil {
		return nil, fmt.Errorf("core: decode label c: %w", err)
	}
	l.C = int(c)
	maxLevel, err := r.ReadUvarint()
	if err != nil {
		return nil, fmt.Errorf("core: decode label max level: %w", err)
	}
	l.MaxLevel = int(maxLevel)
	rShrink, err := r.ReadUvarint()
	if err != nil {
		return nil, fmt.Errorf("core: decode label r-shrink: %w", err)
	}
	if rShrink > 32 {
		return nil, fmt.Errorf("core: decode label: implausible r-shrink %d", rShrink)
	}
	l.RShrink = int(rShrink)
	numLevels := l.MaxLevel - l.C
	if numLevels < 0 || numLevels > 64 {
		return nil, fmt.Errorf("core: decode label: implausible level count %d", numLevels)
	}
	l.Levels = make([]LevelLabel, numLevels)
	for k := range l.Levels {
		np, err := r.ReadDelta()
		if err != nil {
			return nil, fmt.Errorf("core: decode level %d points: %w", k, err)
		}
		// Each point costs at least 2 bits (a delta gap and a gamma
		// distance), so a count beyond the remaining bits is corrupt —
		// reject it before allocating.
		if np > uint64(r.Remaining()) {
			return nil, fmt.Errorf("core: decode level %d: point count %d exceeds payload", k, np)
		}
		pts := make([]PointEntry, np)
		prev := int64(-1)
		for i := range pts {
			gap, err := r.ReadDelta()
			if err != nil {
				return nil, fmt.Errorf("core: decode point gap: %w", err)
			}
			prev += int64(gap) + 1
			d, err := r.ReadGamma()
			if err != nil {
				return nil, fmt.Errorf("core: decode point dist: %w", err)
			}
			pts[i] = PointEntry{X: int32(prev), D: int32(d)}
		}
		ne, err := r.ReadDelta()
		if err != nil {
			return nil, fmt.Errorf("core: decode level %d edges: %w", k, err)
		}
		// Each edge costs at least 3 bits (two gamma indices and a gamma
		// distance).
		if ne > uint64(r.Remaining()) {
			return nil, fmt.Errorf("core: decode level %d: edge count %d exceeds payload", k, ne)
		}
		var edges []EdgeEntry
		if alloc != nil {
			edges = alloc(int(ne))
		} else {
			edges = make([]EdgeEntry, ne)
		}
		var prevXI, prevYI int64
		for i := range edges {
			dx, err := r.ReadGamma()
			if err != nil {
				return nil, fmt.Errorf("core: decode edge xi: %w", err)
			}
			xi := prevXI + int64(dx)
			if dx != 0 {
				prevYI = 0
			}
			dy, err := r.ReadGamma()
			if err != nil {
				return nil, fmt.Errorf("core: decode edge yi: %w", err)
			}
			yi := prevYI + int64(dy)
			d, err := r.ReadGamma()
			if err != nil {
				return nil, fmt.Errorf("core: decode edge dist: %w", err)
			}
			if xi >= int64(len(pts)) || yi >= int64(len(pts)) {
				return nil, fmt.Errorf("core: decode edge index out of range")
			}
			edges[i] = EdgeEntry{XI: int32(xi), YI: int32(yi), D: int32(d)}
			prevXI, prevYI = xi, yi
		}
		l.Levels[k] = LevelLabel{Points: pts, Edges: edges}
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("core: %d trailing bits after label", r.Remaining())
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return l, nil
}
