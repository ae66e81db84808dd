package core

import (
	"encoding/binary"
	"fmt"
	"io"

	"fsdl/internal/graph"
	"fsdl/internal/nets"
)

// Scheme persistence: the preprocessed state — the level graphs: graph,
// net membership and the per-level net-graph adjacency — serializes to a
// byte string, so the expensive preprocessing runs once on the server and
// the scheme reopens instantly. It is one encoding with two readers:
// LoadLevelGraphs decodes exactly what inducing a label reads (a factored
// label container carries the encoding as its level-graphs section), and
// LoadScheme recomputes the nearest-net-point maps on top (a handful of
// multi-source BFS passes — cheap relative to the net graphs).

var schemeMagic = []byte("FSDLS1")

// maxPersistLevel bounds the level indices a persisted scheme may name:
// past it λ_ℓ and r_ℓ no longer fit the int32 distances labels carry.
const maxPersistLevel = 28

// SaveScheme writes the preprocessed scheme to w.
func SaveScheme(w io.Writer, s *Scheme) error {
	if _, err := w.Write(s.store.Encode()); err != nil {
		return fmt.Errorf("core: write scheme: %w", err)
	}
	return nil
}

// Encode returns the persisted form of the level graphs — what SaveScheme
// writes and LoadLevelGraphs reads. Equal level graphs encode to equal
// bytes.
func (st *LevelGraphs) Encode() []byte {
	p := st.params
	b := append([]byte(nil), schemeMagic...)
	for _, v := range []uint64{
		uint64(p.Epsilon * 65536),
		uint64(p.C),
		uint64(p.MaxLevel),
		uint64(p.RShrink),
		uint64(st.g.NumVertices()),
		uint64(st.g.NumEdges()),
	} {
		b = binary.AppendUvarint(b, v)
	}
	// Edges, gap-coded in (u, v) lexicographic order.
	prevU := 0
	st.g.ForEachEdge(func(u, v int) {
		b = binary.AppendUvarint(b, uint64(u-prevU))
		prevU = u
		b = binary.AppendUvarint(b, uint64(v))
	})
	// Net membership.
	for _, lvl := range st.netLevel {
		b = binary.AppendUvarint(b, uint64(lvl))
	}
	// Per-level net graphs (the lowest level has none): one row per net
	// point, in vertex order.
	for li := 1; li < len(st.levels); li++ {
		sl := &st.levels[li]
		for _, v := range sl.members {
			nbrs := sl.row(v)
			b = binary.AppendUvarint(b, uint64(len(nbrs)))
			prev := int64(-1)
			for _, nb := range nbrs {
				b = binary.AppendUvarint(b, uint64(int64(nb.x)-prev-1))
				prev = int64(nb.x)
				b = binary.AppendUvarint(b, uint64(nb.d))
			}
		}
	}
	return b
}

// LoadScheme reads a scheme persisted by SaveScheme.
func LoadScheme(r io.Reader) (*Scheme, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: read scheme: %w", err)
	}
	st, err := LoadLevelGraphs(data)
	if err != nil {
		return nil, err
	}
	netLevel := make([]int, len(st.netLevel))
	for v, lvl := range st.netLevel {
		netLevel[v] = int(lvl)
	}
	h, err := nets.FromNetLevels(st.g, netLevel)
	if err != nil {
		return nil, err
	}
	return newScheme(st.g, h, st.params, st), nil
}

// uvarints reads the unsigned varints of a persisted scheme; the first
// failure sticks (and empties the input), so a run of reads is checked
// once.
type uvarints struct {
	b   []byte
	pos int
	err error
}

func (r *uvarints) rest() int { return len(r.b) - r.pos }

func (r *uvarints) next(what string) uint64 {
	if r.pos < len(r.b) && r.b[r.pos] < 0x80 { // one byte: nearly every gap and distance
		r.pos++
		return uint64(r.b[r.pos-1])
	}
	if r.err != nil {
		return 0
	}
	v, k := binary.Uvarint(r.b[r.pos:])
	if k <= 0 {
		r.err = fmt.Errorf("core: read scheme %s: truncated or overlong varint", what)
		r.pos = len(r.b)
		return 0
	}
	r.pos += k
	return v
}

// LoadLevelGraphs decodes level graphs from their Encode form: only what
// inducing a label reads, no net hierarchy beyond the membership array.
// The input is not trusted — a container section arrives here — so every
// size is bounded by what the remaining bytes could hold before anything
// is allocated from it, and every entry labels are later induced from is
// checked: edges in range, simple and unrepeated; net levels inside the
// hierarchy; rows strictly ascending, between distinct net points of the
// level, with 0 < d ≤ λ_ℓ. LevelGraphs.Label leans on exactly that to
// hand out labels without walking their edges again.
func LoadLevelGraphs(data []byte) (*LevelGraphs, error) {
	if len(data) < len(schemeMagic) || string(data[:len(schemeMagic)]) != string(schemeMagic) {
		return nil, fmt.Errorf("core: bad scheme magic %q", data[:min(len(data), len(schemeMagic))])
	}
	r := &uvarints{b: data[len(schemeMagic):]}
	epsQ, c, maxLevel, rShrink := r.next("epsilon"), r.next("c"), r.next("max level"), r.next("r-shrink")
	nU, mU := r.next("n"), r.next("m")
	if r.err != nil {
		return nil, r.err
	}
	// A vertex costs at least its net-level byte and an edge two, so
	// neither count can exceed what is left to read; a simple graph has
	// at most n(n−1)/2 edges.
	rest := uint64(r.rest())
	if nU > graph.MaxReadVertices || nU > rest || mU > rest/2 || mU > nU*(nU-1)/2 {
		return nil, fmt.Errorf("core: implausible scheme size n=%d m=%d in %d bytes", nU, mU, rest)
	}
	if epsQ >= 1<<40 || c > maxPersistLevel || maxLevel > maxPersistLevel || rShrink > 32 {
		return nil, fmt.Errorf("core: implausible scheme parameters eps=%d/65536 c=%d max level=%d r-shrink=%d", epsQ, c, maxLevel, rShrink)
	}
	n, m := int(nU), int(mU)
	params := Params{
		Epsilon:     float64(epsQ) / 65536,
		C:           int(c),
		MaxLevel:    int(maxLevel),
		RShrink:     int(rShrink),
		NumVertices: n,
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}

	b := graph.NewBuilder(n)
	prevU := uint64(0)
	for i := 0; i < m; i++ {
		du, v := r.next("edge u"), r.next("edge v")
		if r.err != nil {
			return nil, r.err
		}
		if du >= nU || prevU+du >= nU || v >= nU {
			return nil, fmt.Errorf("core: scheme edge (%d+%d,%d) out of range", prevU, du, v)
		}
		prevU += du
		b.AddEdge(int(prevU), int(v))
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("core: rebuild scheme graph: %w", err)
	}

	netLevel := make([]int32, n)
	numNetLevels := uint64(nets.NumLevels(n))
	for v := range netLevel {
		lvl := r.next("net level")
		if r.err != nil {
			return nil, r.err
		}
		if lvl >= numNetLevels {
			return nil, fmt.Errorf("core: net level %d of vertex %d outside [0,%d)", lvl, v, numNetLevels)
		}
		netLevel[v] = int32(lvl)
	}
	// Several scheme levels may use one hierarchy level (clamping): each
	// distinct one is one scan of the membership array.
	byLevel := make(map[int][]int32)
	st := newLevelGraphs(g, params, netLevel, func(i int) []int32 {
		members, ok := byLevel[i]
		if !ok {
			for v, lvl := range netLevel {
				if int(lvl) >= i {
					members = append(members, int32(v))
				}
			}
			byLevel[i] = members
		}
		return members
	})
	// One slab for the rows of every level: an entry costs at least two
	// bytes, so what is left to read bounds them all.
	slab := make([]pointDist, 0, r.rest()/2)
	for li := 1; li < len(st.levels); li++ {
		sl := &st.levels[li]
		lambda := uint64(params.Lambda(sl.level))
		// Rows arrive in vertex order, so the CSR arrays assemble in one
		// pass.
		off := make([]int64, n+1)
		entries := slab[len(slab):]
		mi := 0
		for v := 0; v < n; v++ {
			if mi < len(sl.members) && sl.members[mi] == int32(v) {
				mi++
				count := r.next("adjacency count")
				if count > uint64(len(sl.members)) {
					return nil, fmt.Errorf("core: level %d row of %d has %d entries for %d net points", sl.level, v, count, len(sl.members))
				}
				next := uint64(0) // smallest id the next entry may carry
				for i := uint64(0); i < count; i++ {
					gap, d := r.next("adjacency id"), r.next("adjacency dist")
					if r.err != nil {
						return nil, r.err
					}
					if gap >= nU || next+gap >= nU {
						return nil, fmt.Errorf("core: level %d row of %d: adjacency id out of range", sl.level, v)
					}
					x := int32(next + gap)
					next += gap + 1
					if x == int32(v) || netLevel[x] < sl.netLvl {
						return nil, fmt.Errorf("core: level %d row of %d names %d, not another net point of the level", sl.level, v, x)
					}
					if d == 0 || d > lambda {
						return nil, fmt.Errorf("core: level %d row of %d: distance %d outside (0,%d]", sl.level, v, d, lambda)
					}
					entries = append(entries, pointDist{x: x, d: int32(d)})
				}
				if r.err != nil {
					return nil, r.err
				}
			}
			off[v+1] = int64(len(entries))
		}
		sl.setRows(off, entries[:len(entries):len(entries)])
		slab = slab[:len(slab)+len(entries)]
	}
	if r.rest() != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes after scheme", r.rest())
	}
	return st, nil
}
