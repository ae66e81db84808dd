package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"fsdl/internal/graph"
	"fsdl/internal/nets"
)

// Scheme persistence: the preprocessed state (graph, net hierarchy
// membership, and the per-level net-graph adjacency) serializes to a
// stream, so the expensive preprocessing runs once on the server and the
// scheme reopens instantly. The nearest-net-point maps are recomputed on
// load (a handful of multi-source BFS passes — cheap relative to the net
// graphs).

var schemeMagic = []byte("FSDLS1")

// SaveScheme writes the preprocessed scheme to w.
func SaveScheme(w io.Writer, s *Scheme) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(schemeMagic); err != nil {
		return fmt.Errorf("core: write scheme magic: %w", err)
	}
	var scratch [binary.MaxVarintLen64]byte
	writeU := func(v uint64) error {
		k := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:k])
		return err
	}
	p := s.params
	n := s.g.NumVertices()
	header := []uint64{
		uint64(p.Epsilon * 65536),
		uint64(p.C),
		uint64(p.MaxLevel),
		uint64(p.RShrink),
		uint64(n),
		uint64(s.g.NumEdges()),
	}
	for _, v := range header {
		if err := writeU(v); err != nil {
			return fmt.Errorf("core: write scheme header: %w", err)
		}
	}
	// Edges, gap-coded in (u, v) lexicographic order.
	prevU := 0
	var writeErr error
	s.g.ForEachEdge(func(u, v int) {
		if writeErr != nil {
			return
		}
		if err := writeU(uint64(u - prevU)); err != nil {
			writeErr = err
			return
		}
		prevU = u
		writeErr = writeU(uint64(v))
	})
	if writeErr != nil {
		return fmt.Errorf("core: write scheme edges: %w", writeErr)
	}
	// Net membership.
	for v := 0; v < n; v++ {
		if err := writeU(uint64(s.h.NetLevelOf(v))); err != nil {
			return fmt.Errorf("core: write net levels: %w", err)
		}
	}
	// Per-level net graphs.
	netLevel := s.store.netLevel
	for li := range s.store.levels {
		sl := &s.store.levels[li]
		if sl.off == nil {
			continue // lowest level has no net graph
		}
		for v := 0; v < n; v++ {
			if netLevel[v] < sl.netLvl {
				continue
			}
			nbrs := sl.row(int32(v))
			if err := writeU(uint64(len(nbrs))); err != nil {
				return fmt.Errorf("core: write adjacency count: %w", err)
			}
			prev := int64(-1)
			for _, nb := range nbrs {
				if err := writeU(uint64(int64(nb.x) - prev - 1)); err != nil {
					return fmt.Errorf("core: write adjacency id: %w", err)
				}
				prev = int64(nb.x)
				if err := writeU(uint64(nb.d)); err != nil {
					return fmt.Errorf("core: write adjacency dist: %w", err)
				}
			}
		}
	}
	return bw.Flush()
}

// LoadScheme reads a scheme persisted by SaveScheme.
func LoadScheme(r io.Reader) (*Scheme, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(schemeMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("core: read scheme magic: %w", err)
	}
	if string(head) != string(schemeMagic) {
		return nil, fmt.Errorf("core: bad scheme magic %q", head)
	}
	readU := func(what string) (uint64, error) {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("core: read scheme %s: %w", what, err)
		}
		return v, nil
	}
	epsQ, err := readU("epsilon")
	if err != nil {
		return nil, err
	}
	c, err := readU("c")
	if err != nil {
		return nil, err
	}
	maxLevel, err := readU("max level")
	if err != nil {
		return nil, err
	}
	rShrink, err := readU("r-shrink")
	if err != nil {
		return nil, err
	}
	nU, err := readU("n")
	if err != nil {
		return nil, err
	}
	mU, err := readU("m")
	if err != nil {
		return nil, err
	}
	if nU > graph.MaxReadVertices || mU > 64*nU {
		return nil, fmt.Errorf("core: implausible scheme size n=%d m=%d", nU, mU)
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
	prevU := 0
	for i := 0; i < m; i++ {
		du, err := readU("edge u")
		if err != nil {
			return nil, err
		}
		vv, err := readU("edge v")
		if err != nil {
			return nil, err
		}
		u := prevU + int(du)
		prevU = u
		if u >= n || int(vv) >= n {
			return nil, fmt.Errorf("core: scheme edge (%d,%d) out of range", u, vv)
		}
		b.AddEdge(u, int(vv))
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("core: rebuild scheme graph: %w", err)
	}

	netLevel := make([]int, n)
	for v := range netLevel {
		lvl, err := readU("net level")
		if err != nil {
			return nil, err
		}
		netLevel[v] = int(lvl)
	}
	h, err := nets.FromNetLevels(g, netLevel)
	if err != nil {
		return nil, err
	}

	st := &levelStore{params: params, g: g, h: h, netLevel: h.NetLevels()}
	for level := params.LowestLevel(); level <= params.MaxLevel; level++ {
		sl := newStoreLevel(h, params, level)
		if level > params.LowestLevel() {
			// The stream lists net points in increasing vertex order, so
			// the CSR arrays assemble in one pass.
			off := make([]int64, n+1)
			var entries []pointDist
			for v := 0; v < n; v++ {
				if st.netLevel[v] >= sl.netLvl {
					count, err := readU("adjacency count")
					if err != nil {
						return nil, err
					}
					if count > uint64(n) {
						return nil, fmt.Errorf("core: adjacency count %d exceeds n", count)
					}
					prev := int64(-1)
					for i := uint64(0); i < count; i++ {
						gap, err := readU("adjacency id")
						if err != nil {
							return nil, err
						}
						prev += int64(gap) + 1
						d, err := readU("adjacency dist")
						if err != nil {
							return nil, err
						}
						if prev >= int64(n) {
							return nil, fmt.Errorf("core: adjacency id %d out of range", prev)
						}
						entries = append(entries, pointDist{x: int32(prev), d: int32(d)})
					}
				}
				off[v+1] = int64(len(entries))
			}
			sl.off, sl.entries = off, entries
		}
		st.levels = append(st.levels, sl)
	}
	return newScheme(g, h, params, st), nil
}
