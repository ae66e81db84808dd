package main

import (
	"fmt"
	"io"

	"fsdl/internal/core"
	"fsdl/internal/labelstore"
)

// levelStats prints, per scheme level, how much of what the labels store
// is one list written many times: the points and edges stored (summed
// over the labels), the distinct edge lists among them, the size of their
// union — the level's net graph, as far as the labels cover it — and the
// ratio of edges stored to edges in that union. Lists are told apart by
// the table the serving path shares them with (core.LevelTable, here as
// a census that admits at first sight), so "distinct" means exactly what
// a store or frontend would keep one copy of.
func levelStats(out io.Writer, ids []int, label func(v int) (*core.Label, error)) error {
	type row struct {
		points, edges int64
		lists         int
		union         map[uint64]struct{}
	}
	var rows []row
	census := core.NewLevelCensus()
	lowest := 0
	for _, v := range ids {
		l, err := label(v)
		if err != nil {
			return err
		}
		if rows == nil {
			rows, lowest = make([]row, len(l.Levels)), l.Level(0)
		}
		if len(l.Levels) != len(rows) {
			return fmt.Errorf("label of %d has %d levels, the first had %d", v, len(l.Levels), len(rows))
		}
		// Interning rewrites Edges to the census's copy: give it a
		// shallow copy of the label, not the store's or scheme's own, with
		// every list a factored store leaves to its level graphs induced.
		c := *l
		c.Levels = append([]core.LevelLabel(nil), l.Levels...)
		for k := range c.Levels {
			c.Levels[k].Edges = l.LevelEdges(k, nil)
			rows[k].points += int64(len(c.Levels[k].Points))
			rows[k].edges += int64(len(c.Levels[k].Edges))
		}
		census.Intern(&c)
	}
	census.Lists(func(k int, xs []int32, edges []core.EdgeEntry) {
		r := &rows[k]
		r.lists++
		if r.union == nil {
			r.union = make(map[uint64]struct{})
		}
		for _, e := range edges {
			r.union[uint64(uint32(xs[e.XI]))<<32|uint64(uint32(xs[e.YI]))] = struct{}{}
		}
	})
	fmt.Fprintf(out, "level lists over %d labels:\n", len(ids))
	fmt.Fprintf(out, "  %5s %12s %12s %8s %10s %16s\n", "level", "points", "edges", "lists", "union", "stored/distinct")
	var total row
	distinct := 0
	for k, r := range rows {
		fmt.Fprintf(out, "  %5d %12d %12d %8d %10d %16s\n", lowest+k, r.points, r.edges, r.lists, len(r.union), ratio(r.edges, len(r.union)))
		total.points += r.points
		total.edges += r.edges
		total.lists += r.lists
		distinct += len(r.union)
	}
	fmt.Fprintf(out, "  %5s %12d %12d %8d %10d %16s\n", "all", total.points, total.edges, total.lists, distinct, ratio(total.edges, distinct))
	return nil
}

func ratio(stored int64, distinct int) string {
	if distinct == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", float64(stored)/float64(distinct))
}

// storeLevelStats is levelStats over every label of a container and, for
// a factored one, how its records write each level's ball: the points
// stored against those left to the level above, the bits that went on
// ids and on distances, and how many records chose each mode — saturated
// (no ids), nested (only the points the level above lacks), and the
// distance predictor (ΔD, or ΔΔD with zero runs).
func storeLevelStats(path string, out io.Writer) error {
	st, err := labelstore.Open(path)
	if err != nil {
		return err
	}
	defer st.Close()
	if err := levelStats(out, st.Vertices(), st.Label); err != nil {
		return err
	}
	balls, err := st.BallStats()
	if err != nil || balls == nil {
		return err
	}
	fmt.Fprintln(out, "ball records (each distance once: nested levels keep only the points the level above lacks):")
	fmt.Fprintf(out, "  %5s %10s %10s %10s %10s %9s %7s %7s %7s\n", "level", "stored", "derived", "id bits", "dist bits", "saturated", "nested", "pred d", "pred dd")
	var all labelstore.BallLevelStats
	for _, b := range balls {
		fmt.Fprintf(out, "  %5d %10d %10d %10d %10d %9d %7d %7d %7d\n", b.Level, b.Stored, b.Derived, b.IDBits, b.DistBits, b.Saturated, b.Nested, b.Pred[0], b.Pred[1])
		all.Stored += b.Stored
		all.Derived += b.Derived
		all.IDBits += b.IDBits
		all.DistBits += b.DistBits
	}
	fmt.Fprintf(out, "  %5s %10d %10d %10d %10d\n", "all", all.Stored, all.Derived, all.IDBits, all.DistBits)
	return nil
}
