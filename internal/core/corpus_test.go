package core

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"fsdl/internal/gen"
	"fsdl/internal/graph"
)

// This file is the δ-identity gate of the canonical sketch (ISSUE 27):
// testdata/decode_corpus_pr26.txt was written by the decoder of PR 26 —
// the last one whose sketch was the sorted, merged, first-inserted-wins
// edge list — and every decoder since has to reproduce it line for line.
// A line holds what a caller can observe and an order of reading cannot
// change: δ, OK, Degraded, BudgetExhausted, the walk's weight sum, the
// sketch's dimensions and what the budget was charged. Which of several
// equally long walks is reported, and the Level an edge is credited to,
// are not in it. The file compiles against either decoder; re-cut it
// from a checkout of the commit named above with
//
//	go test ./internal/core -run TestDecodeCorpusPR26 -args -write-corpus

var writeCorpus = flag.Bool("write-corpus", false, "TestDecodeCorpusPR26 writes testdata/decode_corpus_pr26.txt instead of comparing with it")

const corpusFile = "testdata/decode_corpus_pr26.txt"

// corpusGraph is one graph of the differential corpus with its scheme.
type corpusGraph struct {
	name string
	g    *graph.Graph
	s    *Scheme
}

// corpusGraphs builds the corpus's five families: a grid, a tree, a ring
// lattice, a random connected graph and a random geometric one.
func corpusGraphs(t testing.TB) []corpusGraph {
	t.Helper()
	rng := rand.New(rand.NewSource(26))
	// newFrameBatch draws fault edges at random vertices: none may be isolated.
	var rgg *graph.Graph
	for isolated := true; isolated; {
		var err error
		if rgg, _, err = gen.RandomGeometric(200, 0.12, rng); err != nil {
			t.Fatal(err)
		}
		isolated = false
		for v := 0; v < rgg.NumVertices(); v++ {
			isolated = isolated || len(rgg.Neighbors(v)) == 0
		}
	}
	out := []corpusGraph{
		{name: "grid12x10", g: gridGraph(t, 12, 10)},
		{name: "tree150", g: randomConnected(t, 150, 0, rng)},
		{name: "ring256", g: ringLattice(t, 256)},
		{name: "rand140", g: randomConnected(t, 140, 70, rng)},
		{name: "rgg200", g: rgg},
	}
	for i := range out {
		s, err := BuildScheme(out[i].g, 2)
		if err != nil {
			t.Fatal(err)
		}
		s.SetCacheLimit(4096) // one *Label per vertex, so batches frame
		out[i].s = s
	}
	return out
}

// corpusCase is one decode of the corpus: a pair of a batch under a
// budget. Consecutive cases of one batch share their fault labels, so a
// held Decoder frames them.
type corpusCase struct {
	name    string
	q       *Query
	patches []PatchEdge
}

// decodeCorpus draws the corpus on one graph: every fault kind × |F| up
// to 70 × patches on and off, eight pairs each — two of them with a frame
// owner for an endpoint — under no budget, an ample, the exact and a
// short one, one ending among the fault owners and one inside the pair;
// then three batches' first pair under a budget ending at, and in the
// middle of, every owner level's edge list and owner ball; then fault
// labels that fail the robust entry's check and are demoted.
func decodeCorpus(t *testing.T, cg corpusGraph, rng *rand.Rand) []corpusCase {
	t.Helper()
	var cases []corpusCase
	add := func(b *frameBatch, i, budget int) {
		cases = append(cases, corpusCase{
			name: fmt.Sprintf("%s/%s/%d/b%d", cg.name, b.name, i, budget),
			q:    b.query(cg.s, i, budget), patches: b.patches,
		})
	}
	var everywhere []*frameBatch
	for ki, kind := range []string{"vertex", "edge", "mixed", "degraded", "ablated"} {
		for ni, nf := range []int{0, 1, 2, 4, 16, 64, 70} {
			if nf >= 64 && (kind == "degraded" || kind == "ablated") {
				continue
			}
			b := newFrameBatch(t, rng, cg.g, cg.s, kind, nf, (ki+ni)%2 == 0)
			for i := range b.pairs {
				total, pair := frameWork(b.query(cg.s, i, 0), b.patches)
				add(b, i, max(0, []int{0, total + 7, total, total - 1, pair + (total-pair)/2, pair / 2, 0, 0}[i]))
			}
			if nf == 2 && kind != "ablated" && kind != "mixed" {
				everywhere = append(everywhere, b)
			}
		}
	}
	for _, b := range everywhere {
		var budgets []int
		end := 0
		for _, seg := range scanLayout(b.query(cg.s, 0, 0), b.patches) {
			budgets = append(budgets, end+seg.n/2, end+seg.n)
			end += seg.n
		}
		slices.Sort(budgets)
		for _, budget := range slices.Compact(budgets) {
			if budget > 0 {
				add(b, 0, budget)
			}
		}
	}
	// Two fault labels cut with other parameters: the robust entry demotes
	// them by id, the strict one refuses the query.
	b := newFrameBatch(t, rng, cg.g, cg.s, "mixed", 4, true)
	bad := *b.side.VertexFaults[0]
	bad.C += 7
	b.side.VertexFaults[0] = &bad
	bad2 := *b.side.EdgeFaults[1][1]
	bad2.C += 7
	b.side.EdgeFaults[1][1] = &bad2
	b.name = "demoted/F=4/patched=true"
	for i := range b.pairs[:4] {
		add(b, i, 0)
	}
	return cases
}

// corpusHeader names the columns of a corpusLine.
const corpusHeader = "# graph/faults/|F|/patched/pair/budget\tOK δ Degraded BudgetExhausted MissingFaultLabels\tδ exhausted Σ(walk weights) |V(H)| |E(H)| admitted rejected — the traced strict decode, or \"refused\""

// corpusLine decodes one case on dec — through the robust entry for the
// flags and the walk, then traced for the sketch's dimensions and the
// walk's weights — and renders what must not change.
func corpusLine(t *testing.T, dec *Decoder, c corpusCase) string {
	t.Helper()
	var path []int32
	res := dec.Decode(c.q, Opts{Patches: c.patches, Path: &path})
	line := fmt.Sprintf("%s\t%v %d %v %v %v", c.name, res.OK, res.Dist, res.Degraded, res.BudgetExhausted, res.MissingFaultLabels)
	if res.OK != (len(path) > 0) {
		t.Errorf("%s: OK=%v with a walk of %d vertices", c.name, res.OK, len(path))
	}
	var tr Trace
	dist, exh, err := dec.scratch().decode(c.q, Opts{Patches: c.patches, Trace: &tr})
	if err != nil {
		return line + "\trefused"
	}
	if res.OK != (dist >= 0) || res.OK && res.Dist != dist || res.BudgetExhausted != exh {
		t.Errorf("%s: robust entry %+v, traced decode (δ=%d, exhausted=%v)", c.name, res, dist, exh)
	}
	admitted, rejected := 0, 0
	for k := range tr.AdmittedPerLevel {
		admitted += tr.AdmittedPerLevel[k]
		rejected += tr.RejectedPerLevel[k]
	}
	var walk int64
	for _, w := range tr.PathWeights {
		walk += w
	}
	if dist >= 0 && walk != dist {
		t.Errorf("%s: the walk's weights sum to %d, δ=%d", c.name, walk, dist)
	}
	return line + fmt.Sprintf("\t%d %v %d %d %d %d %d", dist, exh, walk, tr.NumHVertices, tr.NumHEdges, admitted, rejected)
}

// TestDecodeCorpusPR26 holds the decoder to the answers PR 26's gave on
// the whole corpus, batch by batch on one held Decoder — and once more
// over the labels a factored container hands out (ballsOnlyLabels), which
// must answer every line alike.
func TestDecodeCorpusPR26(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	lines := []string{corpusHeader}
	for _, cg := range corpusGraphs(t) {
		cases := decodeCorpus(t, cg, rng)
		dec := NewDecoder()
		for _, c := range cases {
			lines = append(lines, corpusLine(t, dec, c))
		}
		balls := ballsOnlyLabels(t, cg.s)
		first := len(lines) - len(cases)
		for i, c := range cases {
			c.q, c.patches = mapQuery(c.q, balls), mapPatches(c.patches, balls)
			if got := corpusLine(t, dec, c); got != lines[first+i] {
				t.Errorf("over balls-only labels:\n got %s\nwant %s", got, lines[first+i])
			}
		}
		dec.Release()
	}
	got := strings.Join(lines, "\n") + "\n"
	if *writeCorpus {
		if err := os.WriteFile(corpusFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d decodes to %s", len(lines), corpusFile)
		return
	}
	data, err := os.ReadFile(corpusFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("%d decodes, %s holds %d", len(lines), corpusFile, len(want))
	}
	diffs := 0
	for i := range lines {
		if lines[i] != want[i] {
			if diffs++; diffs <= 10 {
				t.Errorf("decode %d:\n got %s\nwant %s", i, lines[i], want[i])
			}
		}
	}
	if diffs > 10 {
		t.Errorf("… and %d more", diffs-10)
	}
}
