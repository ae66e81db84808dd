package liveupdate

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"fsdl/internal/core"
	"fsdl/internal/gen"
	"fsdl/internal/graph"
	"fsdl/internal/labelstore"
)

// bfsDist computes the true distance in g avoiding the fault set —
// the ground truth the streamed answers must upper-bound.
func bfsDist(g *graph.Graph, src, dst int, faults *graph.FaultSet) (int64, bool) {
	if faults.HasVertex(src) || faults.HasVertex(dst) {
		return 0, false
	}
	n := g.NumVertices()
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == dst {
			return dist[u], true
		}
		for _, w := range g.Neighbors(u) {
			v := int(w)
			if dist[v] >= 0 || faults.HasVertex(v) || faults.HasEdge(u, v) {
				continue
			}
			dist[v] = dist[u] + 1
			queue = append(queue, v)
		}
	}
	return 0, false
}

// TestStreamedEquivalence is the offline-vs-streamed equivalence
// gate: a store built offline on G′ must be bit-identical to a store
// built on G, streamed to G′, and compacted — at several worker
// counts — and the pre-compaction answers (soft faults + patches over
// the G labels) must stay upper bounds on d_{G′\F}.
func TestStreamedEquivalence(t *testing.T) {
	const eps = 2.0
	base := gen.Grid2D(6, 6)
	muts := []Mutation{
		{Op: MutDelete, U: 0, V: 1},
		{Op: MutDelete, U: 14, V: 20},
		{Op: MutInsert, U: 0, V: 35},
		{Op: MutInsert, U: 5, V: 30},
	}

	p, err := Open(Config{Base: base})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Apply(muts); err != nil {
		t.Fatal(err)
	}

	// Pre-compaction: answers from the G labels with the delta applied
	// as soft faults + patches must upper-bound d_{G′\F}.
	snapForTruth, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	gPrime := snapForTruth.Graph
	schemeG, err := core.BuildScheme(base, eps)
	if err != nil {
		t.Fatal(err)
	}
	dec := core.NewDecoder()
	defer dec.Release()
	var patches []core.PatchEdge
	for _, e := range p.Patches() {
		patches = append(patches, core.PatchEdge{U: schemeG.Label(int(e[0])), V: schemeG.Label(int(e[1]))})
	}
	pairs := [][2]int{{0, 35}, {2, 33}, {1, 6}, {30, 5}, {7, 29}}
	reqFaults := graph.FaultVertices(21)
	for _, pr := range pairs {
		q, err := schemeG.NewQuery(pr[0], pr[1], reqFaults)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range p.FaultEdges() {
			q.EdgeFaults = append(q.EdgeFaults, [2]*core.Label{schemeG.Label(int(e[0])), schemeG.Label(int(e[1]))})
		}
		res := dec.Decode(q, core.Opts{Patches: patches})
		truth, connected := bfsDist(gPrime, pr[0], pr[1], reqFaults)
		if res.OK {
			if !connected {
				t.Fatalf("pair %v: estimate %d but truly disconnected", pr, res.Dist)
			}
			if res.Dist < truth {
				t.Fatalf("pair %v: pre-compaction estimate %d below true distance %d", pr, res.Dist, truth)
			}
		}
	}
	// The inserted shortcut must actually be usable pre-compaction:
	// (0,35) are opposite grid corners (base distance 10), the patch
	// makes them neighbors.
	q, err := schemeG.NewQuery(0, 35, graph.NewFaultSet())
	if err != nil {
		t.Fatal(err)
	}
	if res := dec.Decode(q, core.Opts{Patches: patches}); !res.OK || res.Dist != 1 {
		t.Fatalf("patched corner distance = %+v, want 1", res)
	}

	for _, workers := range []int{1, 2, 4} {
		// Offline: build directly on G′.
		offline, err := core.BuildSchemeWorkers(gPrime, eps, workers)
		if err != nil {
			t.Fatal(err)
		}
		offlinePath := filepath.Join(t.TempDir(), "offline.fsdl")
		f, err := os.Create(offlinePath)
		if err != nil {
			t.Fatal(err)
		}
		err = labelstore.Write(f, labelstore.FromScheme(offline), nil)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		offlineBytes, err := os.ReadFile(offlinePath)
		if err != nil {
			t.Fatal(err)
		}

		// Streamed: pipeline compaction at the same worker count.
		root := t.TempDir()
		res, err := Compact(p, root, CompactOptions{Epsilon: eps, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		streamedBytes, err := os.ReadFile(filepath.Join(res.Dir, LabelsFileName))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(offlineBytes, streamedBytes) {
			t.Fatalf("workers=%d: streamed store differs from offline store (%d vs %d bytes)",
				workers, len(streamedBytes), len(offlineBytes))
		}
	}
}

func TestCompactWritesVerifiableGeneration(t *testing.T) {
	base := gen.Grid2D(4, 4)
	p, err := Open(Config{Base: base})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Apply([]Mutation{{Op: MutInsert, U: 0, V: 15}}); err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	res, err := Compact(p, root, CompactOptions{
		Epsilon: 2,
		Workers: 2,
		Partitions: map[string][]int{
			"alpha": {0, 1, 2, 3, 4, 5, 6, 7},
			"beta":  {8, 9, 10, 11, 12, 13, 14, 15},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Manifest.Generation != 2 || res.Manifest.N != 16 || res.Manifest.Seq != 1 {
		t.Fatalf("manifest = %+v", res.Manifest)
	}
	// The directory must verify end to end (manifest CRC + file CRCs).
	m, dir, ok, err := labelstore.LatestGeneration(root)
	if err != nil || !ok || m.Generation != 2 || dir != res.Dir {
		t.Fatalf("LatestGeneration: ok=%v gen=%v err=%v", ok, m, err)
	}
	if f := m.File("alpha.fsdl"); f == nil || f.Records != 8 || f.First != 0 || f.Last != 7 {
		t.Fatalf("alpha entry = %+v", f)
	}
	// Partition stores open as factored files and union back to the full
	// vertex set.
	for name, want := range map[string]int{"alpha.fsdl": 8, "beta.fsdl": 8, LabelsFileName: 16} {
		st, err := labelstore.Open(filepath.Join(res.Dir, name))
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		got, enc := st.NumLabels(), st.Encoding()
		st.Close()
		if got != want || !enc.Factored {
			t.Fatalf("%s holds %d labels as %+v, want %d in a factored file", name, got, enc, want)
		}
	}
	// The snapshot graph reloads as the next base.
	g2, err := LoadGenerationBase(res.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.HasEdge(0, 15) {
		t.Fatal("generation graph lost the inserted edge")
	}
	// Committing makes the pipeline exact again.
	if err := p.Commit(res.Snapshot); err != nil {
		t.Fatal(err)
	}
	if p.Pending() != 0 || p.Generation() != 2 {
		t.Fatalf("after commit: pending=%d gen=%d", p.Pending(), p.Generation())
	}
	// A second compaction with no further mutations refuses to reuse
	// the directory name... and lands in gen-3.
	if _, err := p.Apply([]Mutation{{Op: MutDelete, U: 0, V: 15}}); err != nil {
		t.Fatal(err)
	}
	res2, err := Compact(p, root, CompactOptions{Epsilon: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Manifest.Generation != 3 {
		t.Fatalf("second generation = %d", res2.Manifest.Generation)
	}
}
