package liveupdate

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"fsdl/internal/core"
	"fsdl/internal/graph"
	"fsdl/internal/labelstore"
)

// Generation directory layout (written by Compact under the root):
//
//	gen-<id>/
//	  MANIFEST       generation id, vertex space, WAL seq, file checksums
//	  labels.fsdl    the full label store for the snapshot graph
//	  graph.txt      the snapshot graph (the next pipeline's base)
//	  <shard>.fsdl   one partition file per shard, when partitions given
//
// Everything is written into a temporary directory first and renamed
// into place, and the manifest is written last — a crash mid-build
// leaves either no gen-<id> directory or one whose missing/torn
// manifest disqualifies it, never a half generation that loads.

// LabelsFileName is the full-store file inside a generation directory.
const LabelsFileName = labelstore.GenerationLabelsFile

// GraphFileName is the snapshot-graph file inside a generation
// directory.
const GraphFileName = labelstore.GenerationGraphFile

// CompactOptions configures a compaction build.
type CompactOptions struct {
	// Epsilon is the scheme's approximation parameter.
	Epsilon float64
	// Workers bounds build parallelism — the scheme build and the label
	// extraction (≤ 0 means GOMAXPROCS; beside a serving pipeline, see
	// Compact, one less).
	Workers int
	// Partitions optionally maps shard names to the vertex ids each
	// shard serves; one <name>.fsdl partition file is written per
	// entry, so cluster shards can load the new generation directly.
	Partitions map[string][]int
	// Prev, when set, selects the incremental build: the scheme is
	// rebuilt delta-scoped from the previous generation's (only BFS
	// tasks a mutation can reach are re-run) and clean vertices' label
	// bytes are spliced forward from the previous store instead of
	// re-extracted. The output is byte-identical to a full build. Prev
	// must actually be the generation the snapshot mutates
	// (Prev.Generation+1 == snap.Generation, same ε, same vertex
	// space) — a mismatch is an error, not a silent full build, so
	// callers choose the mode explicitly.
	Prev *PrevGeneration
	// Format and Compress select nothing: labels.fsdl and every
	// partition file are written as factored FSDL3, the container a
	// scheme writes (labelstore.Write). Readers still take an FSDL2
	// generation an older writer left, so a cluster swaps from one to
	// the next. The fields stay for the benchmark harness, which assigns
	// them (ROADMAP item 1, "Release the pins").
	Format   int
	Compress bool
}

// PrevGeneration hands an incremental compaction the previous
// generation's build state.
type PrevGeneration struct {
	// Generation is the previous generation's id.
	Generation uint64
	// Dir is its generation directory. Nothing reads it: the field stays
	// for the benchmark harness, which assigns it (ROADMAP item 1,
	// "Release the pins").
	Dir string
	// Scheme is the scheme built for it (from its own compaction, or
	// reconstructed offline from its graph).
	Scheme *core.Scheme
	// Store is its full label store — the splice source for clean
	// label bytes.
	Store *labelstore.Store
}

// CompactionResult is a completed generation build, ready to swap.
type CompactionResult struct {
	// Snapshot is the pipeline view the build ran on; pass it to
	// Pipeline.Commit after the swap succeeds.
	Snapshot *Snapshot
	// Dir is the generation directory (root/gen-<id>).
	Dir string
	// Manifest describes what was written.
	Manifest *labelstore.Manifest
	// Store is the full label store, loaded back from the written
	// bytes so the serving path swaps to exactly what is on disk.
	Store *labelstore.Store
	// Scheme is the scheme the generation was built with — retain it
	// (with Store) as the PrevGeneration of the next incremental
	// compaction.
	Scheme *core.Scheme
	// Incremental reports whether the delta-scoped path built this
	// generation.
	Incremental bool
	// DirtyLabels counts the labels that were re-extracted (equals N
	// on a full build).
	DirtyLabels int
}

// Compact builds the next label generation from the pipeline's current
// state into root/gen-<id> using the parallel offline pipeline.
// Mutations keep streaming into p while the build runs; the caller
// swaps the result in and then calls p.Commit(result.Snapshot).
//
// p is serving while the build runs, so unless the caller bounded the
// build itself it leaves one core to the readers: label extraction is
// the whole of a compaction's CPU time and parallelises perfectly, and
// holding every core with it costs the queries beside it more than it
// saves the compaction (measured on two cores against a build that
// paused to encode edges: query p95 +16 % and throughput −10 % with
// both cores held, p95 −49 % and throughput +36 % with one left free;
// docs/PERFORMANCE.md, "Readers under compaction"). An offline
// CompactSnapshot has no readers and keeps every core.
//
// Callers serialize compactions via p.BeginCompaction/EndCompaction.
func Compact(p *Pipeline, root string, opts CompactOptions) (*CompactionResult, error) {
	snap, err := p.Snapshot()
	if err != nil {
		return nil, err
	}
	if opts.Workers <= 0 {
		opts.Workers = max(runtime.GOMAXPROCS(0)-1, 1)
	}
	return CompactSnapshot(snap, root, opts)
}

// CompactSnapshot is Compact for an already-taken snapshot — the
// offline `fsdl compact` path, where the "pipeline" is a graph plus a
// replayed WAL rather than a live server. With opts.Prev set the build
// is delta-scoped (see CompactOptions.Prev); the generation written is
// byte-identical either way.
func CompactSnapshot(snap *Snapshot, root string, opts CompactOptions) (*CompactionResult, error) {
	for name := range opts.Partitions {
		if file := name + ".fsdl"; file == LabelsFileName || file == GraphFileName || file == labelstore.ManifestName {
			return nil, fmt.Errorf("liveupdate: shard name %q collides with a generation file", name)
		}
	}
	var (
		scheme *core.Scheme
		dirty  []int32 // meaningful only on the incremental path
	)
	incremental := opts.Prev != nil
	if incremental {
		prev := opts.Prev
		if prev.Scheme == nil || prev.Store == nil {
			return nil, fmt.Errorf("liveupdate: incremental compaction needs the previous generation's scheme and store")
		}
		if prev.Generation+1 != snap.Generation {
			return nil, fmt.Errorf("liveupdate: incremental compaction base is generation %d, snapshot builds %d", prev.Generation, snap.Generation)
		}
		if eps := prev.Scheme.Params().Epsilon; eps != opts.Epsilon {
			return nil, fmt.Errorf("liveupdate: incremental compaction base has epsilon %g, want %g", eps, opts.Epsilon)
		}
		inc, err := core.BuildSchemeIncremental(prev.Scheme, snap.Graph, snap.Mutated, opts.Workers)
		if err != nil {
			return nil, fmt.Errorf("liveupdate: incremental build generation %d scheme: %w", snap.Generation, err)
		}
		scheme, dirty = inc.Scheme, inc.Dirty
	} else {
		s, err := core.BuildSchemeWorkers(snap.Graph, opts.Epsilon, opts.Workers)
		if err != nil {
			return nil, fmt.Errorf("liveupdate: build generation %d scheme: %w", snap.Generation, err)
		}
		scheme = s
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	final := filepath.Join(root, labelstore.GenerationDirName(snap.Generation))
	if _, err := os.Stat(final); err == nil {
		return nil, fmt.Errorf("liveupdate: generation directory %s already exists", final)
	}
	tmp, err := os.MkdirTemp(root, "gen-build-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	m := &labelstore.Manifest{
		Generation: snap.Generation,
		N:          snap.Graph.NumVertices(),
		Seq:        snap.Seq,
	}
	// addFile writes one generation file and lists it in the manifest
	// as holding one record for each of ids.
	addFile := func(name string, ids []int, write func(f *os.File) error) error {
		path := filepath.Join(tmp, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return fmt.Errorf("liveupdate: write %s: %w", name, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		crc, err := labelstore.FileCRC(path)
		if err != nil {
			return err
		}
		m.Files = append(m.Files, labelstore.NewManifestFile(name, crc, ids))
		return nil
	}

	labels := labelstore.FromScheme(scheme)
	if incremental {
		labels = labelstore.Spliced(scheme, opts.Prev.Store, dirty)
	}
	labels.Workers = opts.Workers
	all := make([]int, m.N)
	for v := range all {
		all[v] = v
	}
	if err := addFile(LabelsFileName, all, func(f *os.File) error {
		return labelstore.Write(f, labels, nil)
	}); err != nil {
		return nil, err
	}
	// Load the just-written store back: partition files are carved from
	// these exact bytes (no re-extraction), and the serving path swaps
	// to exactly what is on disk. The generation comes back mmap-backed,
	// so the store handed to the swap (and kept as the next incremental
	// build's splice base) reads from the page cache.
	store, err := labelstore.Open(filepath.Join(tmp, LabelsFileName))
	if err != nil {
		return nil, fmt.Errorf("liveupdate: reload generation %d store: %w", snap.Generation, err)
	}
	if err := addFile(GraphFileName, nil, func(f *os.File) error {
		_, err := snap.Graph.WriteTo(f)
		return err
	}); err != nil {
		return nil, err
	}

	// Every partition is carved from the store just written, whatever
	// the delta touched: labels are whole balls and the ring scatters
	// them by hash, so a partition without a changed label does not
	// occur (docs/PERFORMANCE.md, "Clean partitions do not exist").
	for name, ids := range opts.Partitions {
		if err := addFile(name+".fsdl", ids, func(f *os.File) error {
			return labelstore.Write(f, store, ids)
		}); err != nil {
			return nil, err
		}
	}
	if err := labelstore.WriteManifestFile(tmp, m); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, final); err != nil {
		return nil, err
	}
	// Make the generation's rename durable: fsync the live root so the
	// committed gen-<id> directory entry survives a crash.
	if err := labelstore.FsyncParentDir(final); err != nil {
		return nil, err
	}
	dirtyLabels := len(dirty)
	if !incremental {
		dirtyLabels = m.N
	}
	return &CompactionResult{
		Snapshot:    snap,
		Dir:         final,
		Manifest:    m,
		Store:       store,
		Scheme:      scheme,
		Incremental: incremental,
		DirtyLabels: dirtyLabels,
	}, nil
}

// LoadGenerationBase loads the snapshot graph a generation directory
// carries — the base graph a restarted pipeline resumes from.
func LoadGenerationBase(dir string) (*graph.Graph, error) {
	f, err := os.Open(filepath.Join(dir, GraphFileName))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.Read(f)
}

// LoadGenerationStore loads the full label store of a generation
// directory, auto-detecting the container format (FSDL3 files are
// opened mmap-backed).
func LoadGenerationStore(dir string) (*labelstore.Store, error) {
	return labelstore.Open(filepath.Join(dir, LabelsFileName))
}
