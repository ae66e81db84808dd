package main

import (
	"flag"
	"fmt"
	"io"
	"path/filepath"

	"fsdl/internal/cluster"
	"fsdl/internal/core"
	graphpkg "fsdl/internal/graph"
	"fsdl/internal/labelstore"
	"fsdl/internal/liveupdate"
)

// cmdCompact is the offline compaction path: replay a mutation WAL
// over a base graph and bake the result into the next versioned label
// generation under -root, ready for fsdl-serve / fsdl-shard to load.
//
//	fsdl compact -root gens/ [-wal gens/mutations.wal] [-in graph.txt]
//	             [-eps 2] [-workers N] [-members members.txt] [-force]
//
// The base graph comes from the newest generation already in -root
// (its graph.txt snapshot); -in seeds the very first compaction, when
// no generation exists yet. With -members, one partition file per
// shard is written into the generation so a cluster can activate it
// without re-partitioning.
func cmdCompact(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("compact", flag.ContinueOnError)
	root := fs.String("root", "", "generation root directory (required)")
	walPath := fs.String("wal", "", "mutation WAL to replay (default <root>/mutations.wal)")
	in := fs.String("in", "", "base graph file; required only when -root holds no generation yet")
	eps := fs.Float64("eps", 2, "precision parameter epsilon")
	workers := fs.Int("workers", 0, "build parallelism (0 = GOMAXPROCS)")
	members := fs.String("members", "", "cluster membership file; also write per-shard partition files")
	force := fs.Bool("force", false, "build a generation even with no pending mutations")
	incremental := fs.Bool("incremental", false, "delta-scoped rebuild off the newest generation (byte-identical output; requires an existing generation)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *root == "" {
		return fmt.Errorf("-root is required")
	}
	if *walPath == "" {
		*walPath = filepath.Join(*root, "mutations.wal")
	}

	// Resume from the newest intact generation when one exists: its
	// snapshot graph is the base the WAL delta applies to.
	var base *graphpkg.Graph
	generation := uint64(0)
	if m, dir, ok, err := labelstore.LatestGeneration(*root); err == nil && ok {
		base, err = liveupdate.LoadGenerationBase(dir)
		if err != nil {
			return err
		}
		generation = m.Generation
		fmt.Fprintf(out, "base: generation %d (%s), n=%d\n", m.Generation, dir, base.NumVertices())
	} else if err != nil && *in == "" {
		return err
	}
	if base == nil {
		if *in == "" {
			return fmt.Errorf("no generation under %s: -in is required for the first compaction", *root)
		}
		g, err := loadGraph(*in)
		if err != nil {
			return err
		}
		base = g
		fmt.Fprintf(out, "base: %s, n=%d (first compaction)\n", *in, base.NumVertices())
	}

	p, err := liveupdate.Open(liveupdate.Config{Base: base, WALPath: *walPath, Generation: generation})
	if err != nil {
		return err
	}
	defer p.Close()
	pending := p.Pending()
	fmt.Fprintf(out, "wal: %s, seq %d, %d pending delta edges\n", *walPath, p.Seq(), pending)
	if pending == 0 && !*force {
		fmt.Fprintln(out, "nothing to compact (use -force to rebuild anyway)")
		return nil
	}

	opts := liveupdate.CompactOptions{Epsilon: *eps, Workers: *workers}
	if *members != "" {
		m, err := cluster.LoadMembership(*members)
		if err != nil {
			return err
		}
		parts := m.Ring().Partition(base.NumVertices())
		opts.Partitions = make(map[string][]int, len(m.Nodes))
		for i, node := range m.Nodes {
			opts.Partitions[node.Name] = parts[i]
		}
	}

	if *incremental {
		if generation == 0 {
			return fmt.Errorf("-incremental needs an existing generation under %s", *root)
		}
		prevDir := filepath.Join(*root, labelstore.GenerationDirName(generation))
		prevStore, err := liveupdate.LoadGenerationStore(prevDir)
		if err != nil {
			return err
		}
		// The previous scheme is not persisted; rebuild it from the base
		// graph it came from. The build is deterministic, so the
		// reconstruction matches the original bit for bit and the
		// spliced output stays byte-identical to a full rebuild.
		prevScheme, err := core.BuildSchemeWorkers(base, *eps, *workers)
		if err != nil {
			return fmt.Errorf("rebuild generation %d scheme: %w", generation, err)
		}
		opts.Prev = &liveupdate.PrevGeneration{Generation: generation, Scheme: prevScheme, Store: prevStore}
		fmt.Fprintf(out, "incremental: delta-scoped rebuild off generation %d\n", generation)
	}

	if !p.BeginCompaction() {
		return fmt.Errorf("compaction already in flight")
	}
	defer p.EndCompaction()
	// Nothing reads beside an offline build, so it takes the snapshot
	// itself and keeps every core (liveupdate.Compact leaves one to the
	// readers of a serving pipeline).
	snap, err := p.Snapshot()
	if err != nil {
		return err
	}
	res, err := liveupdate.CompactSnapshot(snap, *root, opts)
	if err != nil {
		return err
	}
	// Journal the compaction marker so the next replay (serve restart
	// or another compact run) starts from this generation, not seq 0.
	if err := p.Commit(res.Snapshot); err != nil {
		return err
	}
	for _, f := range res.Manifest.Files {
		fmt.Fprintf(out, "  %s: %d records, crc %08x\n", f.Name, f.Records, f.CRC)
	}
	if res.Incremental {
		fmt.Fprintf(out, "incremental: %d/%d labels re-extracted\n", res.DirtyLabels, res.Snapshot.Graph.NumVertices())
	}
	fmt.Fprintf(out, "generation %d written to %s (seq %d, n=%d)\n",
		res.Snapshot.Generation, res.Dir, res.Snapshot.Seq, res.Snapshot.Graph.NumVertices())
	return nil
}
