// Command fsdl-shard serves one partition of an FSDL label store over
// the cluster wire protocol. A fleet of shards plus a fsdl-serve
// frontend (-cluster) is the horizontally scaled deployment shape: each
// shard holds the label records for its slice of the consistent-hash
// ring and ships them on request as it stores them (a factored
// partition's balls, any other's canonical bytes); all decoding happens
// at the frontend. Partitions come from `fsdl partition`. See
// docs/CLUSTER.md. The startup line names the address bound, so
// -addr 127.0.0.1:0 logs the port the system picked; SIGINT or SIGTERM
// closes the listener and every connection.
//
// Usage:
//
//	fsdl-shard -store shard0.fsdl -addr :9000 [-name shard0] [-salvage]
//
// A partition that -salvage opens with any record lost is incomplete:
// the shard answers whatever it lacks as unknown, not absent, until the
// frontend's repairer has filled it and seals it.
//
// An FSDL3 partition is served straight from the OS page cache — the
// shard's memory footprint is bounded by what the kernel keeps warm, not
// the store size. A repair persist (-persist) writes the store's own
// encoding: a factored partition stays factored, anything else is
// written as FSDL2. An incomplete store is written first when repair
// seals it, never before: a restart reads the file as complete.
//
// A replacement for a dead shard starts empty — incomplete in the same
// way — and is filled by the frontend's anti-entropy repairer (see
// docs/CLUSTER.md, "Membership & repair"):
//
//	fsdl-shard -bootstrap-n 65536 -addr :9003 -name shard3 [-persist shard3.fsdl]
//
// With -generation-dir the shard participates in live updates (see
// docs/LIVE.md): it activates new label generations on the frontend's
// command, and — when -store is omitted — boots straight from the
// newest generation in the directory:
//
//	fsdl-shard -generation-dir gens/ -name shard0 -addr :9000
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"fsdl/internal/cluster"
	"fsdl/internal/labelstore"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsdl-shard:", err)
		os.Exit(1)
	}
}

// run serves until ctx is done, then closes the shard: its listener and
// every connection. Its log lines go to logw.
func run(ctx context.Context, args []string, logw io.Writer) error {
	fs := flag.NewFlagSet("fsdl-shard", flag.ContinueOnError)
	fs.SetOutput(logw)
	storePath := fs.String("store", "", "partition store file (required unless -bootstrap-n; produced by `fsdl partition`)")
	addr := fs.String("addr", ":9000", "listen address")
	name := fs.String("name", "", "shard name for error messages (default: store file name)")
	salvage := fs.Bool("salvage", false, "tolerate a damaged partition: serve the records that survive")
	bootstrapN := fs.Int("bootstrap-n", 0, "start as an empty replacement shard over this vertex space; repair fills it (mutually exclusive with -store)")
	persist := fs.String("persist", "", "persist the store to this file when repair seals it, and after each repair pull into a store that can vouch for its absences (atomic temp+rename)")
	repairRate := fs.Int("repair-rate", 0, "max records/sec installed by repair pulls (0 = 50000, negative = unlimited)")
	genDir := fs.String("generation-dir", "", "versioned label generation root; boots from the newest generation when -store is omitted")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Every flag check comes before anything is opened or built.
	genBoot := *storePath == "" && *bootstrapN <= 0
	switch {
	case *storePath != "" && *bootstrapN > 0:
		return fmt.Errorf("-store and -bootstrap-n are mutually exclusive")
	case genBoot && *genDir == "":
		return fmt.Errorf("one of -store, -bootstrap-n or -generation-dir is required")
	case genBoot && *name == "":
		return fmt.Errorf("-name is required with -generation-dir (it selects the partition file)")
	case *bootstrapN > 0 && *name == "":
		return fmt.Errorf("-name is required with -bootstrap-n (the ring routes by name)")
	}

	var st *labelstore.Store
	generation := uint64(0)
	switch {
	case genBoot:
		// Generation boot: serve the shard's own partition file from the
		// newest intact generation (full labels when none was written).
		m, dir, ok, err := labelstore.LatestGeneration(*genDir)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("no intact generation under %s", *genDir)
		}
		file := labelstore.GenerationLabelsFile
		if m.File(*name+".fsdl") != nil {
			file = *name + ".fsdl"
		}
		st, err = labelstore.Open(filepath.Join(dir, file))
		if err != nil {
			return fmt.Errorf("load generation %d %s: %w", m.Generation, file, err)
		}
		generation = m.Generation
		fmt.Fprintf(logw, "fsdl-shard: %s booting from generation %d (%s)\n", *name, m.Generation, dir)
	case *bootstrapN > 0:
		var err error
		st, err = labelstore.NewEmpty(*bootstrapN)
		if err != nil {
			return err
		}
		fmt.Fprintf(logw, "fsdl-shard: %s bootstrapping empty over n=%d — answers unknown until repair seals it\n",
			*name, *bootstrapN)
	default:
		if *name == "" {
			*name = *storePath
		}
		var err error
		if *salvage {
			// OpenPartial keeps an FSDL3 store mmap-backed through salvage;
			// FSDL2 files go through the stream salvager exactly as before.
			var rep *labelstore.SalvageReport
			st, rep, err = labelstore.OpenPartial(*storePath)
			if err == nil && rep.Lost() > 0 {
				fmt.Fprintf(logw, "fsdl-shard: salvage: kept %d/%d records — what the store lacks answers as unknown until repair seals it, so the frontend fails over to replicas\n",
					rep.Kept, rep.Total)
			}
		} else {
			st, err = labelstore.Open(*storePath)
		}
		if err != nil {
			return fmt.Errorf("load %s: %w", *storePath, err)
		}
	}

	// Nothing reads the store once the server below has closed.
	defer st.Close()

	// A salvaged or bootstrapped store is incomplete: it answers what it
	// lacks with the wire protocol's "unknown" state instead of
	// authoritative absence until the repairer seals it.
	srv, err := cluster.NewShardServer(cluster.ShardConfig{
		Store:          st,
		Name:           *name,
		Generation:     generation,
		GenerationRoot: *genDir,
		PersistPath:    *persist,
		RepairRate:     *repairRate,
	})
	if err != nil {
		return err
	}

	// Bound before serving, so the line below names the real address
	// (-addr 127.0.0.1:0 picks a port).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	fmt.Fprintf(logw, "fsdl-shard: %s serving %d labels over n=%d vertices on %s\n",
		*name, st.NumLabels(), st.NumVertices(), ln.Addr())

	select {
	case err := <-errCh:
		srv.Close()
		return err
	case <-ctx.Done():
	}
	srv.Close()
	fmt.Fprintf(logw, "fsdl-shard: %s shut down after %d requests, %d labels served, %d records repaired in\n",
		*name, srv.Requests.Load(), srv.LabelsServed.Load(), srv.RepairInstalled.Load())
	return nil
}
