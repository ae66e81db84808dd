// Command fsdl-serve is the long-lived query service over an FSDL label
// store: distance / batch-distance / connected queries and a
// fail/recover fault overlay over HTTP/JSON, with a result cache,
// admission control, and Prometheus metrics. See docs/SERVER.md for the
// API.
//
// Usage:
//
//	fsdl-serve -store labels.fsdl [-addr :8080] [-salvage]
//	           [-workers N] [-queue N] [-deadline 5s] [-budget 0]
//	           [-cache 4096]
//
// An FSDL3 store (see docs/STORAGE.md) — a -store, a generation resumed
// from -live-root, each compaction's — is served straight from the OS
// page cache, so stores larger than RAM stay servable. Live compactions
// write factored FSDL3 generations.
//
// Cluster mode replaces the local store with a scatter-gather frontend
// over fsdl-shard servers (see docs/CLUSTER.md):
//
//	fsdl-serve -cluster members.txt [-hedge 100ms] [-fetch-timeout 500ms]
//	           [-repair 2s] [-retry-budget 0.1]
//
// Live mode accepts streaming edge mutations on /v1/mutate, journaled
// to a WAL, and bakes them into versioned label generations on
// /v1/compact (see docs/LIVE.md). A restart resumes from the newest
// generation under -live-root plus the WAL tail; with no generation
// yet, -store and -graph provide the first labels and the graph they
// were built on; beside a generation, -store is not even opened. -graph
// and -eps are compaction inputs only — queries are always answered from
// labels. A compaction builds on every core but one, which it leaves to
// the queries beside it; no flag changes that:
//
//	fsdl-serve -live-root gens/ [-wal gens/mutations.wal] [-eps 2]
//	           [-store labels.fsdl -graph graph.txt]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"fsdl"
	"fsdl/internal/cluster"
	"fsdl/internal/core"
	"fsdl/internal/labelstore"
	"fsdl/internal/liveupdate"
	"fsdl/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsdl-serve:", err)
		os.Exit(1)
	}
}

// run serves until ctx is done, then drains: in-flight queries finish and
// the mutation WAL is fsynced and closed. Whatever it opens it closes on
// every return, an error's included. Its log lines go to logw.
func run(ctx context.Context, args []string, logw io.Writer) error {
	fs := flag.NewFlagSet("fsdl-serve", flag.ContinueOnError)
	fs.SetOutput(logw)
	storePath := fs.String("store", "", "label store file (required unless -cluster or -live-root with an existing generation)")
	clusterPath := fs.String("cluster", "", "cluster membership file; serve from fsdl-shard servers instead of a local store")
	hedge := fs.Duration("hedge", 0, "cluster: delay before hedging a fetch to a replica (0 = fetch-timeout/5, negative disables)")
	fetchTimeout := fs.Duration("fetch-timeout", 500*time.Millisecond, "cluster: per-attempt shard fetch timeout")
	repairEvery := fs.Duration("repair", 2*time.Second, "cluster: anti-entropy repair sweep interval (0 disables)")
	retryBudget := fs.Float64("retry-budget", 0, "cluster: retries+hedges per first attempt (0 = 0.1, negative disables)")
	salvage := fs.Bool("salvage", false, "tolerate a damaged store: skip corrupt records, answer conservatively")
	graphPath := fs.String("graph", "", "live: base graph the labels were built on, until a first generation exists")
	eps := fs.Float64("eps", 2, "live: precision epsilon compactions build label generations at")
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "max concurrently executing queries (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "admission queue depth beyond the worker pool (0 = 4×workers)")
	deadline := fs.Duration("deadline", 5*time.Second, "default per-request deadline")
	budget := fs.Int("budget", 0, "default per-query decode work budget (0 = unlimited)")
	cacheCap := fs.Int("cache", 4096, "result cache capacity in entries (negative disables)")
	liveRoot := fs.String("live-root", "", "enable live updates: versioned generation root directory (see docs/LIVE.md)")
	walPath := fs.String("wal", "", "live: mutation WAL path (default <live-root>/mutations.wal)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storePath != "" && *clusterPath != "" {
		return fmt.Errorf("-store and -cluster are mutually exclusive")
	}
	if *storePath == "" && *clusterPath == "" && *liveRoot == "" {
		return fmt.Errorf("one of -store, -cluster or -live-root is required")
	}
	// Live mode resumes from the newest intact generation under
	// -live-root: its snapshot graph is the WAL replay base, its store the
	// serving labels. Look for one before opening anything, so a boot that
	// resumes never reads a -store it ignores, and one that cannot start
	// says so first. With no generation yet, -graph provides the base the
	// given store (or cluster) was built on.
	var (
		gen    *labelstore.Manifest
		genDir string
	)
	if *liveRoot != "" {
		if err := os.MkdirAll(*liveRoot, 0o755); err != nil {
			return err
		}
		m, dir, ok, err := labelstore.LatestGeneration(*liveRoot)
		switch {
		case err != nil:
			return err
		case ok:
			gen, genDir = m, dir
		case *graphPath == "":
			return fmt.Errorf("live: no generation under %s yet — provide the base graph with -graph", *liveRoot)
		case *storePath == "" && *clusterPath == "":
			return fmt.Errorf("live: no generation under %s yet — provide labels with -store or -cluster", *liveRoot)
		}
	}

	cfg := server.Config{
		Epsilon:         *eps,
		Workers:         *workers,
		QueueDepth:      *queue,
		DefaultDeadline: *deadline,
		DefaultBudget:   *budget,
		CacheCapacity:   *cacheCap,
	}
	var (
		member *cluster.Membership
		fe     *cluster.Frontend
	)
	switch {
	case *clusterPath != "":
		m, err := cluster.LoadMembership(*clusterPath)
		if err != nil {
			return err
		}
		fe, err = cluster.NewFrontend(cluster.FrontendConfig{
			Membership:       m,
			HedgeDelay:       *hedge,
			FetchTimeout:     *fetchTimeout,
			RepairInterval:   *repairEvery,
			RetryBudgetRatio: *retryBudget,
		})
		if err != nil {
			return err
		}
		defer fe.Close()
		member = m
		cfg.Source = fe
	case gen != nil:
		// Local mode always serves the generation's own labels — a -store
		// file from before the compaction would pair stale labels with the
		// newer base graph. Loaded below.
		if *storePath != "" {
			fmt.Fprintf(logw, "fsdl-serve: live: ignoring -store in favor of generation %d labels\n", gen.Generation)
		}
	case *salvage:
		st, rep, err := labelstore.OpenPartial(*storePath)
		if err != nil {
			return err
		}
		if rep.Kept == 0 {
			return fmt.Errorf("store %s is unreadable: 0 of %d records salvaged (truncated: %v)",
				*storePath, rep.Total, rep.Truncated)
		}
		if rep.Lost() > 0 {
			fmt.Fprintf(logw, "fsdl-serve: salvage: kept %d/%d records (%d corrupt, truncated: %v) — lost fault labels answered as safe upper bounds\n",
				rep.Kept, rep.Total, len(rep.Corrupt), rep.Truncated)
		}
		cfg.Store, cfg.Report = st, rep
	default:
		st, err := labelstore.Open(*storePath)
		if err != nil {
			return fmt.Errorf("load %s: %w (use -salvage to tolerate damage)", *storePath, err)
		}
		cfg.Store = st
	}
	if *liveRoot != "" {
		if *walPath == "" {
			*walPath = filepath.Join(*liveRoot, "mutations.wal")
		}
		var base *fsdl.Graph
		generation := uint64(0)
		if gen != nil {
			var err error
			if base, err = liveupdate.LoadGenerationBase(genDir); err != nil {
				return err
			}
			generation = gen.Generation
			if cfg.Source == nil {
				st, err := liveupdate.LoadGenerationStore(genDir)
				if err != nil {
					return err
				}
				cfg.Store = st
			}
			fmt.Fprintf(logw, "fsdl-serve: live: resuming from generation %d (%s)\n", gen.Generation, genDir)
		}
		if cfg.Store != nil {
			if err := checkEpsilon(cfg.Store, *eps); err != nil {
				return err
			}
		}
		if gen == nil {
			gf, err := os.Open(*graphPath)
			if err != nil {
				return err
			}
			base, err = fsdl.ReadGraph(gf)
			gf.Close()
			if err != nil {
				return err
			}
		}
		p, err := liveupdate.Open(liveupdate.Config{Base: base, WALPath: *walPath, Generation: generation})
		if err != nil {
			return err
		}
		// The drain below closes it too, reporting the final flush;
		// closing twice is a no-op.
		defer p.Close()
		cfg.Live, cfg.LiveRoot = p, *liveRoot
		if pending := p.Pending(); pending > 0 {
			fmt.Fprintf(logw, "fsdl-serve: live: WAL replay restored %d pending delta edges (answers inexact until the next compaction)\n", pending)
		}
		if fe != nil {
			// Cluster + live: compaction writes one partition file per
			// boot-membership shard into each generation, so a swap has
			// every shard load straight from the generation directory.
			parts := member.Ring().Partition(base.NumVertices())
			cfg.Partitions = make(map[string][]int, len(member.Nodes))
			for i, node := range member.Nodes {
				cfg.Partitions[node.Name] = parts[i]
			}
			// Surface the pipeline's pending delta and WAL retention in
			// `fsdl cluster status`.
			fe.SetLiveStats(func() cluster.LiveStats {
				ls := cluster.LiveStats{Pending: p.Pending()}
				if ws, ok := p.WALStats(); ok {
					ls.WALSegments = ws.Segments
					if !ws.OldestSealed.IsZero() {
						ls.WALOldestAge = time.Since(ws.OldestSealed)
					}
				}
				return ls
			})
		}
	}

	srv, err := server.New(cfg)
	if err != nil {
		return err
	}

	// Bound before serving, so the line below names the real address
	// (-addr 127.0.0.1:0 picks a port).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	mode := "local store"
	if *clusterPath != "" {
		mode = fmt.Sprintf("cluster of %s", *clusterPath)
	}
	fmt.Fprintf(logw, "fsdl-serve: serving n=%d vertices from %s on %s\n",
		srv.NumVertices(), mode, ln.Addr())

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	// Graceful shutdown: stop accepting, drain in-flight queries.
	fmt.Fprintln(logw, "fsdl-serve: shutting down, draining in-flight queries")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if cfg.Live != nil {
		// Drain the mutation WAL: every acknowledged mutation is fsynced
		// and the file closed before the process exits. The final flush
		// count lets operators reconcile the drain against their last
		// metrics scrape.
		if err := srv.Close(); err != nil {
			return fmt.Errorf("drain mutation WAL: %w", err)
		}
		fmt.Fprintf(logw, "fsdl-serve: mutation WAL drained and closed, final fsdl_wal_flushed_total %d\n",
			srv.WALFlushedTotal())
	}
	return nil
}

// checkEpsilon refuses a live boot whose -eps differs from the precision
// of the labels it serves, which the first compaction would otherwise
// rebuild at -eps. ε is compared as Label.Encode stores it, ⌊ε·2¹⁶⌋.
func checkEpsilon(st *labelstore.Store, eps float64) error {
	for _, v := range st.Vertices() {
		bits, data, _ := st.Raw(v)
		l, err := core.DecodeLabel(data, bits)
		if err != nil {
			continue // a record a salvaging open kept out of service
		}
		if uint64(l.Epsilon*65536) != uint64(eps*65536) {
			return fmt.Errorf("live: the served labels were built at eps %g, -eps is %g: pass -eps %g, or compactions rebuild every label at %g", l.Epsilon, eps, l.Epsilon, eps)
		}
		return nil
	}
	return nil
}
