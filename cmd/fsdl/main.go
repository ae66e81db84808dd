// Command fsdl is the interactive front end to the library: generate
// workload graphs, inspect labels, estimate doubling dimension, and answer
// forbidden-set distance queries.
//
// Usage:
//
//	fsdl gen   -kind grid -size 16 [-out graph.txt]
//	fsdl stats -in graph.txt [-eps 2]
//	fsdl stats labels.fsdl            (label store statistics; see docs/STORAGE.md)
//	fsdl stats -levels [-in graph.txt | -db labels.fsdl]   (shared level lists; see docs/PERFORMANCE.md)
//	fsdl label -in graph.txt -v 12 [-eps 2]
//	fsdl query -in graph.txt -s 0 -t 99 [-eps 2] [-fail 5,17] [-failedge 3-4]
//	fsdl route -in graph.txt -s 0 -t 99 [-eps 2] [-fail 5,17]
//	fsdl verify -in graph.txt [-eps 2] [-maxfaults 3]
//	fsdl labels -in graph.txt -out labels.fsdl [-region 12 -radius 5] [-workers N]
//	fsdl querydb -db labels.fsdl -s 0 -t 99 [-fail 5,17] [-salvage] [-path]
//	fsdl trace -size 12 -s 0 [-fail 60,61,62]
//	fsdl buildscheme -in graph.txt -out scheme.fsdls [-eps 2] [-workers N]
//	fsdl wquery -in roads.gr -s 0 -t 99 [-fail 5,17]
//	fsdl partition -db labels.fsdl -members members.txt -out shards/
//	fsdl cluster status|join|leave|drain -frontend http://host:8080 [...]
//	fsdl compact -root gens/ [-wal gens/mutations.wal] [-in graph.txt] [-members members.txt]
package main

import (
	"flag"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"fsdl"
	"fsdl/internal/asciiviz"
	"fsdl/internal/cluster"
	"fsdl/internal/core"
	graphpkg "fsdl/internal/graph"
	"fsdl/internal/labelstore"
	"fsdl/internal/verify"
	"fsdl/internal/wgraph"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fsdl:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("missing subcommand (gen, stats, label, query, route)")
	}
	switch args[0] {
	case "gen":
		return cmdGen(args[1:], out)
	case "stats":
		return cmdStats(args[1:], out)
	case "label":
		return cmdLabel(args[1:], out)
	case "query":
		return cmdQuery(args[1:], out)
	case "route":
		return cmdRoute(args[1:], out)
	case "verify":
		return cmdVerify(args[1:], out)
	case "labels":
		return cmdLabels(args[1:], out)
	case "querydb":
		return cmdQueryDB(args[1:], out)
	case "trace":
		return cmdTrace(args[1:], out)
	case "buildscheme":
		return cmdBuildScheme(args[1:], out)
	case "wquery":
		return cmdWQuery(args[1:], out)
	case "partition":
		return cmdPartition(args[1:], out)
	case "cluster":
		return cmdCluster(args[1:], out)
	case "compact":
		return cmdCompact(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func cmdTrace(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	size := fs.Int("size", 12, "grid side length (the trace view requires a grid)")
	eps := fs.Float64("eps", 2, "precision parameter epsilon")
	src := fs.Int("s", 0, "source vertex")
	dst := fs.Int("t", -1, "target vertex (-1 = opposite corner)")
	failList := fs.String("fail", "", "comma-separated failed vertices")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g := fsdl.GridGraph2D(*size, *size)
	if *dst < 0 {
		*dst = g.NumVertices() - 1
	}
	s, err := fsdl.Build(g, *eps)
	if err != nil {
		return err
	}
	faults, err := parseFaults(*failList, "")
	if err != nil {
		return err
	}
	q, err := s.NewQuery(*src, *dst, faults)
	if err != nil {
		return err
	}
	var tr fsdl.Trace
	var dec core.Decoder
	res := dec.Decode(q, core.Opts{Trace: &tr})
	dec.Release()
	if !res.OK {
		fmt.Fprintf(out, "%d and %d are DISCONNECTED in G \\ F\n", *src, *dst)
		return nil
	}
	fmt.Fprintf(out, "estimate %d (sketch: %d vertices, %d edges)\n", res.Dist, tr.NumHVertices, tr.NumHEdges)
	// Walk the waypoints into an actual grid path for the picture.
	r, okRoute := fsdl.BuildRouting(s).RouteWithFaults(*src, *dst, faults)
	var path []int
	if okRoute {
		path = r.Path
	}
	pic, err := asciiviz.RenderQuery(*size, *size, *src, *dst, faults.Vertices(), tr.Path, path)
	if err != nil {
		return err
	}
	fmt.Fprint(out, pic)
	fmt.Fprintln(out, "waypoints with weights:")
	for i := 1; i < len(tr.Path); i++ {
		fmt.Fprintf(out, "  %d -> %d (weight %d)\n", tr.Path[i-1], tr.Path[i], tr.PathWeights[i-1])
	}
	return nil
}

func cmdLabels(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("labels", flag.ContinueOnError)
	in := fs.String("in", "", "graph file (text format; default stdin)")
	eps := fs.Float64("eps", 2, "precision parameter epsilon")
	outPath := fs.String("out", "labels.fsdl", "output label store")
	region := fs.Int("region", -1, "center vertex of a region bundle (-1 = all labels)")
	radius := fs.Int("radius", 0, "region radius (with -region)")
	workers := fs.Int("workers", 0, "preprocessing workers (0 = all CPUs; output is identical for any count)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	s, err := fsdl.BuildWithWorkers(g, *eps, *workers)
	if err != nil {
		return err
	}
	f, err := os.Create(*outPath)
	if err != nil {
		return err
	}
	defer f.Close()
	var ids []int // nil: every label
	if *region >= 0 {
		ids = labelstore.Region(s, *region, int32(*radius))
	}
	if err := labelstore.Write(f, labelstore.FromScheme(s), ids); err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s (%d bytes)\n", *outPath, info.Size())
	return nil
}

func cmdQueryDB(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("querydb", flag.ContinueOnError)
	db := fs.String("db", "labels.fsdl", "label store file")
	src := fs.Int("s", 0, "source vertex")
	dst := fs.Int("t", 0, "target vertex")
	failList := fs.String("fail", "", "comma-separated failed vertices")
	failEdges := fs.String("failedge", "", "comma-separated failed edges as u-v")
	salvage := fs.Bool("salvage", false, "tolerate a damaged store: skip corrupt records and answer conservatively (safe upper bounds)")
	withPath := fs.Bool("path", false, "also print the witness path (a walk in G \\ F realizing the answer)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	faults, err := parseFaults(*failList, *failEdges)
	if err != nil {
		return err
	}
	var st *labelstore.Store
	if *salvage {
		var rep *labelstore.SalvageReport
		if st, rep, err = labelstore.OpenPartial(*db); err != nil {
			return err
		}
		if rep.Kept == 0 {
			return fmt.Errorf("store %s is unreadable: 0 of %d records salvaged (truncated: %v)",
				*db, rep.Total, rep.Truncated)
		}
		if rep.Lost() > 0 {
			fmt.Fprintf(out, "salvage: kept %d/%d records (%d corrupt, truncated: %v)\n",
				rep.Kept, rep.Total, len(rep.Corrupt), rep.Truncated)
		}
	} else if st, err = labelstore.Open(*db); err != nil {
		return err
	}
	// A fault label the store lacks is an error, unless -salvage demotes
	// it to a degraded fault by id (a safe upper bound). The strict query
	// has no answer when it fails Validate. One decode, the walk with it.
	q, err := core.ResolveQuery(*src, *dst, faults, st.Label, *salvage)
	if err != nil {
		return err
	}
	var res core.Result
	var path []int32
	if q != nil && (*salvage || q.Validate() == nil) {
		var o core.Opts
		if *withPath {
			o.Path = &path
		}
		var dec core.Decoder
		res = dec.Decode(q, o)
		dec.Release()
	}
	switch {
	case !res.OK && *salvage:
		fmt.Fprintf(out, "no answer for %d -> %d avoiding |F|=%d (disconnected, or endpoints unrecoverable)\n",
			*src, *dst, faults.Size())
		return nil
	case !res.OK:
		fmt.Fprintf(out, "%d and %d are DISCONNECTED in G \\ F (|F|=%d)\n", *src, *dst, faults.Size())
		return nil
	case *salvage:
		fmt.Fprintf(out, "estimated distance %d -> %d avoiding |F|=%d: %d (from %d stored labels)\n",
			*src, *dst, faults.Size(), res.Dist, st.NumLabels())
		if res.Degraded {
			fmt.Fprintf(out, "status: DEGRADED upper bound (%d fault labels missing/corrupt)\n",
				len(res.MissingFaultLabels))
		} else {
			fmt.Fprintln(out, "status: EXACT (all labels intact, (1+eps) estimate)")
		}
	default:
		fmt.Fprintf(out, "estimated distance %d -> %d avoiding |F|=%d: %d (answered offline from %d stored labels)\n",
			*src, *dst, faults.Size(), res.Dist, st.NumLabels())
	}
	if *withPath {
		printPath(out, path)
	}
	return nil
}

// printPath renders a witness walk as "path: a -> b -> c". Hops are
// sketch edges: each is realizable in G \ F at exactly the weight it
// contributed, so consecutive vertices need not be graph-adjacent.
func printPath(out io.Writer, path []int32) {
	if len(path) == 0 {
		return
	}
	fmt.Fprintf(out, "path (%d hops):", len(path)-1)
	for i, v := range path {
		if i == 0 {
			fmt.Fprintf(out, " %d", v)
		} else {
			fmt.Fprintf(out, " -> %d", v)
		}
	}
	fmt.Fprintln(out)
}

func cmdVerify(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	in := fs.String("in", "", "graph file (text format; default stdin)")
	eps := fs.Float64("eps", 2, "precision parameter epsilon")
	maxFaults := fs.Int("maxfaults", 3, "largest fault set to exercise")
	queries := fs.Int("queries", 1500, "query budget")
	withRouting := fs.Bool("routing", true, "also verify routing")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	rep, err := verify.Scheme(g, verify.Options{
		Epsilon:      *eps,
		MaxFaults:    *maxFaults,
		MaxQueries:   *queries,
		CheckRouting: *withRouting,
		Seed:         *seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "verified %d queries (%d routed) against exact recomputation\n", rep.Queries, rep.Routes)
	if rep.OK() {
		fmt.Fprintln(out, "all guarantees hold: no safety, connectivity, stretch, or routing violations")
		return nil
	}
	for _, v := range rep.Violations {
		fmt.Fprintln(out, " VIOLATION:", v)
	}
	return fmt.Errorf("%d violations found", len(rep.Violations))
}

func cmdGen(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	kind := fs.String("kind", "grid", "graph family: grid, path, cycle, rgg, road, tree")
	size := fs.Int("size", 16, "side length (grid/road) or vertex count (path/cycle/rgg/tree)")
	seed := fs.Int64("seed", 1, "random seed for random families")
	outPath := fs.String("out", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	var g *fsdl.Graph
	var err error
	switch *kind {
	case "grid":
		g = fsdl.GridGraph2D(*size, *size)
	case "path":
		g = fsdl.PathGraph(*size)
	case "cycle":
		g, err = fsdl.CycleGraph(*size)
	case "rgg":
		g, _, err = fsdl.RandomGeometricGraph(*size, 1.5/float64(*size)*float64(*size/24+8), rng)
	case "road":
		g, err = fsdl.RoadNetworkGraph(*size, *size, 0.12, *size/2, rng)
	case "tree":
		g = fsdl.RandomTreeGraph(*size, rng)
	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}
	if err != nil {
		return err
	}
	w := out
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	_, err = g.WriteTo(w)
	return err
}

func cmdStats(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	in := fs.String("in", "", "graph file (text format; default stdin)")
	eps := fs.Float64("eps", 2, "precision parameter epsilon")
	seed := fs.Int64("seed", 1, "random seed for sampling")
	levels := fs.Bool("levels", false, "print the per-level table of stored vs distinct edge lists instead")
	db := fs.String("db", "", "with -levels: read the labels of this store file instead of building a scheme")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// `fsdl stats <store>`: container-level statistics of a label store
	// file instead of graph/scheme statistics.
	if fs.NArg() > 0 {
		return storeStats(fs.Arg(0), out)
	}
	if *levels && *db != "" {
		return storeLevelStats(*db, out)
	}
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	if *levels {
		s, err := fsdl.Build(g, *eps)
		if err != nil {
			return err
		}
		ids := make([]int, g.NumVertices())
		for v := range ids {
			ids[v] = v
		}
		return levelStats(out, ids, func(v int) (*fsdl.Label, error) { return s.Label(v), nil })
	}
	rng := rand.New(rand.NewSource(*seed))
	est := fsdl.EstimateDoublingDimension(g, 8, rng)
	fmt.Fprintf(out, "n=%d m=%d connected=%v diameter=%d\n",
		g.NumVertices(), g.NumEdges(), g.IsConnected(), g.Diameter())
	fmt.Fprintf(out, "doubling dimension (empirical): %.2f (max greedy cover %d over %d samples)\n",
		est.Dimension, est.MaxCover, est.Samples)
	s, err := fsdl.Build(g, *eps)
	if err != nil {
		return err
	}
	p := s.Params()
	fmt.Fprintf(out, "scheme: eps=%g c=%d levels %d..%d\n", p.Epsilon, p.C, p.LowestLevel(), p.MaxLevel)
	var totalBits, maxBits int
	samples := 8
	if g.NumVertices() < samples {
		samples = g.NumVertices()
	}
	for i := 0; i < samples; i++ {
		v := rng.Intn(g.NumVertices())
		b := s.LabelBits(v)
		totalBits += b
		if b > maxBits {
			maxBits = b
		}
	}
	if samples > 0 {
		fmt.Fprintf(out, "label bits: avg %d, max %d (over %d sampled vertices)\n",
			totalBits/samples, maxBits, samples)
	}
	st := s.StoreStats()
	fmt.Fprintf(out, "level store: %d levels, %d net edges total\n", len(st.Levels), st.TotalNetEdges)
	for _, ls := range st.Levels {
		fmt.Fprintf(out, "  level %2d: %6d net points, %8d net edges\n", ls.Level, ls.NetPoints, ls.NetEdges)
	}
	return nil
}

// storeStats prints container-level statistics of a label store file:
// the format and encoding, stored vs canonical payload bytes, bytes per
// vertex, index/framing overhead, and a per-record size histogram. The
// store is opened mmap-first, so statting a store much larger than RAM
// streams through the page cache instead of loading it.
func storeStats(path string, out io.Writer) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	st, err := labelstore.Open(path)
	if err != nil {
		return err
	}
	defer st.Close()
	enc := st.Encoding()
	desc := "FSDL" + strconv.Itoa(enc.Version)
	if enc.Factored {
		desc += " compressed, factored"
	}
	if enc.Mapped {
		desc += ", mmap"
	}
	n := st.NumVertices()
	var (
		records, corrupt    int
		stored, canonical   int64
		hist                [33]int // bucket i: stored size in [2^i, 2^(i+1))
		maxBucket, maxCount int
	)
	st.Records(func(r labelstore.RecordInfo) {
		records++
		if r.Corrupt {
			corrupt++
		}
		stored += int64(r.StoredBytes)
		canonical += int64((r.Bits + 7) / 8)
		b := bits.Len(uint(r.StoredBytes))
		hist[b]++
		if b > maxBucket {
			maxBucket = b
		}
		if hist[b] > maxCount {
			maxCount = hist[b]
		}
	})
	fmt.Fprintf(out, "store %s: %s, n=%d vertices, %d records, %d bytes on disk\n",
		path, desc, n, records, fi.Size())
	saved := ""
	if enc.Factored && canonical > 0 {
		saved = fmt.Sprintf(" (%.1f%% smaller than canonical)", 100*(1-float64(stored)/float64(canonical)))
	}
	fmt.Fprintf(out, "payload: %d stored bytes, %d canonical bytes%s\n", stored, canonical, saved)
	if lgBytes := st.LevelGraphsBytes(); enc.Factored && n > 0 {
		// A factored file: the level graphs once, then per record only
		// the balls (the payload above).
		fmt.Fprintf(out, "level graphs: %d bytes, once per file; balls: %d bytes (%.1f + %.1f bytes/vertex)\n",
			lgBytes, stored, float64(lgBytes)/float64(n), float64(stored)/float64(n))
	}
	fmt.Fprintf(out, "index/framing overhead: %d bytes (%.1f%% of file)\n",
		st.IndexOverheadBytes(), 100*float64(st.IndexOverheadBytes())/float64(fi.Size()))
	if n > 0 {
		fmt.Fprintf(out, "bytes/vertex: %.1f on disk, %.1f payload\n",
			float64(fi.Size())/float64(n), float64(stored)/float64(n))
	}
	if corrupt > 0 {
		fmt.Fprintf(out, "corrupt records: %d (served as unknown; repair with Put or re-fetch)\n", corrupt)
	}
	fmt.Fprintln(out, "record size histogram (stored bytes):")
	for b := 0; b <= maxBucket; b++ {
		if hist[b] == 0 {
			continue
		}
		lo, hi := 0, 0
		if b > 0 {
			lo, hi = 1<<(b-1), 1<<b-1
		}
		bar := ""
		if maxCount > 0 {
			bar = strings.Repeat("#", 1+hist[b]*40/maxCount)
		}
		fmt.Fprintf(out, "  %7d..%-7d %7d %s\n", lo, hi, hist[b], bar)
	}
	return nil
}

func cmdLabel(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("label", flag.ContinueOnError)
	in := fs.String("in", "", "graph file (text format; default stdin)")
	eps := fs.Float64("eps", 2, "precision parameter epsilon")
	v := fs.Int("v", 0, "vertex to label")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	s, err := fsdl.Build(g, *eps)
	if err != nil {
		return err
	}
	if *v < 0 || *v >= g.NumVertices() {
		return fmt.Errorf("vertex %d out of range [0,%d)", *v, g.NumVertices())
	}
	l := s.Label(*v)
	fmt.Fprintf(out, "label of %d: %d bits, %d points, %d edges, %d levels\n",
		*v, l.BitLen(), l.NumPoints(), l.NumEdges(), len(l.Levels))
	for k, lv := range l.Levels {
		fmt.Fprintf(out, "  level %d: %d points, %d edges\n", l.Level(k), len(lv.Points), len(l.LevelEdges(k, nil)))
	}
	return nil
}

func cmdQuery(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	in := fs.String("in", "", "graph file (text format; default stdin)")
	schemePath := fs.String("scheme", "", "persisted scheme file (skips preprocessing; overrides -in/-eps)")
	eps := fs.Float64("eps", 2, "precision parameter epsilon")
	src := fs.Int("s", 0, "source vertex")
	dst := fs.Int("t", 0, "target vertex")
	failList := fs.String("fail", "", "comma-separated failed vertices")
	failEdges := fs.String("failedge", "", "comma-separated failed edges as u-v")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var s *fsdl.Scheme
	if *schemePath != "" {
		f, err := os.Open(*schemePath)
		if err != nil {
			return err
		}
		defer f.Close()
		if s, err = fsdl.LoadScheme(f); err != nil {
			return err
		}
	} else {
		g, err := loadGraph(*in)
		if err != nil {
			return err
		}
		if s, err = fsdl.Build(g, *eps); err != nil {
			return err
		}
	}
	f, err := parseFaults(*failList, *failEdges)
	if err != nil {
		return err
	}
	d, ok := s.Distance(*src, *dst, f)
	if !ok {
		fmt.Fprintf(out, "%d and %d are DISCONNECTED in G \\ F (|F|=%d)\n", *src, *dst, f.Size())
		return nil
	}
	fmt.Fprintf(out, "estimated distance %d -> %d avoiding |F|=%d: %d (stretch bound 1+%g)\n",
		*src, *dst, f.Size(), d, s.Params().Epsilon)
	return nil
}

func cmdBuildScheme(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("buildscheme", flag.ContinueOnError)
	in := fs.String("in", "", "graph file (text format; default stdin)")
	eps := fs.Float64("eps", 2, "precision parameter epsilon")
	outPath := fs.String("out", "scheme.fsdls", "output scheme file")
	workers := fs.Int("workers", 0, "preprocessing workers (0 = all CPUs; output is identical for any count)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	s, err := fsdl.BuildWithWorkers(g, *eps, *workers)
	if err != nil {
		return err
	}
	f, err := os.Create(*outPath)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := fsdl.SaveScheme(f, s); err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s (%d bytes): preprocessed scheme for n=%d, eps=%g\n",
		*outPath, info.Size(), g.NumVertices(), *eps)
	return nil
}

func cmdRoute(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("route", flag.ContinueOnError)
	in := fs.String("in", "", "graph file (text format; default stdin)")
	eps := fs.Float64("eps", 2, "precision parameter epsilon")
	src := fs.Int("s", 0, "source vertex")
	dst := fs.Int("t", 0, "target vertex")
	failList := fs.String("fail", "", "comma-separated failed vertices")
	failEdges := fs.String("failedge", "", "comma-separated failed edges as u-v")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	s, err := fsdl.Build(g, *eps)
	if err != nil {
		return err
	}
	f, err := parseFaults(*failList, *failEdges)
	if err != nil {
		return err
	}
	r, ok := fsdl.BuildRouting(s).RouteWithFaults(*src, *dst, f)
	if !ok {
		fmt.Fprintf(out, "no route from %d to %d avoiding |F|=%d\n", *src, *dst, f.Size())
		return nil
	}
	fmt.Fprintf(out, "route %d -> %d: %d hops via %d waypoints\npath: %v\n",
		*src, *dst, r.Length, len(r.Waypoints), r.Path)
	return nil
}

func loadGraph(path string) (*fsdl.Graph, error) {
	if path == "" {
		return fsdl.ReadGraph(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return fsdl.ReadGraph(f)
}

func parseFaults(vertexList, edgeList string) (*fsdl.FaultSet, error) {
	f := fsdl.NewFaultSet()
	if vertexList != "" {
		for _, tok := range strings.Split(vertexList, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				return nil, fmt.Errorf("bad failed vertex %q: %w", tok, err)
			}
			f.AddVertex(v)
		}
	}
	if edgeList != "" {
		for _, tok := range strings.Split(edgeList, ",") {
			parts := strings.SplitN(strings.TrimSpace(tok), "-", 2)
			if len(parts) != 2 {
				return nil, fmt.Errorf("bad failed edge %q (want u-v)", tok)
			}
			u, err := strconv.Atoi(parts[0])
			if err != nil {
				return nil, fmt.Errorf("bad failed edge %q: %w", tok, err)
			}
			v, err := strconv.Atoi(parts[1])
			if err != nil {
				return nil, fmt.Errorf("bad failed edge %q: %w", tok, err)
			}
			f.AddEdge(u, v)
		}
	}
	return f, nil
}

func cmdWQuery(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("wquery", flag.ContinueOnError)
	in := fs.String("in", "", "weighted road network in DIMACS .gr format (default stdin)")
	eps := fs.Float64("eps", 2, "precision parameter epsilon")
	src := fs.Int("s", 0, "source vertex (0-indexed)")
	dst := fs.Int("t", 0, "target vertex (0-indexed)")
	failList := fs.String("fail", "", "comma-separated failed vertices")
	failEdges := fs.String("failedge", "", "comma-separated failed road segments as u-v")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	topo, weights, err := graphpkg.ReadDIMACS(r)
	if err != nil {
		return err
	}
	wg, err := wgraph.FromEdgeWeights(topo.NumVertices(), weights)
	if err != nil {
		return err
	}
	s, err := wgraph.BuildScheme(wg, *eps)
	if err != nil {
		return err
	}
	faults, err := parseFaults(*failList, *failEdges)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "road network: %d junctions, %d segments (subdivided to %d unit vertices)\n",
		wg.NumVertices(), wg.NumEdges(), s.SubdividedSize())
	d, ok := s.Distance(*src, *dst, faults)
	if !ok {
		fmt.Fprintf(out, "%d and %d are DISCONNECTED avoiding |F|=%d\n", *src, *dst, faults.Size())
		return nil
	}
	fmt.Fprintf(out, "estimated travel cost %d -> %d avoiding |F|=%d: %d (stretch bound 1+%g)\n",
		*src, *dst, faults.Size(), d, *eps)
	return nil
}

// cmdPartition splits a label store into one store per cluster shard by
// consistent-hash ring ownership. With replication R every label lands
// in exactly R partition files; the union of the partitions re-serves
// every record byte-identically (the partition writer is just
// Write from the store over the ring's ownership lists, so a factored
// store yields factored partitions and an FSDL2 store FSDL2 ones).
func cmdPartition(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("partition", flag.ContinueOnError)
	db := fs.String("db", "labels.fsdl", "label store file to split")
	members := fs.String("members", "", "cluster membership file (required; see docs/CLUSTER.md)")
	outDir := fs.String("out", ".", "directory for the per-shard stores (<name>.fsdl)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *members == "" {
		return fmt.Errorf("-members is required")
	}
	m, err := cluster.LoadMembership(*members)
	if err != nil {
		return err
	}
	st, err := labelstore.Open(*db)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	ring := m.Ring()
	parts := ring.Partition(st.NumVertices())
	for i, node := range m.Nodes {
		// The ownership list covers all of [0,n); a region-bundle store
		// only holds labels for some of it.
		ids := parts[i][:0]
		for _, v := range parts[i] {
			if st.Has(v) {
				ids = append(ids, v)
			}
		}
		path := *outDir + string(os.PathSeparator) + node.Name + ".fsdl"
		pf, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := labelstore.Write(pf, st, ids); err != nil {
			pf.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
		if err := pf.Close(); err != nil {
			return err
		}
		info, err := os.Stat(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s: %d labels, %d bytes\n", path, len(ids), info.Size())
	}
	fmt.Fprintf(out, "partitioned %d labels over n=%d vertices into %d shards (replication %d)\n",
		st.NumLabels(), st.NumVertices(), len(m.Nodes), ring.Replication())
	return nil
}
