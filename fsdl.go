package fsdl

import (
	"io"
	"math/rand"

	"fsdl/internal/core"
	"fsdl/internal/distsim"
	"fsdl/internal/doubling"
	"fsdl/internal/faultinject"
	"fsdl/internal/gen"
	"fsdl/internal/graph"
	"fsdl/internal/oracle"
	"fsdl/internal/routing"
	"fsdl/internal/wgraph"
)

// The public API is a thin facade over the internal packages; the aliases
// below are the library's supported types.
type (
	// Graph is an immutable unweighted undirected graph.
	Graph = graph.Graph
	// GraphBuilder accumulates edges and produces a Graph.
	GraphBuilder = graph.Builder
	// FaultSet is a set of forbidden vertices and/or edges.
	FaultSet = graph.FaultSet

	// Scheme is the preprocessed forbidden-set distance labeling scheme.
	Scheme = core.Scheme
	// Params carries the derived scheme parameters (c, ρ, λ, μ, r).
	Params = core.Params
	// Label is a self-contained forbidden-set distance label.
	Label = core.Label
	// Query is a label-only forbidden-set distance query.
	Query = core.Query
	// Decoder decodes queries on a scratch it keeps between calls;
	// Decoder.Decode(q, DecodeOpts{...}) is the one decode entry.
	Decoder = core.Decoder
	// DecodeOpts says what a decode reports besides the distance: a
	// Trace, the witness walk.
	DecodeOpts = core.Opts
	// QueryResult is what Decoder.Decode answers: faults known only by id
	// (Query.DegradedVertexFaults) or whose labels fail Validate still
	// yield a safe upper bound, flagged Degraded.
	QueryResult = core.Result
	// Trace records how a query was answered (sketch sizes, the winning
	// path).
	Trace = core.Trace
	// SketchEdge is one edge of a query's sketch graph.
	SketchEdge = core.SketchEdge

	// FFScheme is the failure-free labeling scheme of Section 2.1.
	FFScheme = core.FFScheme
	// FFLabel is a failure-free distance label.
	FFLabel = core.FFLabel

	// RoutingScheme is the forbidden-set compact routing scheme.
	RoutingScheme = routing.Scheme
	// Route is the result of routing one packet.
	Route = routing.Route

	// StaticOracle is the centralized table-of-labels distance oracle.
	StaticOracle = oracle.Static
	// DynamicOracle is the fully dynamic (1+ε) distance oracle.
	DynamicOracle = oracle.Dynamic

	// DoublingEstimate is an empirical doubling-dimension measurement.
	DoublingEstimate = doubling.Estimate

	// RouteHeader is the packet header of the routing scheme (the sketch
	// path waypoints, optionally carrying a policy blob).
	RouteHeader = routing.Header

	// NetworkSimulator is the discrete-event simulation of the paper's
	// distributed failure-recovery protocol: contact discovery, flooding,
	// and immediate in-flight rerouting.
	NetworkSimulator = distsim.Simulator
	// SimConfig tunes a network simulation.
	SimConfig = distsim.Config
	// SimMetrics reports a simulation's outcomes.
	SimMetrics = distsim.Metrics
	// ChaosPlan is a seeded, reproducible fault-injection plan for a
	// network simulation (transport drop/dup/delay, router
	// crash/restart, partition/heal); set it as SimConfig.Chaos.
	ChaosPlan = faultinject.Plan

	// WeightedGraph is an integer-weighted graph, supported via the
	// subdivision reduction (the road-network extension the Applications
	// section motivates).
	WeightedGraph = wgraph.WeightedGraph
	// WeightedScheme is the forbidden-set distance labeling scheme for a
	// weighted graph.
	WeightedScheme = wgraph.Scheme
)

// NewGraphBuilder returns a builder for a graph with n vertices.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// GraphFromEdges builds a graph directly from an edge list.
func GraphFromEdges(n int, edges [][2]int) (*Graph, error) {
	return graph.FromEdges(n, edges)
}

// ReadGraph parses the text format written by Graph.WriteTo.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.Read(r) }

// NewFaultSet returns an empty forbidden set.
func NewFaultSet() *FaultSet { return graph.NewFaultSet() }

// FaultVertices builds a forbidden set from vertices only.
func FaultVertices(vs ...int) *FaultSet { return graph.FaultVertices(vs...) }

// Build preprocesses g into a forbidden-set distance labeling scheme with
// stretch 1+epsilon (Theorem 2.1).
func Build(g *Graph, epsilon float64) (*Scheme, error) {
	return core.BuildScheme(g, epsilon)
}

// BuildWithWorkers is Build with an explicit worker count for the
// preprocessing pipeline (≤ 0 means GOMAXPROCS). The net hierarchy's
// per-level greedy passes and the level store's per-net-point truncated
// BFS passes run on the pool; the resulting scheme is bit-identical for
// any worker count.
func BuildWithWorkers(g *Graph, epsilon float64, workers int) (*Scheme, error) {
	return core.BuildSchemeWorkers(g, epsilon, workers)
}

// BuildFailureFree preprocesses g into the failure-free labeling scheme of
// Section 2.1 with stretch 1+epsilon.
func BuildFailureFree(g *Graph, epsilon float64) (*FFScheme, error) {
	return core.BuildFFScheme(g, epsilon)
}

// FFDistance answers a failure-free query from two labels alone.
func FFDistance(ls, lt *FFLabel) (int64, bool) { return core.FFDistance(ls, lt) }

// DecodeLabel parses a label serialized by Label.Encode.
func DecodeLabel(buf []byte, nbits int) (*Label, error) {
	return core.DecodeLabel(buf, nbits)
}

// BuildRouting wraps a distance labeling scheme into the forbidden-set
// compact routing scheme of Theorem 2.7.
func BuildRouting(s *Scheme) *RoutingScheme { return routing.New(s) }

// BuildStaticOracle materializes the table-of-labels oracle for g: its
// size is at most n times the label length, and it answers forbidden-set
// queries for any number of faults.
func BuildStaticOracle(g *Graph, epsilon float64) (*StaticOracle, error) {
	return oracle.BuildStatic(g, epsilon)
}

// NewDynamicOracle builds a fully dynamic (1+ε)-approximate distance
// oracle over g: vertices and edges may fail and recover online.
// threshold ≤ 0 selects the default rebuild threshold of ⌈√n⌉ accumulated
// failures.
func NewDynamicOracle(g *Graph, epsilon float64, threshold int) (*DynamicOracle, error) {
	return oracle.NewDynamic(g, epsilon, threshold)
}

// NewNetworkSimulator builds a discrete-event simulation of the
// distributed failure-recovery protocol over a preprocessed scheme.
func NewNetworkSimulator(s *Scheme, cfg SimConfig) *NetworkSimulator {
	return distsim.New(s, cfg)
}

// NewChaosSimulator builds a network simulation under a fault-injection
// plan, validating the plan first. Identical (plan, workload) pairs
// replay byte-for-byte.
func NewChaosSimulator(s *Scheme, cfg SimConfig) (*NetworkSimulator, error) {
	return distsim.NewChaos(s, cfg)
}

// NewWeightedGraph returns an empty integer-weighted graph on n vertices.
func NewWeightedGraph(n int) *WeightedGraph { return wgraph.NewWeightedGraph(n) }

// BuildWeighted preprocesses a weighted graph into a forbidden-set
// distance labeling scheme via the subdivision reduction.
func BuildWeighted(w *WeightedGraph, epsilon float64) (*WeightedScheme, error) {
	return wgraph.BuildScheme(w, epsilon)
}

// SaveScheme persists a preprocessed scheme to w, so the expensive
// preprocessing runs once and the scheme reopens instantly with LoadScheme.
func SaveScheme(w io.Writer, s *Scheme) error { return core.SaveScheme(w, s) }

// LoadScheme reopens a scheme persisted by SaveScheme.
func LoadScheme(r io.Reader) (*Scheme, error) { return core.LoadScheme(r) }

// DecodeRouteHeader parses a header serialized by RouteHeader.Encode.
func DecodeRouteHeader(buf []byte, nbits int) (*RouteHeader, error) {
	return routing.DecodeHeader(buf, nbits)
}

// EstimateDoublingDimension measures the empirical doubling dimension of g
// by greedy ball covering from the given number of sampled centers.
func EstimateDoublingDimension(g *Graph, centers int, rng *rand.Rand) DoublingEstimate {
	return doubling.EstimateDimension(g, centers, rng)
}

// Graph generators for the workload families used throughout the paper's
// setting (bounded doubling dimension) and the experiments.
var (
	// PathGraph returns the n-vertex path P_n (doubling dimension 1).
	PathGraph = gen.Path
	// GridGraph2D returns the w×h grid (doubling dimension ≈ 2).
	GridGraph2D = gen.Grid2D
	// GridGraph returns the d-dimensional grid with the given side
	// lengths (doubling dimension Θ(d)).
	GridGraph = gen.Grid
	// CycleGraph returns the n-vertex cycle.
	CycleGraph = gen.Cycle
	// TorusGraph2D returns the w×h torus.
	TorusGraph2D = gen.Torus2D
	// RandomGeometricGraph returns a connected random geometric graph
	// (the canonical random low-doubling-dimension family) plus its
	// point coordinates.
	RandomGeometricGraph = gen.RandomGeometric
	// RoadNetworkGraph returns a perturbed grid mimicking a road network.
	RoadNetworkGraph = gen.RoadNetwork
	// RandomTreeGraph returns a random recursive tree.
	RandomTreeGraph = gen.RandomTree
)
