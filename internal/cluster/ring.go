package cluster

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Node is one shard in the cluster membership. Name is the stable
// identity that positions the node on the ring (and names its partition
// file); Addr is where its ShardServer listens. Renaming a node moves
// its ring slice; re-addressing it does not.
type Node struct {
	Name string
	Addr string
}

// Membership is the static cluster topology: the shard nodes and the
// replication factor R every vertex's label is stored under. The same
// file drives `fsdl partition` (which shards must hold which labels)
// and the frontend (where to fetch them), so the two can never disagree
// about ownership.
//
// The file format is line-oriented text:
//
//	# comment
//	replication 2
//	shard0 127.0.0.1:9000
//	shard1 127.0.0.1:9001
//	shard2 127.0.0.1:9002
//
// The replication directive is optional (default 1) and must appear
// before the first node line.
type Membership struct {
	Replication int
	Nodes       []Node
}

// ParseMembership reads the membership text format.
func ParseMembership(r io.Reader) (*Membership, error) {
	m := &Membership{Replication: 1}
	seen := make(map[string]bool)
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if fields[0] == "replication" {
			if len(m.Nodes) > 0 {
				return nil, fmt.Errorf("cluster: membership line %d: replication directive must precede node lines", line)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("cluster: membership line %d: want `replication N`", line)
			}
			r, err := strconv.Atoi(fields[1])
			if err != nil || r < 1 {
				return nil, fmt.Errorf("cluster: membership line %d: bad replication %q", line, fields[1])
			}
			m.Replication = r
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("cluster: membership line %d: want `name addr`, got %q", line, text)
		}
		name, addr := fields[0], fields[1]
		if seen[name] {
			return nil, fmt.Errorf("cluster: membership line %d: duplicate node name %q", line, name)
		}
		seen[name] = true
		m.Nodes = append(m.Nodes, Node{Name: name, Addr: addr})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("cluster: read membership: %w", err)
	}
	if len(m.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: membership has no nodes")
	}
	if m.Replication > len(m.Nodes) {
		return nil, fmt.Errorf("cluster: replication %d exceeds node count %d", m.Replication, len(m.Nodes))
	}
	return m, nil
}

// LoadMembership reads a membership file from disk.
func LoadMembership(path string) (*Membership, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseMembership(f)
}

// Ring returns the consistent-hash ring for this membership.
func (m *Membership) Ring() *Ring {
	return NewRing(m.Nodes, m.Replication)
}

// VirtualNodes is how many ring points each shard contributes. More
// points smooth the partition sizes (the expected imbalance shrinks
// like 1/√points); 64 keeps the worst shard within a few percent of
// fair share while the ring stays small enough to rebuild instantly.
const VirtualNodes = 64

// Ring is a consistent-hash ring mapping vertex ids to the R shard
// nodes owning their label. Construction is deterministic in the node
// *names* only, so ownership survives address changes and is identical
// at partition time and at serve time. Immutable after construction.
type Ring struct {
	nodes       []Node
	points      []ringPoint // sorted by hash, ties broken by node index
	replication int
}

type ringPoint struct {
	hash uint64
	node int32 // index into nodes
}

// NewRing builds the ring. replication is clamped to [1, len(nodes)].
func NewRing(nodes []Node, replication int) *Ring {
	if replication < 1 {
		replication = 1
	}
	if replication > len(nodes) {
		replication = len(nodes)
	}
	rg := &Ring{
		nodes:       slices.Clone(nodes),
		points:      make([]ringPoint, 0, len(nodes)*VirtualNodes),
		replication: replication,
	}
	for i, nd := range rg.nodes {
		for j := 0; j < VirtualNodes; j++ {
			rg.points = append(rg.points, ringPoint{
				hash: hashString(nd.Name + "#" + strconv.Itoa(j)),
				node: int32(i),
			})
		}
	}
	slices.SortFunc(rg.points, func(a, b ringPoint) int {
		if a.hash != b.hash {
			if a.hash < b.hash {
				return -1
			}
			return 1
		}
		return int(a.node) - int(b.node)
	})
	return rg
}

// Nodes returns the membership the ring was built from (shared; do not
// mutate).
func (rg *Ring) Nodes() []Node { return rg.nodes }

// Replication returns the effective replication factor.
func (rg *Ring) Replication() int { return rg.replication }

// Owners appends to dst the indices (into Nodes) of the R distinct
// shards owning vertex v's label, primary first, and returns the
// extended slice. The walk order is the failover/hedging order: replica
// k is consulted only when replicas 0..k-1 are slow or down.
func (rg *Ring) Owners(v int32, dst []int) []int {
	start := sort.Search(len(rg.points), func(i int) bool {
		return rg.points[i].hash >= vertexHash(v)
	})
	base := len(dst)
	for i := 0; i < len(rg.points) && len(dst)-base < rg.replication; i++ {
		nd := int(rg.points[(start+i)%len(rg.points)].node)
		if !slices.Contains(dst[base:], nd) {
			dst = append(dst, nd)
		}
	}
	return dst
}

// Primary returns the index of the first-choice owner of vertex v.
func (rg *Ring) Primary(v int32) int {
	start := sort.Search(len(rg.points), func(i int) bool {
		return rg.points[i].hash >= vertexHash(v)
	})
	return int(rg.points[start%len(rg.points)].node)
}

// Partition returns, for each node, the sorted vertex ids in [0, n)
// whose labels that node must hold (as primary or replica) — the work
// order for `fsdl partition`.
func (rg *Ring) Partition(n int) [][]int {
	out := make([][]int, len(rg.nodes))
	owners := make([]int, 0, rg.replication)
	for v := 0; v < n; v++ {
		owners = rg.Owners(int32(v), owners[:0])
		for _, nd := range owners {
			out[nd] = append(out[nd], v)
		}
	}
	return out
}

// PartitionByName is Partition keyed by node name.
func (rg *Ring) PartitionByName(n int) map[string][]int {
	out := make(map[string][]int, len(rg.nodes))
	for i, ids := range rg.Partition(n) {
		out[rg.nodes[i].Name] = ids
	}
	return out
}

// hashString is FNV-1a, the ring-point hash. Stable across processes
// and Go versions by construction.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// vertexHash spreads vertex ids over the ring with a full-avalanche
// mix (splitmix64 finalizer): sequential ids land on unrelated points,
// so contiguous graph regions spread across shards instead of
// hot-spotting one.
func vertexHash(v int32) uint64 {
	x := uint64(uint32(v)) + 0x9e3779b97f4a7c15
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
