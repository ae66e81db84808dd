package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fsdl/internal/cluster"
	"fsdl/internal/core"
	"fsdl/internal/frame"
	"fsdl/internal/gen"
	"fsdl/internal/labelstore"
	"fsdl/internal/liveupdate"
)

// This file holds what a compaction and the scrape surfaces take from
// what the server serves rather than from its Config: the precision of
// the labels, the salvage state of the store and the partitions of the
// ring.

// toggle mutates edge (0,1) away and back on alternate calls, so every
// compaction has a delta to bake.
func toggle(t *testing.T, s *Server) {
	t.Helper()
	op := liveupdate.MutDelete
	if s.live.Generation()%2 == 0 {
		op = liveupdate.MutInsert
	}
	if _, err := s.Mutate([]liveupdate.Mutation{{Op: op, U: 0, V: 1}}); err != nil {
		t.Fatal(err)
	}
}

// newTestFrontend is a frontend over lc that repairs nothing, so what a
// shard holds is what the last swap loaded.
func newTestFrontend(t *testing.T, lc *liveCluster) *cluster.Frontend {
	t.Helper()
	fe, err := cluster.NewFrontend(cluster.FrontendConfig{
		Membership:     lc.membership,
		StartupTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fe.Close() })
	return fe
}

// TestCompactKeepsLabelEpsilon: a compaction builds at the precision of
// the labels served — a local store's or a cluster's, the first
// compaction taking it from a label, the incremental one after from the
// retained scheme — and writes the bytes a build at that ε writes; a
// Config.Epsilon set to another value selects nothing. Labels store
// ⌊ε·2¹⁶⌋/2¹⁶, 0.3 becomes 0.29998779296875, and the build at that is the
// build at 0.3.
func TestCompactKeepsLabelEpsilon(t *testing.T) {
	g := gen.Grid2D(6, 6)
	for _, tc := range []struct {
		name    string
		cluster bool
		eps     float64
		cfgEps  float64 // Config.Epsilon
	}{
		{"local", false, 1, 0},
		{"cluster", true, 1, 0},
		{"local at 0.3", false, 0.3, 0},
		{"local, Config.Epsilon 2", false, 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, root := storeOf(t, g, tc.eps), t.TempDir()
			cfg := Config{Store: st, CacheCapacity: -1}
			if tc.cluster {
				cfg = Config{Source: newTestFrontend(t, startLiveCluster(t, st, 3, 2, root)), CacheCapacity: -1}
			}
			p, err := liveupdate.Open(liveupdate.Config{Base: g})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Live, cfg.LiveRoot, cfg.Epsilon = p, root, tc.cfgEps
			s := newTestServer(t, cfg)
			for i, incremental := range []bool{false, true} {
				toggle(t, s)
				res, err := s.Compact()
				if err != nil || res.Incremental != incremental {
					t.Fatalf("compaction %d: %+v, %v; want incremental=%v", i, res, err, incremental)
				}
				base, err := liveupdate.LoadGenerationBase(res.Dir)
				if err != nil {
					t.Fatal(err)
				}
				scheme, err := core.BuildScheme(base, tc.eps)
				if err != nil {
					t.Fatal(err)
				}
				f, err := os.Create(filepath.Join(t.TempDir(), "want.fsdl"))
				if err != nil {
					t.Fatal(err)
				}
				err = labelstore.Write(f, labelstore.FromScheme(scheme), nil)
				f.Close()
				if err != nil {
					t.Fatal(err)
				}
				want, err := os.ReadFile(f.Name())
				if err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(filepath.Join(res.Dir, liveupdate.LabelsFileName))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("compaction %d wrote %d bytes of labels that a build at eps %g does not (%d bytes)", i, len(got), tc.eps, len(want))
				}
			}
		})
	}
}

// TestSalvageFollowsServedStore: the salvage gauges and /v1/state report
// the store served now. A salvaged store reports what it lost until a
// compaction swaps a complete generation in, and then nothing.
func TestSalvageFollowsServedStore(t *testing.T) {
	g, st := testStore(t, 6, 6, 2)
	p, err := liveupdate.Open(liveupdate.Config{Base: g})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Store: salvagedCopy(t, st, 3, 0), Live: p, LiveRoot: t.TempDir()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return body
	}
	check := func(when string, total, kept, corrupt int) {
		t.Helper()
		metrics := string(get("/metrics"))
		for name, want := range map[string]int{"total": total, "kept": kept, "corrupt": corrupt} {
			if line := fmt.Sprintf("\nfsdl_salvage_records_%s %d\n", name, want); !strings.Contains(metrics, line) {
				t.Errorf("%s: /metrics lacks %q", when, strings.TrimSpace(line))
			}
		}
		var state State
		if err := json.Unmarshal(get("/v1/state"), &state); err != nil {
			t.Fatal(err)
		}
		if state.SalvageTotal != total || state.SalvageKept != kept {
			t.Errorf("%s: /v1/state salvage %d/%d, want %d/%d", when, state.SalvageKept, state.SalvageTotal, kept, total)
		}
	}
	check("salvaged at boot", 36, 35, 1)
	toggle(t, s)
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	check("after the swap to a complete generation", 0, 0, 0)
}

// shardCall sends one frame to the shard at addr and returns the answer.
func shardCall(t *testing.T, addr string, op byte, payload []byte) (byte, []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := frame.Write(conn, op, payload); err != nil {
		t.Fatal(err)
	}
	rop, resp, err := frame.Read(conn)
	if err != nil {
		t.Fatal(err)
	}
	return rop, resp
}

// TestCompactPartitionsFollowRing: a compaction writes the partitions of
// the ring routed at the time, so after a leave and after a join every
// owner holds its whole share the moment the swap lands — with repair
// off, nothing else could have filled it in — and a joined shard loads a
// partition file of its own rather than the whole generation.
func TestCompactPartitionsFollowRing(t *testing.T) {
	g := gen.Grid2D(6, 6)
	n := g.NumVertices()
	full, root := storeOf(t, g, 2), t.TempDir()
	lc := startLiveCluster(t, full, 3, 2, root)
	fe := newTestFrontend(t, lc)
	p, err := liveupdate.Open(liveupdate.Config{Base: g})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Source: fe, Live: p, LiveRoot: root, CacheCapacity: -1})
	compact := func() CompactResult {
		t.Helper()
		toggle(t, s)
		res, err := s.Compact()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// clean holds generation res to a partition file per owner of the ring
	// over nodes, of the ids that ring gives it, and audits every owner
	// against those ids.
	clean := func(when string, res CompactResult, nodes []cluster.Node) {
		t.Helper()
		m, err := labelstore.ReadManifestDir(res.Dir)
		if err != nil {
			t.Fatal(err)
		}
		for i, ids := range cluster.NewRing(nodes, 2).Partition(n) {
			if f := m.File(nodes[i].Name + ".fsdl"); f == nil || f.Records != len(ids) {
				t.Errorf("%s: generation %d lists %s.fsdl as %+v, want %d records", when, res.Generation, nodes[i].Name, f, len(ids))
			}
			req := make([]int32, len(ids))
			for j, v := range ids {
				req[j] = int32(v)
			}
			op, resp := shardCall(t, nodes[i].Addr, cluster.OpAudit, cluster.AppendLabelRequest(nil, req))
			if op != cluster.OpAuditResp {
				t.Fatalf("%s: %s answered the audit with op %d: %s", when, nodes[i].Name, op, resp)
			}
			if _, missing, err := cluster.ParseAuditResponse(resp); err != nil || len(missing) > 0 {
				t.Errorf("%s: %s lacks %d of the %d labels it owns (%v)", when, nodes[i].Name, len(missing), len(ids), err)
			}
		}
	}

	if _, err := fe.Leave("shard2"); err != nil {
		t.Fatal(err)
	}
	clean("after shard2 left", compact(), lc.membership.Nodes[:2])

	joined, err := cluster.NewShardServer(cluster.ShardConfig{Store: full, Name: "shard3", GenerationRoot: root})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go joined.Serve(ln)
	defer joined.Close()
	if _, err := fe.Join("shard3", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	res := compact()
	nodes := append(lc.membership.Nodes[:2:2], cluster.Node{Name: "shard3", Addr: ln.Addr().String()})
	clean("after shard3 joined", res, nodes)
	share := len(cluster.NewRing(nodes, 2).Partition(n)[2])
	op, resp := shardCall(t, ln.Addr().String(), cluster.OpPing, nil)
	if op != cluster.OpPong {
		t.Fatalf("shard3 answered a ping with op %d", op)
	}
	if _, labels, _, gen, err := cluster.ParsePong(resp); err != nil || gen != res.Generation || labels != share {
		t.Fatalf("shard3 serves %d labels of generation %d (%v), want its %d of generation %d", labels, gen, err, share, res.Generation)
	}
}
