package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"fsdl/internal/cluster"
	"fsdl/internal/core"
	"fsdl/internal/gen"
	"fsdl/internal/labelstore"
	"fsdl/internal/liveupdate"
	"fsdl/internal/server"
)

// family is one metric family as /metrics announces it.
type family struct{ name, typ, help string }

var (
	helpLine = regexp.MustCompile(`(?m)^# HELP (fsdl_\w+) (.*)\n# TYPE (fsdl_\w+) (\w+)$`)
	docRow   = regexp.MustCompile("(?m)^\\| `(fsdl_\\w+)` \\| (\\w+) \\| (.*) \\|$")
)

// families lists the families an exposition announces.
func families(t *testing.T, exposition string) map[family]bool {
	t.Helper()
	out := make(map[family]bool)
	for _, m := range helpLine.FindAllStringSubmatch(exposition, -1) {
		if m[1] != m[3] {
			t.Fatalf("HELP for %s is followed by TYPE for %s", m[1], m[3])
		}
		out[family{m[1], m[4], m[2]}] = true
	}
	if len(out) == 0 {
		t.Fatal("exposition announces no fsdl_ family")
	}
	return out
}

// testStore builds the labels of a small grid and loads them back.
func testStore(t *testing.T) (*labelstore.Store, *core.Scheme) {
	t.Helper()
	s, err := core.BuildScheme(gen.Grid2D(4, 4), 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := labelstore.Save(&buf, s, nil); err != nil {
		t.Fatal(err)
	}
	st, err := labelstore.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return st, s
}

// TestMetricsTablesMatchExposition keeps the metrics tables of
// docs/SERVER.md, docs/LIVE.md and docs/CLUSTER.md equal — name, type
// and help text, both ways — to what fsdl-serve's three set-ups emit:
// a local store, a local store with a live pipeline (LIVE.md lists what
// the pipeline adds), and a 2-shard frontend with breakers, retry
// budget and repair on (CLUSTER.md lists what the frontend writes). A
// metric added, dropped, retyped or reworded in the code fails here
// until the table follows; the row to paste is in the failure.
func TestMetricsTablesMatchExposition(t *testing.T) {
	st, scheme := testStore(t)
	local, err := server.New(server.Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	localFams := families(t, local.Metrics())

	p, err := liveupdate.Open(liveupdate.Config{Base: scheme.Graph()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	live, err := server.New(server.Config{Store: st, Live: p, LiveRoot: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	liveFams := families(t, live.Metrics())
	for f := range localFams {
		delete(liveFams, f)
	}

	members := &cluster.Membership{Replication: 2}
	for i := 0; i < 2; i++ {
		srv, err := cluster.NewShardServer(cluster.ShardConfig{Store: st, Name: fmt.Sprintf("shard%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		defer srv.Close()
		members.Nodes = append(members.Nodes, cluster.Node{Name: fmt.Sprintf("shard%d", i), Addr: ln.Addr().String()})
	}
	fe, err := cluster.NewFrontend(cluster.FrontendConfig{Membership: members, RepairInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	var sb strings.Builder
	fe.WriteMetrics(&sb)

	for _, tc := range []struct {
		doc  string
		want map[family]bool
	}{
		{"SERVER.md", localFams},
		{"LIVE.md", liveFams},
		{"CLUSTER.md", families(t, sb.String())},
	} {
		text, err := os.ReadFile(filepath.Join("..", "..", "docs", tc.doc))
		if err != nil {
			t.Fatal(err)
		}
		listed := make(map[family]bool)
		for _, m := range docRow.FindAllStringSubmatch(string(text), -1) {
			listed[family{m[1], m[2], m[3]}] = true
		}
		for f := range tc.want {
			if !listed[f] {
				t.Errorf("docs/%s lacks the row  | `%s` | %s | %s |", tc.doc, f.name, f.typ, f.help)
			}
		}
		for f := range listed {
			if !tc.want[f] {
				t.Errorf("docs/%s lists `%s` (%s, %q), which the code does not emit that way", tc.doc, f.name, f.typ, f.help)
			}
		}
	}
}
