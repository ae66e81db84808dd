package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"fsdl/internal/cluster"
	"fsdl/internal/core"
	"fsdl/internal/graph"
	"fsdl/internal/labelstore"
	"fsdl/internal/liveupdate"
	"fsdl/internal/nets"
	"fsdl/internal/server"
)

// epsilon is the shipped default of fsdl-serve (-eps 2): stretch ≤ 3.
const epsilon = 2

// clients is the closed loop's width: one per core of the 2-core box
// the benchmark is sized for, each on its own keep-alive connection.
const clients = 2

var shardNames = []string{"shard0", "shard1", "shard2"}

// artifacts is what the offline half of set-up leaves on disk: the
// graph, the scheme and the label container(s).
type artifacts struct {
	g          *graph.Graph
	scheme     *core.Scheme
	storePath  string
	storeBytes int64
	partPaths  []string // cluster only, one per shardNames entry

	// stage timings, reported by the traced run
	tScheme, tSave, tPartition time.Duration
}

func (a *artifacts) bytesPerVertex() float64 {
	return float64(a.storeBytes) / float64(a.g.NumVertices())
}

// build runs the offline pipeline for w into dir.
func build(w *workload, dir string, tiny bool) (*artifacts, error) {
	g, err := w.graph(tiny)
	if err != nil {
		return nil, fmt.Errorf("generate graph: %w", err)
	}
	a := &artifacts{g: g, storePath: filepath.Join(dir, "labels.fsdl")}
	t0 := time.Now()
	if a.scheme, err = core.BuildSchemeWorkers(g, epsilon, 0); err != nil {
		return nil, err
	}
	a.tScheme = time.Since(t0)

	t0 = time.Now()
	err = writeFile(a.storePath, func(f *os.File) error {
		if w.kind == deployHeap {
			return labelstore.Save(f, a.scheme, nil)
		}
		return labelstore.SaveFormat3(f, a.scheme, nil, true)
	})
	if err != nil {
		return nil, fmt.Errorf("write label container: %w", err)
	}
	a.tSave = time.Since(t0)
	fi, err := os.Stat(a.storePath)
	if err != nil {
		return nil, err
	}
	a.storeBytes = fi.Size()

	if w.kind == deployCluster {
		t0 = time.Now()
		full, err := labelstore.Open(a.storePath)
		if err != nil {
			return nil, err
		}
		defer full.Close()
		parts := membership(nil).Ring().Partition(g.NumVertices())
		for i, name := range shardNames {
			path := filepath.Join(dir, name+".fsdl")
			err := writeFile(path, func(f *os.File) error {
				return full.SaveVerticesFormat3(f, parts[i], true)
			})
			if err != nil {
				return nil, fmt.Errorf("write partition %s: %w", name, err)
			}
			a.partPaths = append(a.partPaths, path)
		}
		a.tPartition = time.Since(t0)
	}
	return a, nil
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// membership is the 3-shard, replication-2 ring; addrs may be nil when
// only ownership (not routing) is needed.
func membership(addrs []string) *cluster.Membership {
	m := &cluster.Membership{Replication: 2}
	for i, name := range shardNames {
		nd := cluster.Node{Name: name}
		if addrs != nil {
			nd.Addr = addrs[i]
		}
		m.Nodes = append(m.Nodes, nd)
	}
	return m
}

// shardSet is the running shard tier of a cluster deployment.
type shardSet struct {
	servers []*cluster.ShardServer
	stores  []*labelstore.Store
	addrs   []string
}

// startShards serves each partition file from its own ShardServer on a
// loopback TCP port, mmap-backed as `fsdl-shard -mmap` would.
func startShards(a *artifacts) (*shardSet, error) {
	ss := &shardSet{}
	for i, name := range shardNames {
		st, err := labelstore.Open(a.partPaths[i])
		if err != nil {
			ss.close()
			return nil, err
		}
		ss.stores = append(ss.stores, st)
		srv, err := cluster.NewShardServer(cluster.ShardConfig{Store: st, Name: name, Mmap: true, PersistFormat3: true})
		if err != nil {
			ss.close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			ss.close()
			return nil, err
		}
		ss.servers = append(ss.servers, srv)
		ss.addrs = append(ss.addrs, ln.Addr().String())
		go srv.Serve(ln) // returns nil on Close; ShardServer.Close waits for it to drain
	}
	return ss, nil
}

func (ss *shardSet) close() {
	if ss == nil {
		return
	}
	for _, s := range ss.servers {
		s.Close()
	}
	for _, st := range ss.stores {
		st.Close()
	}
}

// source is the label-serving half of a deployment: exactly one of
// store / fe is set; live rides beside store on the live workload.
type source struct {
	store    *labelstore.Store
	fe       *cluster.Frontend
	live     *liveupdate.Pipeline
	liveRoot string
}

// openSource opens a fresh handle on the labels — its own caches, its
// own connections — the way fsdl-serve would for w's deployment.
func openSource(w *workload, a *artifacts, ss *shardSet, dir string) (*source, error) {
	n := a.g.NumVertices()
	src := &source{}
	switch w.kind {
	case deployHeap:
		f, err := os.Open(a.storePath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if src.store, err = labelstore.Load(f); err != nil {
			return nil, err
		}
	case deployMmap, deployLive:
		st, err := labelstore.Open(a.storePath)
		if err != nil {
			return nil, err
		}
		src.store = st
	case deployCluster:
		fe, err := cluster.NewFrontend(cluster.FrontendConfig{
			Membership:     membership(ss.addrs),
			FetchTimeout:   500 * time.Millisecond, // fsdl-serve -fetch-timeout
			RepairInterval: 0,
			LabelCacheSize: n / w.cacheDiv,
		})
		if err != nil {
			return nil, err
		}
		src.fe = fe
	}
	if w.cacheDiv > 0 && src.store != nil {
		src.store.SetDecodedCacheCapacity(n / w.cacheDiv)
	}
	if w.kind == deployLive {
		src.liveRoot = dir
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		p, err := liveupdate.Open(liveupdate.Config{Base: a.g, WALPath: filepath.Join(dir, "mutations.wal")})
		if err != nil {
			return nil, err
		}
		src.live = p
	}
	return src, nil
}

func (s *source) close() {
	if s.fe != nil {
		s.fe.Close()
	}
	if s.live != nil {
		s.live.Close()
	}
	// A live store may have been swapped out by a compaction and still be
	// the splice base of the next one; its mapping is left to the
	// finalizer.
	if s.store != nil && s.live == nil {
		s.store.Close()
	}
}

// serverConfig is fsdl-serve's configuration for src, all defaults
// (result cache 4096, workers = GOMAXPROCS, 5 s deadline).
func serverConfig(src *source) server.Config {
	cfg := server.Config{Epsilon: epsilon}
	if src.fe != nil {
		cfg.Source = src.fe
	} else {
		cfg.Store = src.store
	}
	if src.live != nil {
		cfg.Live, cfg.LiveRoot = src.live, src.liveRoot
		cfg.CompactFormat, cfg.CompactCompress = 3, true // fsdl-serve -compress
	}
	return cfg
}

// deployment is a booted server: a source, the Server over it and, when
// booted with a listener, its HTTP edge on a loopback port.
type deployment struct {
	*source
	srv     *server.Server
	httpSrv *http.Server
	url     string
	client  *http.Client
}

// boot opens a source for w and starts a Server over it. With listen
// set the server's handler is put behind net/http on 127.0.0.1:0 and
// boot returns once /healthz answers.
func boot(w *workload, a *artifacts, ss *shardSet, dir string, listen bool) (*deployment, error) {
	src, err := openSource(w, a, ss, dir)
	if err != nil {
		return nil, err
	}
	d := &deployment{source: src}
	if d.srv, err = server.New(serverConfig(src)); err != nil {
		src.close()
		return nil, err
	}
	if !listen {
		return d, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		src.close()
		return nil, err
	}
	d.httpSrv = &http.Server{Handler: d.srv.Handler()}
	go d.httpSrv.Serve(ln) // ends with ErrServerClosed at Shutdown, which close() waits on
	d.url = "http://" + ln.Addr().String()
	d.client = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: clients + 1,
			DisableCompression:  true,
		},
	}
	resp, err := d.client.Get(d.url + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		d.close()
		return nil, fmt.Errorf("deployment not healthy: %w", err)
	}
	return d, nil
}

func (d *deployment) close() {
	if d.httpSrv != nil {
		d.client.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		d.httpSrv.Shutdown(ctx)
		cancel()
	}
	d.source.close()
}

// netPoints counts the net hierarchy's points over all levels.
func netPoints(h *nets.Hierarchy) int {
	total := 0
	for i := 0; i <= h.MaxLevel(); i++ {
		total += len(h.Level(i))
	}
	return total
}
