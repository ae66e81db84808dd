package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"fsdl/internal/core"
	"fsdl/internal/graph"
	"fsdl/internal/liveupdate"
)

// HTTP/JSON API:
//
//	POST /v1/distance        {"s","t","fail","failedge","budget","deadline_ms","path"} → Answer
//	POST /v1/connected       same request → Answer (read the "connected" bit)
//	POST /v1/batch-distance  {"pairs":[[s,t],...], "fail",...}                 → {"answers":[Answer,...]}
//	POST /v1/fail            {"vertices":[...], "edges":[[u,v],...]}           → State
//	POST /v1/recover         same                                              → State
//	POST /v1/mutate          {"mutations":[{"op":"insert","u":..,"v":..},...]} → MutateState
//	POST /v1/compact         optional {"mode":"auto"|"full"|"incremental"}     → CompactResult
//	GET  /v1/state                                                             → State
//	GET  /healthz                                                              → {"status":"ok"}
//	GET  /metrics                                                              → Prometheus text
//
// When the label source is a cluster frontend, membership admin rides
// the same mux (404 against a local store):
//
//	GET  /v1/cluster/status                                → cluster.ClusterStatus
//	POST /v1/cluster/join   {"name","addr"}                → {"epoch":N}
//	POST /v1/cluster/leave  {"name"}                       → {"epoch":N}
//	POST /v1/cluster/drain  {"name","drain":true|false}    → {"epoch":N}
//
// Errors are {"error": "..."} with 400 (malformed request, vertex out
// of range), 404 (endpoint label authoritatively absent), 429 (queue
// full), or 503 (deadline expired while queued, or an endpoint label the
// source can neither serve nor vouch absent: replicas down, a damaged
// record, one an incomplete store lacks).

// Per-request size caps. Each pair and each fault fans out into label
// fetches (against a cluster source, shard RPCs), so unbounded requests
// could drive arbitrarily large scatter-gathers and response frames;
// past these limits the request is rejected with 400 instead.
const (
	maxBatchPairs    = 4096
	maxRequestFaults = 4096
)

// queryRequest is the wire form of a distance/connected/batch request.
type queryRequest struct {
	S     int      `json:"s"`
	T     int      `json:"t"`
	Pairs [][2]int `json:"pairs"` // batch-distance only
	// Fail/FailEdge are per-request faults, unioned with the overlay.
	Fail     []int    `json:"fail"`
	FailEdge [][2]int `json:"failedge"`
	// Budget caps decode work (0 = server default, <0 = unlimited).
	Budget int `json:"budget"`
	// DeadlineMS overrides the server's default request deadline.
	DeadlineMS int `json:"deadline_ms"`
	// Path asks for the witness walk in every connected answer.
	Path bool `json:"path"`
}

func (r *queryRequest) validate() error {
	if len(r.Pairs) > maxBatchPairs {
		return fmt.Errorf("batch-distance: %d pairs exceeds the per-request limit of %d", len(r.Pairs), maxBatchPairs)
	}
	if nf := len(r.Fail) + len(r.FailEdge); nf > maxRequestFaults {
		return fmt.Errorf("request names %d faults, limit is %d", nf, maxRequestFaults)
	}
	return nil
}

func (r *queryRequest) options() *QueryOptions {
	f := graph.NewFaultSet()
	for _, v := range r.Fail {
		f.AddVertex(v)
	}
	for _, e := range r.FailEdge {
		f.AddEdge(e[0], e[1])
	}
	return &QueryOptions{Faults: f, Budget: r.Budget, Path: r.Path}
}

// updateRequest is the wire form of fail/recover.
type updateRequest struct {
	Vertices []int    `json:"vertices"`
	Edges    [][2]int `json:"edges"`
}

// Handler returns the server's HTTP mux, suitable for http.Server or
// httptest.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/distance", s.instrument("distance", s.handleQuery(false)))
	mux.HandleFunc("/v1/connected", s.instrument("connected", s.handleQuery(false)))
	mux.HandleFunc("/v1/batch-distance", s.instrument("batch_distance", s.handleQuery(true)))
	mux.HandleFunc("/v1/fail", s.instrument("fail", s.handleUpdate(true)))
	mux.HandleFunc("/v1/recover", s.instrument("recover", s.handleUpdate(false)))
	mux.HandleFunc("/v1/mutate", s.instrument("mutate", s.handleMutate))
	mux.HandleFunc("/v1/compact", s.instrument("compact", s.handleCompact))
	mux.HandleFunc("/v1/state", s.instrument("state", s.handleState))
	mux.HandleFunc("/v1/cluster/status", s.handleClusterStatus)
	mux.HandleFunc("/v1/cluster/join", s.instrument("cluster_join", s.handleClusterMembership("join")))
	mux.HandleFunc("/v1/cluster/leave", s.instrument("cluster_leave", s.handleClusterMembership("leave")))
	mux.HandleFunc("/v1/cluster/drain", s.instrument("cluster_drain", s.handleClusterMembership("drain")))
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// membershipRequest is the wire form of join/leave/drain.
type membershipRequest struct {
	Name  string `json:"name"`
	Addr  string `json:"addr,omitempty"`
	Drain *bool  `json:"drain,omitempty"`
}

func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	st := s.src.StatusJSON()
	if st == nil {
		s.writeError(w, errNotCluster)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleClusterMembership(op string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req membershipRequest
		if err := decodeBody(r, &req); err != nil {
			s.writeError(w, err)
			return
		}
		if req.Name == "" {
			s.writeError(w, fmt.Errorf("cluster %s: shard name is required", op))
			return
		}
		var epoch uint64
		var err error
		switch op {
		case "join":
			if req.Addr == "" {
				s.writeError(w, fmt.Errorf("cluster join: shard addr is required"))
				return
			}
			epoch, err = s.src.Join(req.Name, req.Addr)
		case "leave":
			epoch, err = s.src.Leave(req.Name)
		default: // drain
			drain := true
			if req.Drain != nil {
				drain = *req.Drain
			}
			epoch, err = s.src.Drain(req.Name, drain)
		}
		if err != nil {
			s.writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]uint64{"epoch": epoch})
	}
}

// instrument counts the request and observes its latency.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.met.request(endpoint)
		start := time.Now()
		h(w, r)
		s.met.latency.Observe(time.Since(start).Seconds())
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrOverloaded):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrCompacting):
		status = http.StatusConflict
	case errors.Is(err, ErrDeadline), errors.Is(err, context.DeadlineExceeded),
		errors.As(err, new(labelUnavailable)):
		status = http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled):
		// The client already hung up; the status is a formality.
		status = http.StatusServiceUnavailable
	case errors.Is(err, core.ErrNoLabel), errors.Is(err, errNotCluster):
		status = http.StatusNotFound
	}
	s.met.errors.Add(1)
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func decodeBody(r *http.Request, v any) error {
	if r.Method != http.MethodPost {
		return fmt.Errorf("use POST")
	}
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// handleQuery serves one pair (s, t) — /v1/distance and /v1/connected —
// or, with batch, the request's pairs (/v1/batch-distance). A single
// pair's own error is the response's status; a batch carries each
// pair's in its answer.
func (s *Server) handleQuery(batch bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req queryRequest
		if err := decodeBody(r, &req); err != nil {
			s.writeError(w, err)
			return
		}
		if batch && len(req.Pairs) == 0 {
			s.writeError(w, fmt.Errorf("batch-distance: empty pairs"))
			return
		}
		if err := req.validate(); err != nil {
			s.writeError(w, err)
			return
		}
		ctx := r.Context()
		if req.DeadlineMS > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMS)*time.Millisecond)
			defer cancel()
		}
		pairs := req.Pairs
		if !batch {
			pairs = [][2]int{{req.S, req.T}}
		}
		answers, err := s.AnswerPairs(ctx, pairs, req.options())
		switch {
		case err != nil:
			s.writeError(w, err)
		case batch:
			writeJSON(w, http.StatusOK, map[string]any{"answers": answers})
		case answers[0].err != nil:
			s.writeError(w, answers[0].err)
		default:
			writeJSON(w, http.StatusOK, answers[0])
		}
	}
}

func (s *Server) handleUpdate(fail bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req updateRequest
		if err := decodeBody(r, &req); err != nil {
			s.writeError(w, err)
			return
		}
		var err error
		if fail {
			err = s.Fail(req.Vertices, req.Edges)
		} else {
			err = s.Recover(req.Vertices, req.Edges)
		}
		if err != nil {
			s.writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, s.Snapshot())
	}
}

// mutateRequest is the wire form of /v1/mutate: an ordered mutation
// batch, applied atomically (order matters — a batch may delete an
// edge it just inserted).
type mutateRequest struct {
	Mutations []struct {
		Op string `json:"op"` // "insert" or "delete"
		U  int    `json:"u"`
		V  int    `json:"v"`
	} `json:"mutations"`
}

// maxMutations bounds a mutation batch; like the query caps above, it
// keeps one request from holding the pipeline's write lock (and one
// WAL fsync) for an unbounded stretch.
const maxMutations = 4096

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	var req mutateRequest
	if err := decodeBody(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if len(req.Mutations) == 0 {
		s.writeError(w, fmt.Errorf("mutate: empty batch"))
		return
	}
	if len(req.Mutations) > maxMutations {
		s.writeError(w, fmt.Errorf("mutate: %d mutations exceeds the per-request limit of %d", len(req.Mutations), maxMutations))
		return
	}
	muts := make([]liveupdate.Mutation, len(req.Mutations))
	for i, m := range req.Mutations {
		var op liveupdate.MutOp
		switch m.Op {
		case "insert":
			op = liveupdate.MutInsert
		case "delete":
			op = liveupdate.MutDelete
		default:
			s.writeError(w, fmt.Errorf("mutate: mutation %d: unknown op %q", i, m.Op))
			return
		}
		muts[i] = liveupdate.Mutation{Op: op, U: int32(m.U), V: int32(m.V)}
	}
	st, err := s.Mutate(muts)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, fmt.Errorf("use POST"))
		return
	}
	// The body is optional (a bare POST keeps its historical meaning,
	// mode auto), so this can't go through decodeBody, which treats an
	// empty body as malformed.
	var req struct {
		Mode string `json:"mode"`
	}
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, 1<<16))
	if err != nil {
		s.writeError(w, fmt.Errorf("bad request body: %w", err))
		return
	}
	if len(bytes.TrimSpace(body)) > 0 {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			s.writeError(w, fmt.Errorf("bad request body: %w", err))
			return
		}
	}
	res, err := s.CompactMode(req.Mode)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{
		"status": "ok",
		"n":      s.src.NumVertices(),
		"labels": s.src.NumLabels(),
	}
	if h := s.src.HealthJSON(); h != nil {
		body["cluster"] = h
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprint(w, s.Metrics())
}
