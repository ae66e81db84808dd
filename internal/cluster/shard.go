package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"fsdl/internal/frame"
	"fsdl/internal/labelstore"
)

// ShardConfig configures a ShardServer.
type ShardConfig struct {
	// Store is the shard's partition of the label space (required).
	// The store's vertex space is the global n; NumLabels is just this
	// shard's slice.
	Store *labelstore.Store
	// Name identifies the shard in errors (optional).
	Name string
	// Generation is the label generation cfg.Store serves (default 1).
	// Queries tagged with another generation are refused unless the
	// shard still holds that generation's store.
	Generation uint64
	// GenerationRoot, when set, is the directory holding versioned
	// label generations (gen-0000000002/MANIFEST, …) this shard may be
	// told to activate via OpLoadGeneration. The shard loads its own
	// partition file (<Name>.fsdl) from a generation when the manifest
	// lists one, and the full labels.fsdl otherwise.
	GenerationRoot string
	// PersistPath, when set, rewrites the partition container (atomic
	// temp+rename) when the repairer seals the store, and after each
	// repair pull that installed records into an authoritative one, so a
	// repaired shard survives its own restart. A store that cannot vouch
	// for its absences is never written: a strict open of the file would.
	PersistPath string
	// Mmap and PersistFormat3 select nothing. Every FSDL3 file is opened
	// mapped, and a persist writes the store's own encoding: FSDL3 for a
	// factored store, FSDL2 for any other. Mixed-encoding replicas stay
	// wire-compatible — repair pulls are canonical bytes whatever the
	// container, and a stored record reads back to the label its
	// canonical bytes encode. The fields stay for the benchmark
	// harness, which assigns them (ROADMAP item 1, "Release the pins").
	Mmap           bool
	PersistFormat3 bool
	// RepairRate caps how many records per second repair pulls install
	// (default 50000; negative = unlimited). The cap is what keeps
	// rebuilding a shard from starving the query traffic it is already
	// serving.
	RepairRate int
	// FaultHook, when non-nil, is consulted once per received request
	// frame; a non-nil return makes the server drop the connection
	// without replying — the chaos tests' injection point for
	// crash-mid-request behavior.
	FaultHook func(op byte) error
}

// ShardServer serves one partition of a label store over the cluster
// wire protocol: label batches, the level graphs of a factored
// partition, and OpPing health probes. A factored file's records ship as
// stored, anything else as canonical bytes, and the frontend decodes
// locally, which is the whole point of the labeling model.
// Requests on one connection are answered in order; the frontend pools
// connections for parallelism.
type ShardServer struct {
	cfg ShardConfig

	// genMu guards the generation stores. cur is what untagged and
	// current-generation requests are served from; prev is the store a
	// generation swap displaced, kept so gen-tagged scatters that began
	// before the swap still complete. One prior generation of slack is
	// exactly what the frontend's atomic flip needs — by the time a
	// second swap happens, no fetch pinned two generations back can
	// still be in flight.
	genMu sync.RWMutex
	cur   genStore
	prev  genStore

	// repairMu serializes repair pulls: one transfer at a time keeps
	// the rate limit and the persistence rewrite coherent.
	repairMu sync.Mutex

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	// Requests/labelsServed are observability counters for tests and
	// the shard daemon's exit log. RepairInstalled/RepairFailed count
	// records ingested (or not) by OpRepairPull; Sealed flips when the
	// repairer declares the partition complete.
	Requests        atomic.Int64
	LabelsServed    atomic.Int64
	RepairInstalled atomic.Int64
	RepairFailed    atomic.Int64
	Sealed          atomic.Bool
}

// NewShardServer builds a server over cfg.Store.
func NewShardServer(cfg ShardConfig) (*ShardServer, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("cluster: ShardConfig.Store is required")
	}
	if cfg.RepairRate == 0 {
		cfg.RepairRate = 50000
	}
	if cfg.Generation == 0 {
		cfg.Generation = 1
	}
	s := &ShardServer{cfg: cfg, conns: make(map[net.Conn]struct{})}
	s.cur = genStore{gen: cfg.Generation, store: cfg.Store}
	return s, nil
}

// ListenAndServe listens on addr and serves until Close.
func (s *ShardServer) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close. A clean Close returns
// nil.
func (s *ShardServer) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("cluster: shard server already closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Addr returns the listening address (nil before Serve).
func (s *ShardServer) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, severs every open connection, and waits for
// the connection handlers to drain. Safe to call more than once.
func (s *ShardServer) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

func (s *ShardServer) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	// scratch buffers reused across requests on this connection.
	bufs := &connBufs{}
	for {
		op, req, err := frame.Read(br)
		if err != nil {
			// EOF, peer reset, or untrustworthy framing: either way the
			// conversation is over.
			return
		}
		s.Requests.Add(1)
		if s.cfg.FaultHook != nil {
			if err := s.cfg.FaultHook(op); err != nil {
				return
			}
		}
		var werr error
		switch op {
		case OpPing:
			st, gen := s.currentStore()
			bufs.payload = AppendPong(bufs.payload[:0], st.NumVertices(), st.NumLabels(), s.pongFlags(st), gen)
			werr = s.writeFrame(bw, bufs, OpPong, bufs.payload)
		case OpGetLabelsGen, OpGetLabelsStored:
			gen, ids, err := ParseGenLabelRequest(req)
			var gs genStore
			if err == nil {
				gs, err = s.storeForGen(gen)
			}
			if err == nil {
				err = s.checkRange(gs.store, ids)
			}
			if err != nil {
				werr = s.writeFrame(bw, bufs, OpError, []byte(s.errText(err)))
			} else {
				werr = s.writeLabels(bw, bufs, gs, ids, op == OpGetLabelsStored)
			}
		case OpGetLevels:
			werr = s.handleLevels(bw, bufs, req)
		case OpLoadGeneration:
			gen, err := ParseGeneration(req)
			if err == nil {
				err = s.LoadGeneration(gen)
			}
			if err != nil {
				werr = s.writeFrame(bw, bufs, OpError, []byte(s.errText(err)))
			} else {
				bufs.payload = AppendGeneration(bufs.payload[:0], s.Generation())
				werr = s.writeFrame(bw, bufs, OpGenLoaded, bufs.payload)
			}
		case OpAudit:
			werr = s.handleAudit(bw, bufs, req)
		case OpRepairPull:
			werr = s.handleRepairPull(bw, bufs, req)
		case OpSeal:
			if err := s.seal(); err != nil {
				werr = s.writeFrame(bw, bufs, OpError, []byte(s.errText(err)))
			} else {
				werr = s.writeFrame(bw, bufs, OpSealed, nil)
			}
		default:
			werr = s.writeFrame(bw, bufs, OpError, []byte(s.errText(fmt.Errorf("cluster: unknown op %d", op))))
		}
		if werr != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// connBufs are per-connection scratch buffers reused across requests.
type connBufs struct {
	payload, frame []byte
}

// writeFrame frames payload and writes it to bw. An oversized payload
// — impossible by construction, but the process must not die on a
// construction bug — degrades to an OpError the frontend treats as a
// failed attempt, instead of reaching frame.Append's panic.
func (s *ShardServer) writeFrame(bw *bufio.Writer, bufs *connBufs, op byte, payload []byte) error {
	if len(payload) > frame.MaxPayload {
		return s.writeFrame(bw, bufs, OpError,
			[]byte(s.errText(fmt.Errorf("cluster: response payload %d bytes exceeds frame limit", len(payload)))))
	}
	bufs.frame = frame.Append(bufs.frame[:0], op, payload)
	_, err := bw.Write(bufs.frame)
	return err
}

// maxLabelChunkPayload bounds one OpLabels/OpLabelsPart payload. It
// sits under frame.MaxPayload with headroom for the chunk header, so a
// label response of any total size frames cleanly. A var so tests can
// shrink it to force chunking with small labels.
var maxLabelChunkPayload = frame.MaxPayload - 4096

// genStore pairs a label store with the generation it serves.
type genStore struct {
	gen   uint64
	store *labelstore.Store
}

// currentStore returns the store serving the current generation.
func (s *ShardServer) currentStore() (*labelstore.Store, uint64) {
	s.genMu.RLock()
	defer s.genMu.RUnlock()
	return s.cur.store, s.cur.gen
}

// Generation reports the label generation the shard currently serves.
func (s *ShardServer) Generation() uint64 {
	s.genMu.RLock()
	defer s.genMu.RUnlock()
	return s.cur.gen
}

// storeForGen resolves a gen-tagged request to the store serving that
// generation: the current one (generation 0 asks for it), or the
// previous one still held across a swap window. Anything else is refused
// — answering from the wrong generation would silently mix label spaces.
func (s *ShardServer) storeForGen(gen uint64) (genStore, error) {
	s.genMu.RLock()
	defer s.genMu.RUnlock()
	switch {
	case gen == 0 || gen == s.cur.gen:
		return s.cur, nil
	case gen == s.prev.gen && s.prev.store != nil:
		return s.prev, nil
	}
	return genStore{}, fmt.Errorf("cluster: generation %d not held (serving %d)", gen, s.cur.gen)
}

// InstallGeneration activates st as label generation gen, displacing
// the current store into the previous-generation slot. The in-process
// path for same-binary clusters and tests; LoadGeneration is the
// on-disk one. Each store keeps its own authority: the displaced one
// still answers Unknown for what it lacks, to scatters pinned to it.
func (s *ShardServer) InstallGeneration(gen uint64, st *labelstore.Store) error {
	if st == nil {
		return fmt.Errorf("cluster: InstallGeneration: nil store")
	}
	cur, curGen := s.currentStore()
	if gen == curGen {
		return nil
	}
	if st.NumVertices() != cur.NumVertices() {
		return fmt.Errorf("cluster: generation %d serves vertex space %d, shard has %d",
			gen, st.NumVertices(), cur.NumVertices())
	}
	s.genMu.Lock()
	if gen == s.cur.gen {
		s.genMu.Unlock()
		return nil
	}
	s.prev = s.cur
	s.cur = genStore{gen: gen, store: st}
	s.genMu.Unlock()
	return nil
}

// LoadGeneration activates generation gen from the shard's generation
// root: the generation directory's manifest is read and every listed
// file's checksum verified, then the shard's own partition file
// (<Name>.fsdl) — or the full labels.fsdl when the manifest lists no
// partition for it — is loaded and swapped in.
func (s *ShardServer) LoadGeneration(gen uint64) error {
	if gen == s.Generation() {
		return nil
	}
	if s.cfg.GenerationRoot == "" {
		return fmt.Errorf("cluster: no generation root configured")
	}
	dir := filepath.Join(s.cfg.GenerationRoot, labelstore.GenerationDirName(gen))
	m, err := labelstore.ReadManifestDir(dir)
	if err != nil {
		return fmt.Errorf("cluster: load generation %d: %w", gen, err)
	}
	name := labelstore.GenerationLabelsFile
	if s.cfg.Name != "" && m.File(s.cfg.Name+".fsdl") != nil {
		name = s.cfg.Name + ".fsdl"
	}
	// An FSDL3 generation maps straight from the page cache: the shard
	// serves record slices out of the mapping without ever materialising
	// the container on the heap.
	st, err := labelstore.Open(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("cluster: load generation %d: %w", gen, err)
	}
	if err := s.InstallGeneration(gen, st); err != nil {
		return err
	}
	return nil
}

// writeLabels answers one label request from gs, splitting the response
// into as many OpLabelsPart frames as the payload bound requires; the
// final (often only) chunk goes out as OpLabels. With stored, records a
// factored file holds go out as stored.
func (s *ShardServer) writeLabels(bw *bufio.Writer, bufs *connBufs, gs genStore, ids []int32, stored bool) error {
	// Room for the chunk header: vertex space + record count uvarints.
	const headerSize = 2 * 10 // binary.MaxVarintLen64
	recs := make([]LabelRecord, 0, len(ids))
	size := headerSize
	flush := func(op byte) error {
		bufs.payload = AppendLabelResponse(bufs.payload[:0], gs.store.NumVertices(), recs)
		if err := s.writeFrame(bw, bufs, op, bufs.payload); err != nil {
			return err
		}
		recs = recs[:0]
		size = headerSize
		return nil
	}
	for _, v := range ids {
		rec := s.lookupRecord(gs, v, stored)
		rsz := rec.wireSize()
		if headerSize+rsz > maxLabelChunkPayload {
			// A single record that cannot fit any frame: the request as a
			// whole is unanswerable, and saying so beats crashing.
			return s.writeFrame(bw, bufs, OpError,
				[]byte(s.errText(fmt.Errorf("cluster: label of vertex %d too large for one frame", v))))
		}
		if size+rsz > maxLabelChunkPayload {
			if err := flush(OpLabelsPart); err != nil {
				return err
			}
		}
		recs = append(recs, rec)
		size += rsz
	}
	return flush(OpLabels)
}

// lookupRecord resolves one vertex against gs's store, which decides
// whether a record it cannot serve is authoritatively absent or unknown
// (damaged, or lacked by an incomplete store). With stored, a record its
// factored file holds goes out as the file stores it, naming the file's
// level graphs under gs's generation; any other — a heap-overlay record
// among them — as canonical bytes.
func (s *ShardServer) lookupRecord(gs genStore, v int32, stored bool) LabelRecord {
	rec := LabelRecord{Vertex: v}
	st := gs.store
	if stored {
		if sr, ok := st.Stored(int(v)); ok {
			rec.Present, rec.Stored, rec.Bits, rec.Data = true, true, sr.Bits, sr.Data
			rec.CRC, rec.Levels = sr.CRC, LevelsRef{Generation: gs.gen, CRC: sr.LevelsCRC}
			s.LabelsServed.Add(1)
			return rec
		}
	}
	if bits, data, ok := st.Raw(int(v)); ok {
		rec.Present, rec.Bits, rec.Data = true, bits, data
		s.LabelsServed.Add(1)
		return rec
	}
	// Unknown lets the frontend fail over to a replica while the
	// repairer fills or heals this one.
	rec.Unknown = st.Unknown(int(v))
	return rec
}

// pongFlags reports the shard's status bits for health probes: a store
// that cannot vouch for its absences — incomplete, or holding a damaged
// record not yet healed — is flagged non-authoritative.
func (s *ShardServer) pongFlags(st *labelstore.Store) uint64 {
	var flags uint64
	if !st.Authoritative() {
		flags |= PongNonAuthoritative
	}
	return flags
}

// seal records the repairer's verdict that the current store holds its
// whole partition: what it still lacks is genuinely not this shard's to
// hold, so its absences become authoritative. With PersistPath set the
// store is written first, and a failed write leaves it unsealed for the
// repairer to try again.
func (s *ShardServer) seal() error {
	s.repairMu.Lock()
	defer s.repairMu.Unlock()
	if s.cfg.PersistPath != "" {
		if err := s.persist(); err != nil {
			return err
		}
	}
	st, _ := s.currentStore()
	st.Seal()
	s.Sealed.Store(true)
	return nil
}

// handleLevels answers OpGetLevels: one chunk of the level-graphs
// section the request names, from the store serving its generation —
// refused unless that store's section has exactly that CRC.
func (s *ShardServer) handleLevels(bw *bufio.Writer, bufs *connBufs, req []byte) error {
	ref, off, err := ParseLevelsRequest(req)
	var section []byte
	if err == nil {
		var gs genStore
		if gs, err = s.storeForGen(ref.Generation); err == nil {
			sec, crc, ok := gs.store.LevelsSection()
			switch {
			case !ok || crc != ref.CRC:
				err = fmt.Errorf("cluster: level graphs %08x not held at generation %d", ref.CRC, ref.Generation)
			case off > uint64(len(sec)):
				err = fmt.Errorf("cluster: level-graphs offset %d past the section's %d bytes", off, len(sec))
			default:
				section = sec
			}
		}
	}
	if err != nil {
		return s.writeFrame(bw, bufs, OpError, []byte(s.errText(err)))
	}
	// Room for the chunk header: section name, length and offset.
	const headerSize = 3*binary.MaxVarintLen64 + 4
	end := min(off+uint64(maxLabelChunkPayload-headerSize), uint64(len(section)))
	bufs.payload = AppendLevelsChunk(bufs.payload[:0], ref, uint64(len(section)), off, section[off:end])
	return s.writeFrame(bw, bufs, OpLevels, bufs.payload)
}

// maxAuditIDs bounds one OpAudit request so the response (≤ 5 bytes
// per missing id) always fits one frame and a hostile request cannot
// force a huge allocation. The repairer's batches sit far below this.
const maxAuditIDs = 1 << 20

// handleAudit answers OpAudit: the requested ids the current store
// cannot serve (labelstore.Store.Has — absent, failing its CRC check,
// or condemned by a failed read), in request order.
func (s *ShardServer) handleAudit(bw *bufio.Writer, bufs *connBufs, req []byte) error {
	st, _ := s.currentStore()
	ids, err := ParseLabelRequest(req)
	if err == nil && len(ids) > maxAuditIDs {
		err = fmt.Errorf("cluster: audit request names %d ids, limit %d", len(ids), maxAuditIDs)
	}
	if err == nil {
		err = s.checkRange(st, ids)
	}
	if err != nil {
		return s.writeFrame(bw, bufs, OpError, []byte(s.errText(err)))
	}
	var missing []int32
	for _, v := range ids {
		if !st.Has(int(v)) {
			missing = append(missing, v)
		}
	}
	bufs.payload = AppendAuditResponse(bufs.payload[:0], st.NumVertices(), missing)
	return s.writeFrame(bw, bufs, OpAuditResp, bufs.payload)
}

// handleRepairPull answers OpRepairPull: pull the named records from
// the source replica, install them, optionally persist, and report the
// tally. The transfer happens synchronously on this connection — the
// repairer sizes batches so one pull stays well under the chunk
// timeout, and other connections keep serving queries meanwhile.
func (s *ShardServer) handleRepairPull(bw *bufio.Writer, bufs *connBufs, req []byte) error {
	source, ids, err := ParseRepairRequest(req)
	if err == nil {
		st, _ := s.currentStore()
		err = s.checkRange(st, ids)
	}
	if err != nil {
		return s.writeFrame(bw, bufs, OpError, []byte(s.errText(err)))
	}
	installed, failed, err := s.repairPull(source, ids)
	if err != nil {
		return s.writeFrame(bw, bufs, OpError, []byte(s.errText(err)))
	}
	bufs.payload = AppendRepairResponse(bufs.payload[:0], installed, failed)
	return s.writeFrame(bw, bufs, OpRepairPulled, bufs.payload)
}

// maxPullChunkIDs is how many records one pull round trip requests;
// repairDialTimeout bounds dialing the pull source and
// repairChunkTimeout each of those round trips.
const (
	maxPullChunkIDs    = 4096
	repairDialTimeout  = time.Second
	repairChunkTimeout = 5 * time.Second
)

// repairPull dials the source shard, fetches the records in chunks and
// installs every present, validated one into the live store. Records
// the source lacks (or that fail validation) count as failed — the
// repairer retries them against another replica on its next sweep.
// Installs are paced to cfg.RepairRate records/sec so a rebuild cannot
// starve query traffic sharing this store.
func (s *ShardServer) repairPull(source string, ids []int32) (installed, failed int, err error) {
	s.repairMu.Lock()
	defer s.repairMu.Unlock()
	// Pin the generation for the whole transfer: the pull request is
	// gen-tagged so a source mid-swap either answers from the matching
	// store or refuses — records from another generation must never be
	// installed here.
	store, gen := s.currentStore()
	conn, err := net.DialTimeout("tcp", source, repairDialTimeout)
	if err != nil {
		return 0, 0, fmt.Errorf("cluster: dial repair source %s: %w", source, err)
	}
	defer conn.Close()
	start := time.Now()
	for len(ids) > 0 {
		chunk := ids
		if len(chunk) > maxPullChunkIDs {
			chunk = chunk[:maxPullChunkIDs]
		}
		ids = ids[len(chunk):]
		conn.SetDeadline(time.Now().Add(repairChunkTimeout))
		got := make(map[int32]LabelRecord, len(chunk))
		if err := fetchLabels(conn, "repair source "+source, OpGetLabelsGen, gen, chunk, store.NumVertices(), got); err != nil {
			return installed, failed, fmt.Errorf("cluster: repair pull from %s: %w", source, err)
		}
		for _, v := range chunk {
			// Repair installs canonical bytes: a stored record answers a
			// request this pull never sends.
			rec, ok := got[v]
			if !ok || !rec.Present || rec.Stored {
				failed++
				continue
			}
			if perr := store.Put(int(v), rec.Bits, rec.Data); perr != nil {
				failed++
				continue
			}
			installed++
		}
		// Pace to the configured install rate: sleep off any debt the
		// records installed so far have accumulated over real time.
		if s.cfg.RepairRate > 0 {
			owed := time.Duration(installed) * time.Second / time.Duration(s.cfg.RepairRate)
			if ahead := owed - time.Since(start); ahead > 0 {
				time.Sleep(ahead)
			}
		}
	}
	s.RepairInstalled.Add(int64(installed))
	s.RepairFailed.Add(int64(failed))
	if installed > 0 && s.cfg.PersistPath != "" && store.Authoritative() {
		if perr := s.persist(); perr != nil {
			return installed, failed, perr
		}
	}
	return installed, failed, nil
}

// persist rewrites the partition container atomically and durably
// (labelstore.ReplaceFile) so a repaired shard that restarts reloads
// what repair gave it instead of starting the loss over. Its callers
// hold repairMu. It keeps the store's own encoding, as labelstore.Write
// does for any store: a factored store writes a factored FSDL3 file,
// whose records leave the shard as stored after a restart too; any other
// store — and a factored one whose level graphs are damaged — writes
// FSDL2.
func (s *ShardServer) persist() error {
	store, _ := s.currentStore()
	err := labelstore.ReplaceFile(s.cfg.PersistPath, func(f *os.File) error {
		return labelstore.Write(f, store, store.Vertices())
	})
	if err != nil {
		return fmt.Errorf("cluster: persist repair: %w", err)
	}
	return nil
}

// checkRange rejects requests naming vertices outside the store's
// vertex space — those are caller bugs, not absent records, and a
// response record could not even encode them.
func (s *ShardServer) checkRange(st *labelstore.Store, ids []int32) error {
	n := st.NumVertices()
	for _, v := range ids {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("cluster: vertex %d out of range [0,%d)", v, n)
		}
	}
	return nil
}

func (s *ShardServer) errText(err error) string {
	if s.cfg.Name != "" {
		return s.cfg.Name + ": " + err.Error()
	}
	return err.Error()
}

// errShardError wraps an OpError payload received from a shard.
var errShardError = errors.New("cluster: shard error")
