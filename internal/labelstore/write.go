// The one writer: every container this package produces comes out of
// Write, a record source feeding a record sink.
//
//	sources   FromScheme   extract every label from a scheme
//	          Spliced      extract the dirty labels, copy the rest from a
//	                       previous generation's store
//	          *Store       copy records out of a loaded store
//	sinks     FSDL2 stream · factored FSDL3 file
//
// Id normalisation, the FSDL2 header/record loop, the FSDL3 sink
// drive loop and the stored→stored verbatim copy each live here once;
// every source × sink pair yields, for the same ids, the bytes the
// scheme source would. A sink is split in two: encode, which turns a
// record into the bytes the container stores and which the scheme
// source runs on the worker that extracted the label, and append, which
// writes encoded records in ascending vertex order — so the bytes are
// the same for any number of workers. The source picks the sink: an
// FSDL3 file is always factored — one level-graphs section, records
// reduced to their balls — so a source that can supply the level graphs
// (a scheme, an FSDL3 store) writes one, and any other store (FSDL2, one
// filled by Put or with its level graphs damaged) and Save write FSDL2,
// the self-contained container.
package labelstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"fsdl/internal/core"
	"fsdl/internal/graph"
	"fsdl/internal/nets"
)

// rec is one record on its way from a source to a sink, in the cheapest
// form the source holds: a live label, or serialized bytes — canonical
// Label.Encode output, or (prm.set) the ball record of an FSDL3 store
// together with the parameters of that store.
type rec struct {
	label *core.Label
	bits  int // canonical bit length of data
	data  []byte
	prm   rec3Params
}

// Source yields the records Write puts into a container: FromScheme,
// Spliced, or a *Store.
type Source interface {
	// NumVertices is the vertex-id space the records live in.
	NumVertices() int
	// records encodes the record of every id (ascending, distinct, in
	// range) and appends it to out, in order. stored asks for ball
	// records verbatim where the source holds them in the encoding an
	// FSDL3 sink writes under the level graphs levelGraphs supplies.
	records(ids []int, stored bool, out sink) error
	// levelGraphs returns the level graphs the records are induced from
	// and their encoding, or nil when the source cannot supply them.
	levelGraphs() (*core.LevelGraphs, []byte)
}

// sink is the container side of Write.
type sink interface {
	// encoder returns a function that turns a record of any form into
	// the one the container stores (bits and data), for one goroutine:
	// each worker takes its own, and none touches the sink's state.
	encoder() func(v int, r rec) (rec, error)
	// append writes an encoded record. Records arrive in ascending vertex
	// order, exactly as many as the sink was opened for.
	append(v int, r rec) error
	finish() error
}

// Write writes the records of the given vertices (nil: every vertex of
// the id space) from src to w as one container, the one src decides: a
// factored FSDL3 file when src can supply the level graphs, which needs
// a seekable w (an *os.File), else an FSDL2 stream. The ids are sorted
// and de-duplicated first, so output is deterministic, and a given id
// list yields the same bytes whichever source the records come from. A
// vertex src has no record for is an error.
func Write(w io.Writer, src Source, vertices []int) error {
	lg, section := src.levelGraphs()
	return write(w, src, vertices, lg, section)
}

// write is Write into FSDL3 under lg and its encoded section, or FSDL2.
func write(w io.Writer, src Source, vertices []int, lg *core.LevelGraphs, section []byte) error {
	n := src.NumVertices()
	ids, err := normalizeVertices(vertices, n)
	if err != nil {
		return err
	}
	var out sink
	if lg != nil {
		f, ok := w.(fileLike)
		if !ok {
			return fmt.Errorf("labelstore: FSDL3 output needs a seekable file, not %T", w)
		}
		out, err = newFormat3Writer(f, n, len(ids), lg, section)
	} else {
		out, err = newStreamWriter(w, n, len(ids))
	}
	if err != nil {
		return err
	}
	if err := src.records(ids, lg != nil, out); err != nil {
		return err
	}
	return out.finish()
}

// Save writes a scheme's labels as an FSDL2 stream.
func Save(w io.Writer, s *core.Scheme, vertices []int) error {
	return write(w, FromScheme(s), vertices, nil, nil)
}

// SaveFormat3 is Write from a scheme, which always writes a factored
// FSDL3 file. compress selects nothing.
func SaveFormat3(f fileLike, s *core.Scheme, vertices []int, compress bool) error {
	return Write(f, FromScheme(s), vertices)
}

// SaveVerticesFormat3 is Write from a store — the partition path: a
// factored FSDL3 file from a factored store, FSDL2 from any other.
// compress selects nothing.
func (st *Store) SaveVerticesFormat3(f fileLike, vertices []int, compress bool) error {
	return Write(f, st, vertices)
}

// Region lists the vertices within the given radius of center — the ids
// of a "download the data structure for your region" bundle.
func Region(s *core.Scheme, center int, radius int32) []int {
	var region []int
	sc := graph.NewBFSScratch(s.Graph().NumVertices())
	sc.TruncatedBFS(s.Graph(), center, radius, func(v, _ int32) {
		region = append(region, int(v))
	})
	return region
}

// normalizeVertices sorts and deduplicates ids (0..n-1 when nil),
// rejecting out-of-range vertices.
func normalizeVertices(vertices []int, n int) ([]int, error) {
	if vertices == nil {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		return ids, nil
	}
	for _, v := range vertices {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("labelstore: vertex %d out of range [0,%d)", v, n)
		}
	}
	ids := slices.Clone(vertices)
	slices.Sort(ids)
	return slices.Compact(ids), nil
}

// SchemeSource extracts labels from a scheme; with a splice base, only
// the dirty ones.
type SchemeSource struct {
	// Workers bounds the extraction's parallelism (≤ 0 means GOMAXPROCS):
	// how many cores a Write may hold while it runs.
	Workers int

	s     *core.Scheme
	prev  *Store // nil: extract everything
	dirty map[int32]struct{}
}

// FromScheme is the source extracting every label from s on the fly.
func FromScheme(s *core.Scheme) *SchemeSource { return &SchemeSource{s: s} }

// Spliced is the incremental-compaction source: only the vertices listed
// in dirty are extracted from s, every other record is copied from prev
// — core.BuildSchemeIncremental has proven the labels of non-dirty
// vertices byte-identical to the previous generation's. The output is
// byte-identical to FromScheme(s)'s at a fraction of the extraction
// cost. A non-dirty vertex absent from prev is an error.
func Spliced(s *core.Scheme, prev *Store, dirty []int32) *SchemeSource {
	src := &SchemeSource{s: s, prev: prev, dirty: make(map[int32]struct{}, len(dirty))}
	for _, v := range dirty {
		src.dirty[v] = struct{}{}
	}
	return src
}

func (src *SchemeSource) NumVertices() int { return src.s.Graph().NumVertices() }

func (src *SchemeSource) levelGraphs() (*core.LevelGraphs, []byte) {
	lg := src.s.LevelGraphs()
	return lg, lg.Encode()
}

func (src *SchemeSource) records(ids []int, stored bool, out sink) error {
	if src.prev != nil && src.prev.NumVertices() != src.NumVertices() {
		return fmt.Errorf("labelstore: splice base has n=%d, scheme has %d", src.prev.NumVertices(), src.NumVertices())
	}
	// A clean record travels verbatim into an FSDL3 sink only as balls,
	// and only while the levels' net-point lists
	// are the ones it was written under: its ids are indices into them,
	// "saturated" means all of one, and a nested level's own points are
	// those of one list that the next lacks — a net point that joined a
	// level outside a clean ball leaves the label as it was and every one
	// of those wrong. (The radii a nested level is cut at are the
	// parameters', which captureParams holds equal.) Anything else goes the
	// canonical way round.
	if stored && src.prev != nil {
		prevLG, _ := src.prev.levelGraphs()
		stored = prevLG != nil && prevLG.SameNetPoints(src.s.LevelGraphs())
	}
	return appendAll(ids, src.Workers, out, func(v int) (rec, error) {
		if _, dirty := src.dirty[int32(v)]; src.prev == nil || dirty {
			return rec{label: src.s.Extract(v)}, nil
		}
		if r, ok := src.prev.record(v, stored); ok {
			return r, nil
		}
		return rec{}, fmt.Errorf("labelstore: splice base is missing clean vertex %d", v)
	})
}

// records makes a Store a Source: its own records, copied.
func (st *Store) records(ids []int, stored bool, out sink) error {
	return appendAll(ids, 1, out, func(v int) (rec, error) {
		if r, ok := st.record(v, stored); ok {
			return r, nil
		}
		return rec{}, fmt.Errorf("labelstore: %w %d", core.ErrNoLabel, v)
	})
}

// appendAll encodes the record get returns for every id on up to workers
// workers, one 256-vertex chunk at a time, each worker with an encoder of
// its own, and appends each chunk in vertex order: at most one chunk of
// encoded records is held, and the bytes do not depend on the workers.
func appendAll(ids []int, workers int, out sink, get func(v int) (rec, error)) error {
	const chunk = 256
	recs, errs := make([]rec, chunk), make([]error, chunk)
	for off := 0; off < len(ids); off += chunk {
		span := ids[off:min(off+chunk, len(ids))]
		nets.RunParallel(workers, len(span), func() func(int) {
			encode := out.encoder()
			return func(i int) {
				if recs[i], errs[i] = get(span[i]); errs[i] == nil {
					recs[i], errs[i] = encode(span[i], recs[i])
				}
			}
		})
		for i, v := range span {
			if errs[i] != nil {
				return errs[i]
			}
			if err := out.append(v, recs[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// levelGraphs makes a factored store a source of factored files: its own
// level graphs, their section copied verbatim.
func (st *Store) levelGraphs() (*core.LevelGraphs, []byte) {
	if st.f3 == nil || st.f3.levels == nil {
		return nil, nil
	}
	return st.f3.levels.lg, st.f3.section
}

// record returns the record of v as canonical bytes, or — when stored
// is set and the backing is an FSDL3 file — as that file's ball record
// verbatim, sparing a transcode. A vertex healed
// via Put is always served from its repaired overlay record (the Raw
// path), never from the damaged disk payload beneath it.
func (st *Store) record(v int, stored bool) (rec, bool) {
	if stored && st.f3 != nil && !st.inOverlay(int32(v)) {
		bits, payload, ok := st.f3.storedPayload(int32(v))
		return rec{bits: bits, data: payload, prm: st.f3.hdr.prm}, ok
	}
	bits, data, ok := st.Raw(v)
	return rec{bits: bits, data: data}, ok
}

// streamWriter is the FSDL2 sink: the stream header, then one
// varint-framed, CRC-trailed record per add.
type streamWriter struct{ bw *bufio.Writer }

func newStreamWriter(w io.Writer, n, count int) (*streamWriter, error) {
	bw := bufio.NewWriter(w)
	hdr := binary.AppendUvarint(slices.Clone(magicV2), uint64(n))
	hdr = binary.AppendUvarint(hdr, uint64(count))
	if _, err := bw.Write(hdr); err != nil {
		return nil, fmt.Errorf("labelstore: write header: %w", err)
	}
	return &streamWriter{bw: bw}, nil
}

func (w *streamWriter) encoder() func(int, rec) (rec, error) {
	return func(_ int, r rec) (rec, error) {
		if r.label != nil {
			buf, nbits := r.label.Encode()
			r = rec{bits: nbits, data: buf[:(nbits+7)/8]}
		}
		return r, nil
	}
}

func (w *streamWriter) append(v int, r rec) error {
	if err := writeRecord(w.bw, v, r.bits, r.data); err != nil {
		return fmt.Errorf("labelstore: write record for vertex %d: %w", v, err)
	}
	return nil
}

func (w *streamWriter) finish() error { return w.bw.Flush() }
