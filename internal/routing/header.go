package routing

import (
	"fmt"
	"math"

	"fsdl/internal/bitio"
	"fsdl/internal/graph"
)

// Header is the packet header of the forbidden-set routing scheme: the
// sketch-path waypoints the source computed from the labels of
// (s, t, F). Theorem 2.7 bounds its size by O(|V(H)|·log n) bits — each
// waypoint is a vertex name of O(log n) bits. (When the forbidden set
// encodes a private routing policy, the policy description rides along;
// PolicyBits accounts for it.)
type Header struct {
	// Waypoints is the sketch path, source to destination inclusive.
	Waypoints []int32
	// PolicyBits optionally carries an application-defined policy blob
	// (the paper: "the header size will have to include a description of
	// the policy").
	PolicyBits []byte
}

// Encode serializes the header: a waypoint count, delta-coded waypoint
// names, and the optional policy blob. Returns the bytes and exact bit
// length.
func (h *Header) Encode() ([]byte, int) {
	var w bitio.Writer
	w.WriteDelta(uint64(len(h.Waypoints)))
	for _, wp := range h.Waypoints {
		w.WriteDelta(uint64(wp))
	}
	w.WriteDelta(uint64(len(h.PolicyBits)))
	for _, b := range h.PolicyBits {
		w.WriteBits(uint64(b), 8)
	}
	return w.Bytes(), w.Len()
}

// DecodeHeader parses a header serialized by Encode.
func DecodeHeader(buf []byte, nbits int) (*Header, error) {
	r := bitio.NewReader(buf, nbits)
	count, err := r.ReadDelta()
	if err != nil {
		return nil, fmt.Errorf("routing: decode header count: %w", err)
	}
	if count > 1<<24 || count > uint64(r.Remaining()) {
		return nil, fmt.Errorf("routing: implausible waypoint count %d", count)
	}
	h := &Header{Waypoints: make([]int32, count)}
	for i := range h.Waypoints {
		wp, err := r.ReadDelta()
		if err != nil {
			return nil, fmt.Errorf("routing: decode waypoint %d: %w", i, err)
		}
		if wp > math.MaxInt32 {
			return nil, fmt.Errorf("routing: waypoint %d out of range: %d", i, wp)
		}
		h.Waypoints[i] = int32(wp)
	}
	plen, err := r.ReadDelta()
	if err != nil {
		return nil, fmt.Errorf("routing: decode policy length: %w", err)
	}
	if plen > 1<<24 || plen*8 > uint64(r.Remaining()) {
		return nil, fmt.Errorf("routing: implausible policy length %d", plen)
	}
	if plen > 0 {
		h.PolicyBits = make([]byte, plen)
		for i := range h.PolicyBits {
			b, err := r.ReadBits(8)
			if err != nil {
				return nil, fmt.Errorf("routing: decode policy byte %d: %w", i, err)
			}
			h.PolicyBits[i] = byte(b)
		}
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("routing: %d trailing bits after header", r.Remaining())
	}
	return h, nil
}

// HeaderFor computes the packet header for (src, dst, F) — the step a
// source performs before injecting a packet. ok is false when dst is
// unreachable in G\F.
func (s *Scheme) HeaderFor(src, dst int, faults *graph.FaultSet) (*Header, bool) {
	if src == dst {
		return &Header{Waypoints: []int32{int32(src)}}, true
	}
	q, err := s.cs.NewQuery(src, dst, faults)
	if err != nil {
		return nil, false
	}
	waypoints, ok := walk(q)
	if !ok {
		return nil, false
	}
	return &Header{Waypoints: waypoints}, true
}

// FollowHeader simulates forwarding a packet that carries the given
// header: hop-by-hop shortest-path moves toward each successive waypoint
// (the stored port entries). Returns the exact path traversed. ok is false
// when some waypoint is unreachable, which cannot happen for headers built
// by HeaderFor on a live graph.
func (s *Scheme) FollowHeader(h *Header) (Route, bool) {
	if len(h.Waypoints) == 0 {
		return Route{}, false
	}
	r := Route{
		Waypoints: append([]int32(nil), h.Waypoints...),
		Path:      []int{int(h.Waypoints[0])},
	}
	cur := int(h.Waypoints[0])
	for wi := 1; wi < len(h.Waypoints); wi++ {
		target := int(h.Waypoints[wi])
		dist := s.g.BFS(target)
		for cur != target {
			next, ok := nextHopOnTree(s.g, dist, cur)
			if !ok {
				return Route{}, false
			}
			cur = next
			r.Path = append(r.Path, cur)
		}
	}
	r.Length = len(r.Path) - 1
	return r, true
}
