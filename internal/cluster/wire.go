package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The wire protocol is a stream of self-delimiting frames in the
// shared codec of internal/frame (magic "FC", version, op, length,
// payload, CRC32-IEEE trailer — see that package for the layout; the
// live-update mutation WAL journals the same frames). A frame that
// passes the CRC was neither truncated nor bit-flipped in flight; a
// frame that fails it poisons the connection (framing can no longer be
// trusted) and the caller must redial. This file holds what is the
// cluster's own: the op codes and the payload codecs.

// Frame ops. Requests flow frontend→shard, responses shard→frontend.
const (
	// 1 is retired and stays unassigned: it asked for label records from
	// whatever generation is current, which OpGetLabelsGen with generation
	// 0 does. A shard answers it with OpError, like any unknown op.

	// OpLabels answers a label request (OpGetLabelsGen,
	// OpGetLabelsStored) with one record per requested vertex.
	OpLabels byte = 2
	// OpPing is the health probe; OpPong answers it with store vitals.
	OpPing byte = 3
	OpPong byte = 4
	// OpError carries a shard-side failure message.
	OpError byte = 5
	// OpLabelsPart is a continuation chunk of an OpLabels response:
	// the payload encoding is identical, but more frames follow for the
	// same request. The final chunk arrives as a plain OpLabels frame,
	// so a response — however many labels it carries — never needs a
	// payload past frame.MaxPayload.
	OpLabelsPart byte = 6
	// OpAudit asks which of a batch of vertex ids (the label-request
	// payload, AppendLabelRequest) the shard cannot serve; OpAuditResp
	// answers with the shard's vertex space and those ids. The repairer
	// finds what a shard is missing this way without shipping any label
	// bytes.
	OpAudit     byte = 7
	OpAuditResp byte = 8
	// OpRepairPull instructs a shard to pull the named records from a
	// source replica (by address) and install them into its live store;
	// OpRepairPulled reports how many records were installed and how
	// many failed. Label bytes flow replica→replica, never through the
	// frontend.
	OpRepairPull   byte = 9
	OpRepairPulled byte = 10
	// OpSeal tells a non-authoritative shard (salvaged with truncation,
	// or booted empty awaiting repair) that anti-entropy has verified
	// its partition complete: from now on an absent record is an
	// authoritative "not here", not an unknown. OpSealed acknowledges.
	OpSeal   byte = 11
	OpSealed byte = 12
	// OpGetLabelsGen asks for a batch of label records by vertex id,
	// tagged with the label generation the caller is routing against:
	// uvarint generation, then the label-request payload
	// (AppendLabelRequest). A shard answers from the store serving that
	// generation — the current one or, during a swap window, the
	// previous one it still holds — so an in-flight scatter started
	// before a swap completes against the generation it began on.
	// Generation 0 means "whatever is current". Responses are ordinary
	// OpLabels / OpLabelsPart frames.
	OpGetLabelsGen byte = 13
	// OpLoadGeneration tells a shard to activate the named label
	// generation from its generation root (uvarint generation);
	// OpGenLoaded acknowledges with the generation now active. The
	// displaced store is retained as the previous generation so
	// gen-tagged fetches racing the swap still complete.
	OpLoadGeneration byte = 14
	OpGenLoaded      byte = 15
	// 16 is retired and stays unassigned: it told a shard to re-tag the
	// store it served as the next generation without a load.

	// OpGetLabelsStored is OpGetLabelsGen (same payload, same OpLabels /
	// OpLabelsPart answer) asking for records as stored: a shard answers
	// every record a factored FSDL3 file holds in that file's own encoding
	// (presence 3, LabelRecord.Stored) and everything else in canonical
	// bytes, record by record in one response. It is what the frontend
	// sends; shards must be upgraded before frontends.
	OpGetLabelsStored byte = 17
	// OpGetLevels asks for a chunk of the level-graphs section stored
	// records name (LevelsRef, then a uvarint byte offset); OpLevels
	// answers with the section's length, the chunk's offset and as many of
	// its bytes from there as fit one frame. The frontend reads a section
	// once per generation.
	OpGetLevels byte = 18
	OpLevels    byte = 19
)

// maxWireLabelBits rejects absurd per-record bit lengths before any
// record is acted on (matches the labelstore container's guard).
const maxWireLabelBits = 1 << 40

// maxLevelsBytes bounds the level-graphs section an OpLevels chunk may
// claim: far past any real section, and a cap on what a frontend
// accumulates from a shard that keeps sending.
const maxLevelsBytes = 1 << 31

// AppendLabelRequest encodes a label-request payload: the vertex ids
// whose labels (or audit) the caller wants, in the given order.
func AppendLabelRequest(dst []byte, ids []int32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	for _, v := range ids {
		dst = binary.AppendUvarint(dst, uint64(uint32(v)))
	}
	return dst
}

// ParseLabelRequest decodes a label-request payload.
func ParseLabelRequest(payload []byte) ([]int32, error) {
	count, k := binary.Uvarint(payload)
	if k <= 0 {
		return nil, fmt.Errorf("cluster: label request: bad count")
	}
	payload = payload[k:]
	// Every id costs at least one byte, so a count beyond the remaining
	// payload is a lie — reject before allocating.
	if count > uint64(len(payload)) {
		return nil, fmt.Errorf("cluster: label request: count %d exceeds payload", count)
	}
	ids := make([]int32, 0, count)
	for i := uint64(0); i < count; i++ {
		v, k := binary.Uvarint(payload)
		if k <= 0 {
			return nil, fmt.Errorf("cluster: label request: truncated id %d", i)
		}
		if v > math.MaxInt32 {
			return nil, fmt.Errorf("cluster: label request: id %d out of range", v)
		}
		payload = payload[k:]
		ids = append(ids, int32(v))
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("cluster: label request: %d trailing bytes", len(payload))
	}
	return ids, nil
}

// LabelRecord is one vertex's answer inside an OpLabels response.
// Present=false with Unknown=false means the shard's partition does
// not hold that label (the authoritative "no such record here",
// distinct from a transport failure). Unknown=true means the shard
// cannot answer authoritatively — the record was lost to corruption
// when the store was salvage-loaded — so the caller should try another
// replica and must not cache the absence. Bits is the canonical bit
// length; Data the canonical bytes or, with Stored, the payload of a
// factored FSDL3 record as its file stores it (labelstore.StoredRecord),
// which reads back into a label only under the level graphs Levels names.
type LabelRecord struct {
	Vertex  int32
	Present bool
	Unknown bool
	Bits    int
	Data    []byte

	Stored bool
	CRC    uint32 // Stored: the index CRC over Vertex, Bits and Data
	Levels LevelsRef
}

// LevelsRef names a level-graphs section: the generation a shard serves
// it under and its CRC32.
type LevelsRef struct {
	Generation uint64
	CRC        uint32
}

func appendLevelsRef(dst []byte, ref LevelsRef) []byte {
	dst = binary.AppendUvarint(dst, ref.Generation)
	return binary.LittleEndian.AppendUint32(dst, ref.CRC)
}

func parseLevelsRef(payload []byte) (LevelsRef, []byte, bool) {
	gen, k := binary.Uvarint(payload)
	if k <= 0 || len(payload)-k < 4 {
		return LevelsRef{}, nil, false
	}
	return LevelsRef{Generation: gen, CRC: binary.LittleEndian.Uint32(payload[k:])}, payload[k+4:], true
}

// wireSize returns an upper bound on r's encoded size inside an
// OpLabels payload — the shard's chunking budget unit.
func (r LabelRecord) wireSize() int {
	const idAndPresence = binary.MaxVarintLen32 + 1
	switch {
	case r.Stored:
		return idAndPresence + 3*binary.MaxVarintLen64 + 1 + 4 + 4 + len(r.Data)
	case r.Present:
		return idAndPresence + binary.MaxVarintLen64 + (r.Bits+7)/8
	}
	return idAndPresence
}

// AppendLabelResponse encodes an OpLabels payload: the vertex-id space n
// of the shard's store, then one record per requested vertex — its id,
// a presence byte (0 absent, 1 canonical, 2 unknown, 3 stored), and for
// a canonical record the bit length and bytes; for a stored one the
// canonical bit length, a coding byte (always 1: nested ball records,
// the one FSDL3 encoding), the record CRC, the LevelsRef and the payload
// with its byte length.
func AppendLabelResponse(dst []byte, n int, recs []LabelRecord) []byte {
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = binary.AppendUvarint(dst, uint64(len(recs)))
	for _, r := range recs {
		dst = binary.AppendUvarint(dst, uint64(uint32(r.Vertex)))
		switch {
		case r.Stored:
			dst = append(dst, 3)
			dst = binary.AppendUvarint(dst, uint64(r.Bits))
			dst = append(dst, 1)
			dst = binary.LittleEndian.AppendUint32(dst, r.CRC)
			dst = appendLevelsRef(dst, r.Levels)
			dst = binary.AppendUvarint(dst, uint64(len(r.Data)))
			dst = append(dst, r.Data...)
		case r.Present:
			dst = append(dst, 1)
			dst = binary.AppendUvarint(dst, uint64(r.Bits))
			dst = append(dst, r.Data[:(r.Bits+7)/8]...)
		case r.Unknown:
			dst = append(dst, 2)
		default:
			dst = append(dst, 0)
		}
	}
	return dst
}

// ParseLabelResponse decodes an OpLabels payload. Record data slices
// alias the payload; callers that retain them past the payload's
// lifetime must copy (ReadFrame payloads are freshly allocated, so
// retaining those is safe).
func ParseLabelResponse(payload []byte) (n int, recs []LabelRecord, err error) {
	nv, k := binary.Uvarint(payload)
	if k <= 0 || nv > math.MaxInt32 {
		return 0, nil, fmt.Errorf("cluster: label response: bad vertex space")
	}
	payload = payload[k:]
	count, k := binary.Uvarint(payload)
	if k <= 0 {
		return 0, nil, fmt.Errorf("cluster: label response: bad count")
	}
	payload = payload[k:]
	// Each record costs at least two bytes (id + presence byte).
	if count > uint64(len(payload)) {
		return 0, nil, fmt.Errorf("cluster: label response: count %d exceeds payload", count)
	}
	recs = make([]LabelRecord, 0, count)
	for i := uint64(0); i < count; i++ {
		v, k := binary.Uvarint(payload)
		if k <= 0 {
			return 0, nil, fmt.Errorf("cluster: label response: truncated id %d", i)
		}
		if v >= nv {
			return 0, nil, fmt.Errorf("cluster: label response: vertex %d out of range [0,%d)", v, nv)
		}
		payload = payload[k:]
		if len(payload) == 0 {
			return 0, nil, fmt.Errorf("cluster: label response: missing presence byte for record %d", i)
		}
		present := payload[0]
		payload = payload[1:]
		rec := LabelRecord{Vertex: int32(v)}
		switch present {
		case 0:
		case 2:
			rec.Unknown = true
		case 1:
			bits, k := binary.Uvarint(payload)
			if k <= 0 {
				return 0, nil, fmt.Errorf("cluster: label response: truncated bit length for record %d", i)
			}
			if bits > maxWireLabelBits {
				return 0, nil, fmt.Errorf("cluster: label response: implausible label size %d bits", bits)
			}
			payload = payload[k:]
			nbytes := int((bits + 7) / 8)
			if nbytes > len(payload) {
				return 0, nil, fmt.Errorf("cluster: label response: record %d wants %d bytes, %d left", i, nbytes, len(payload))
			}
			rec.Present = true
			rec.Bits = int(bits)
			rec.Data = payload[:nbytes:nbytes]
			payload = payload[nbytes:]
		case 3:
			bits, k := binary.Uvarint(payload)
			if k <= 0 || bits > maxWireLabelBits {
				return 0, nil, fmt.Errorf("cluster: label response: bad bit length for stored record %d", i)
			}
			payload = payload[k:]
			if len(payload) < 5 || payload[0] != 1 {
				return 0, nil, fmt.Errorf("cluster: label response: bad coding or checksum of stored record %d", i)
			}
			rec.CRC = binary.LittleEndian.Uint32(payload[1:])
			ref, rest, ok := parseLevelsRef(payload[5:])
			if !ok {
				return 0, nil, fmt.Errorf("cluster: label response: truncated level graphs of stored record %d", i)
			}
			size, k := binary.Uvarint(rest)
			if k <= 0 || size > uint64(len(rest)-k) {
				return 0, nil, fmt.Errorf("cluster: label response: stored record %d overruns the payload", i)
			}
			payload = rest[k:]
			rec.Present, rec.Stored, rec.Bits, rec.Levels = true, true, int(bits), ref
			rec.Data = payload[:size:size]
			payload = payload[size:]
		default:
			return 0, nil, fmt.Errorf("cluster: label response: bad presence byte %d", present)
		}
		recs = append(recs, rec)
	}
	if len(payload) != 0 {
		return 0, nil, fmt.Errorf("cluster: label response: %d trailing bytes", len(payload))
	}
	return int(nv), recs, nil
}

// Pong flag bits (the third varint of an OpPong payload).
const (
	// PongNonAuthoritative marks a shard that cannot treat an absent
	// record as an authoritative miss: its store was salvage-loaded
	// with truncation, or it booted empty and is awaiting repair. The
	// flag clears when the repairer seals the shard.
	PongNonAuthoritative uint64 = 1 << 0
)

// AppendPong encodes an OpPong payload: the shard's vertex space, how
// many labels its partition holds, its status flag bits, and the label
// generation its current store serves.
func AppendPong(dst []byte, n, labels int, flags, generation uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = binary.AppendUvarint(dst, uint64(labels))
	dst = binary.AppendUvarint(dst, flags)
	return binary.AppendUvarint(dst, generation)
}

// ParsePong decodes an OpPong payload.
func ParsePong(payload []byte) (n, labels int, flags, generation uint64, err error) {
	nv, k := binary.Uvarint(payload)
	if k <= 0 || nv > math.MaxInt32 {
		return 0, 0, 0, 0, fmt.Errorf("cluster: pong: bad vertex space")
	}
	payload = payload[k:]
	lv, k := binary.Uvarint(payload)
	if k <= 0 || lv > math.MaxInt32 {
		return 0, 0, 0, 0, fmt.Errorf("cluster: pong: bad label count")
	}
	payload = payload[k:]
	flags, k = binary.Uvarint(payload)
	if k <= 0 {
		return 0, 0, 0, 0, fmt.Errorf("cluster: pong: bad flags")
	}
	payload = payload[k:]
	generation, k = binary.Uvarint(payload)
	if k <= 0 {
		return 0, 0, 0, 0, fmt.Errorf("cluster: pong: bad generation")
	}
	if len(payload[k:]) != 0 {
		return 0, 0, 0, 0, fmt.Errorf("cluster: pong: trailing bytes")
	}
	return int(nv), int(lv), flags, generation, nil
}

// AppendGenLabelRequest encodes an OpGetLabelsGen payload: the target
// generation followed by the standard label request.
func AppendGenLabelRequest(dst []byte, generation uint64, ids []int32) []byte {
	dst = binary.AppendUvarint(dst, generation)
	return AppendLabelRequest(dst, ids)
}

// ParseGenLabelRequest decodes an OpGetLabelsGen payload.
func ParseGenLabelRequest(payload []byte) (generation uint64, ids []int32, err error) {
	generation, k := binary.Uvarint(payload)
	if k <= 0 {
		return 0, nil, fmt.Errorf("cluster: label request: bad generation")
	}
	ids, err = ParseLabelRequest(payload[k:])
	return generation, ids, err
}

// AppendGeneration encodes an OpLoadGeneration or OpGenLoaded payload:
// a single uvarint generation id.
func AppendGeneration(dst []byte, generation uint64) []byte {
	return binary.AppendUvarint(dst, generation)
}

// ParseGeneration decodes an OpLoadGeneration / OpGenLoaded payload.
func ParseGeneration(payload []byte) (uint64, error) {
	generation, k := binary.Uvarint(payload)
	if k <= 0 {
		return 0, fmt.Errorf("cluster: bad generation payload")
	}
	if len(payload[k:]) != 0 {
		return 0, fmt.Errorf("cluster: generation payload: trailing bytes")
	}
	return generation, nil
}

// AppendLevelsRequest encodes an OpGetLevels payload: the section wanted
// and the byte offset to read it from.
func AppendLevelsRequest(dst []byte, ref LevelsRef, offset uint64) []byte {
	return binary.AppendUvarint(appendLevelsRef(dst, ref), offset)
}

// ParseLevelsRequest decodes an OpGetLevels payload.
func ParseLevelsRequest(payload []byte) (ref LevelsRef, offset uint64, err error) {
	ref, rest, ok := parseLevelsRef(payload)
	if !ok {
		return LevelsRef{}, 0, fmt.Errorf("cluster: level-graphs request: truncated section name")
	}
	offset, k := binary.Uvarint(rest)
	if k <= 0 || k != len(rest) {
		return LevelsRef{}, 0, fmt.Errorf("cluster: level-graphs request: bad offset")
	}
	return ref, offset, nil
}

// AppendLevelsChunk encodes an OpLevels payload: the section, its total
// length, the offset of this chunk, then the chunk's bytes to the end of
// the payload.
func AppendLevelsChunk(dst []byte, ref LevelsRef, total, offset uint64, chunk []byte) []byte {
	dst = appendLevelsRef(dst, ref)
	dst = binary.AppendUvarint(dst, total)
	dst = binary.AppendUvarint(dst, offset)
	return append(dst, chunk...)
}

// ParseLevelsChunk decodes an OpLevels payload. The chunk aliases the
// payload and lies inside [0, total), total at most maxLevelsBytes.
func ParseLevelsChunk(payload []byte) (ref LevelsRef, total, offset uint64, chunk []byte, err error) {
	ref, rest, ok := parseLevelsRef(payload)
	if !ok {
		return LevelsRef{}, 0, 0, nil, fmt.Errorf("cluster: level-graphs chunk: truncated section name")
	}
	total, k := binary.Uvarint(rest)
	if k <= 0 || total > maxLevelsBytes {
		return LevelsRef{}, 0, 0, nil, fmt.Errorf("cluster: level-graphs chunk: bad section length")
	}
	rest = rest[k:]
	offset, k = binary.Uvarint(rest)
	if k <= 0 || offset > total || uint64(len(rest)-k) > total-offset {
		return LevelsRef{}, 0, 0, nil, fmt.Errorf("cluster: level-graphs chunk: bytes outside the section")
	}
	return ref, total, offset, rest[k:], nil
}

// AppendAuditResponse encodes an OpAuditResp payload: the shard's
// vertex space (the same cross-check every label response carries) and
// the requested ids the shard cannot serve.
func AppendAuditResponse(dst []byte, n int, missing []int32) []byte {
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = binary.AppendUvarint(dst, uint64(len(missing)))
	for _, v := range missing {
		dst = binary.AppendUvarint(dst, uint64(uint32(v)))
	}
	return dst
}

// ParseAuditResponse decodes an OpAuditResp payload.
func ParseAuditResponse(payload []byte) (n int, missing []int32, err error) {
	nv, k := binary.Uvarint(payload)
	if k <= 0 || nv > math.MaxInt32 {
		return 0, nil, fmt.Errorf("cluster: audit response: bad vertex space")
	}
	payload = payload[k:]
	count, k := binary.Uvarint(payload)
	if k <= 0 {
		return 0, nil, fmt.Errorf("cluster: audit response: bad missing count")
	}
	payload = payload[k:]
	// Every missing id costs at least one byte.
	if count > uint64(len(payload)) {
		return 0, nil, fmt.Errorf("cluster: audit response: missing count %d exceeds payload", count)
	}
	missing = make([]int32, 0, count)
	for i := uint64(0); i < count; i++ {
		v, k := binary.Uvarint(payload)
		if k <= 0 {
			return 0, nil, fmt.Errorf("cluster: audit response: truncated missing id %d", i)
		}
		if v >= nv {
			return 0, nil, fmt.Errorf("cluster: audit response: missing id %d out of range [0,%d)", v, nv)
		}
		payload = payload[k:]
		missing = append(missing, int32(v))
	}
	if len(payload) != 0 {
		return 0, nil, fmt.Errorf("cluster: audit response: %d trailing bytes", len(payload))
	}
	return int(nv), missing, nil
}

// maxRepairSourceLen bounds the source-address field of an OpRepairPull
// so a hostile frame cannot make the shard dial a megabyte "address".
const maxRepairSourceLen = 256

// AppendRepairRequest encodes an OpRepairPull payload: the address of
// the replica to pull from, then the vertex ids to install.
func AppendRepairRequest(dst []byte, source string, ids []int32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(source)))
	dst = append(dst, source...)
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	for _, v := range ids {
		dst = binary.AppendUvarint(dst, uint64(uint32(v)))
	}
	return dst
}

// ParseRepairRequest decodes an OpRepairPull payload.
func ParseRepairRequest(payload []byte) (source string, ids []int32, err error) {
	slen, k := binary.Uvarint(payload)
	if k <= 0 || slen > maxRepairSourceLen {
		return "", nil, fmt.Errorf("cluster: repair request: bad source length")
	}
	payload = payload[k:]
	if slen == 0 || uint64(len(payload)) < slen {
		return "", nil, fmt.Errorf("cluster: repair request: truncated source address")
	}
	source = string(payload[:slen])
	payload = payload[slen:]
	count, k := binary.Uvarint(payload)
	if k <= 0 {
		return "", nil, fmt.Errorf("cluster: repair request: bad id count")
	}
	payload = payload[k:]
	if count == 0 {
		return "", nil, fmt.Errorf("cluster: repair request: no ids")
	}
	if count > uint64(len(payload)) {
		return "", nil, fmt.Errorf("cluster: repair request: count %d exceeds payload", count)
	}
	ids = make([]int32, 0, count)
	for i := uint64(0); i < count; i++ {
		v, k := binary.Uvarint(payload)
		if k <= 0 {
			return "", nil, fmt.Errorf("cluster: repair request: truncated id %d", i)
		}
		if v > math.MaxInt32 {
			return "", nil, fmt.Errorf("cluster: repair request: id %d out of range", v)
		}
		payload = payload[k:]
		ids = append(ids, int32(v))
	}
	if len(payload) != 0 {
		return "", nil, fmt.Errorf("cluster: repair request: %d trailing bytes", len(payload))
	}
	return source, ids, nil
}

// AppendRepairResponse encodes an OpRepairPulled payload: how many
// records the shard installed and how many it could not.
func AppendRepairResponse(dst []byte, installed, failed int) []byte {
	dst = binary.AppendUvarint(dst, uint64(installed))
	return binary.AppendUvarint(dst, uint64(failed))
}

// ParseRepairResponse decodes an OpRepairPulled payload.
func ParseRepairResponse(payload []byte) (installed, failed int, err error) {
	iv, k := binary.Uvarint(payload)
	if k <= 0 || iv > math.MaxInt32 {
		return 0, 0, fmt.Errorf("cluster: repair response: bad installed count")
	}
	payload = payload[k:]
	fv, k := binary.Uvarint(payload)
	if k <= 0 || fv > math.MaxInt32 {
		return 0, 0, fmt.Errorf("cluster: repair response: bad failed count")
	}
	if len(payload[k:]) != 0 {
		return 0, 0, fmt.Errorf("cluster: repair response: trailing bytes")
	}
	return int(iv), int(fv), nil
}
