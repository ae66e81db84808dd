package cluster

import (
	"bytes"
	"hash/crc32"
	"testing"

	"fsdl/internal/frame"
	"fsdl/internal/labelstore"
)

// FuzzDecodeFrame throws arbitrary bytes at the payload codecs behind
// the wire frame — the shard/frontend boundary parses these straight off
// a TCP socket, so, like DecodeRouteHeader, they must never panic, never
// allocate from an attacker-chosen length field, and must round-trip
// everything they accept. (The frame codec itself is fuzzed where it
// lives: FuzzDecode in internal/frame.)
func FuzzDecodeFrame(f *testing.F) {
	// Well-formed seeds for every op.
	f.Add(frame.Append(nil, OpGetLabelsGen, AppendGenLabelRequest(nil, 0, []int32{0, 5, 99})))
	f.Add(frame.Append(nil, OpLabels, AppendLabelResponse(nil, 100, []LabelRecord{
		{Vertex: 5, Present: true, Bits: 19, Data: []byte{1, 2, 3}},
		{Vertex: 7},
		{Vertex: 9, Unknown: true},
	})))
	f.Add(frame.Append(nil, OpLabelsPart, AppendLabelResponse(nil, 100, []LabelRecord{
		{Vertex: 1, Present: true, Bits: 8, Data: []byte{0xaa}},
	})))
	f.Add(frame.Append(nil, OpPing, nil))
	f.Add(frame.Append(nil, OpPong, AppendPong(nil, 256, 86, 0, 1)))
	f.Add(frame.Append(nil, OpPong, AppendPong(nil, 256, 0, PongNonAuthoritative, 7)))
	f.Add(frame.Append(nil, OpGetLabelsGen, AppendGenLabelRequest(nil, 3, []int32{0, 5, 99})))
	f.Add(frame.Append(nil, OpLoadGeneration, AppendGeneration(nil, 4)))
	f.Add(frame.Append(nil, OpGenLoaded, AppendGeneration(nil, 4)))
	f.Add(frame.Append(nil, OpError, []byte("shard: boom")))
	f.Add(frame.Append(nil, OpAudit, AppendLabelRequest(nil, []int32{3, 4, 5})))
	f.Add(frame.Append(nil, OpAuditResp, AppendAuditResponse(nil, 100, []int32{4})))
	f.Add(frame.Append(nil, OpRepairPull, AppendRepairRequest(nil, "127.0.0.1:9001", []int32{4, 7})))
	f.Add(frame.Append(nil, OpRepairPulled, AppendRepairResponse(nil, 2, 0)))
	f.Add(frame.Append(nil, OpSeal, nil))
	f.Add(frame.Append(nil, OpSealed, nil))
	// Two frames back to back.
	two := frame.Append(nil, OpPing, nil)
	f.Add(frame.Append(two, OpPong, AppendPong(nil, 9, 9, 0, 2)))
	// Degenerate and adversarial seeds.
	f.Add([]byte{})
	f.Add([]byte{'F', 'C', 1, OpLabels, 0xff, 0xff, 0xff, 0xff})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	// The stored path: a response mixing the stored presence value with
	// the others, its request, and a real level-graphs section asked for
	// and answered whole (its CRC the one records name) and in part.
	levels := LevelsRef{Generation: 2, CRC: 0x5eed}
	f.Add(frame.Append(nil, OpLabels, AppendLabelResponse(nil, 100, []LabelRecord{
		{Vertex: 5, Present: true, Stored: true, Nested: true, Bits: 300, CRC: 0xfeedface, Levels: levels, Data: []byte{9, 8, 7}},
		{Vertex: 6, Present: true, Bits: 8, Data: []byte{0xaa}},
		{Vertex: 7, Present: true, Stored: true, Bits: 40, Levels: levels},
		{Vertex: 8, Unknown: true},
	})))
	f.Add(frame.Append(nil, OpGetLabelsStored, AppendGenLabelRequest(nil, 2, []int32{5, 6, 7, 8})))
	section := mustScheme(f, ringLattice(64)).LevelGraphs().Encode()
	ring := LevelsRef{Generation: 2, CRC: crc32.ChecksumIEEE(section)}
	f.Add(frame.Append(nil, OpGetLevels, AppendLevelsRequest(nil, ring, 0)))
	f.Add(frame.Append(nil, OpLevels, AppendLevelsChunk(nil, ring, uint64(len(section)), 0, section)))
	f.Add(frame.Append(nil, OpLevels, AppendLevelsChunk(nil, ring, uint64(len(section)), 64, section[64:128])))

	f.Fuzz(func(t *testing.T, data []byte) {
		op, payload, _, err := frame.Decode(data)
		if err != nil {
			return
		}
		// Accepted payloads reach a fixed point through their op's codec:
		// parse → encode → parse must reproduce the encoding exactly.
		// (Byte-equality with the *input* is not required — varints admit
		// non-canonical encodings the parser tolerates but never emits.)
		switch op {
		case OpAudit:
			ids, err := ParseLabelRequest(payload)
			if err != nil {
				return
			}
			if len(ids) > len(payload) {
				t.Fatalf("%d ids decoded from %d payload bytes", len(ids), len(payload))
			}
			enc := AppendLabelRequest(nil, ids)
			ids2, err := ParseLabelRequest(enc)
			if err != nil {
				t.Fatalf("re-parse of accepted label request failed: %v", err)
			}
			if !bytes.Equal(AppendLabelRequest(nil, ids2), enc) {
				t.Fatal("label request does not round-trip")
			}
		case OpLabels, OpLabelsPart:
			n, recs, err := ParseLabelResponse(payload)
			if err != nil {
				return
			}
			if len(recs) > len(payload) {
				t.Fatalf("%d records decoded from %d payload bytes", len(recs), len(payload))
			}
			for _, r := range recs {
				if r.Stored && (!r.Present || r.Unknown) {
					t.Fatalf("record %d both stored and present=%v unknown=%v", r.Vertex, r.Present, r.Unknown)
				}
				if len(r.Data) > len(payload) {
					t.Fatalf("record data %d bytes exceeds payload %d", len(r.Data), len(payload))
				}
			}
			enc := AppendLabelResponse(nil, n, recs)
			n2, recs2, err := ParseLabelResponse(enc)
			if err != nil {
				t.Fatalf("re-parse of accepted label response failed: %v", err)
			}
			if !bytes.Equal(AppendLabelResponse(nil, n2, recs2), enc) {
				t.Fatal("label response does not round-trip")
			}
		case OpPong:
			n, labels, flags, gen, err := ParsePong(payload)
			if err != nil {
				return
			}
			enc := AppendPong(nil, n, labels, flags, gen)
			n2, l2, fl2, g2, err := ParsePong(enc)
			if err != nil || n2 != n || l2 != labels || fl2 != flags || g2 != gen {
				t.Fatalf("pong does not round-trip: %d/%d/%d/%d vs %d/%d/%d/%d, err %v", n2, l2, fl2, g2, n, labels, flags, gen, err)
			}
		case OpGetLevels:
			ref, off, err := ParseLevelsRequest(payload)
			if err != nil {
				return
			}
			enc := AppendLevelsRequest(nil, ref, off)
			if r2, o2, err := ParseLevelsRequest(enc); err != nil || r2 != ref || o2 != off {
				t.Fatalf("levels request does not round-trip: err %v", err)
			}
		case OpLevels:
			ref, total, off, chunk, err := ParseLevelsChunk(payload)
			if err != nil {
				return
			}
			if len(chunk) > len(payload) {
				t.Fatalf("chunk of %d bytes from %d payload bytes", len(chunk), len(payload))
			}
			enc := AppendLevelsChunk(nil, ref, total, off, chunk)
			r2, t2, o2, c2, err := ParseLevelsChunk(enc)
			if err != nil || r2 != ref || t2 != total || o2 != off || !bytes.Equal(c2, chunk) {
				t.Fatalf("levels chunk does not round-trip: err %v", err)
			}
			// A whole section reaches the level-graphs codec only under the
			// CRC it is named by.
			if off == 0 && uint64(len(chunk)) == total {
				lv, err := labelstore.LoadLevels(chunk, ref.CRC)
				if crc32.ChecksumIEEE(chunk) != ref.CRC && (err == nil || lv != nil) {
					t.Fatal("a section loaded under a CRC it does not match")
				}
			}
		case OpGetLabelsGen, OpGetLabelsStored:
			gen, ids, err := ParseGenLabelRequest(payload)
			if err != nil {
				return
			}
			enc := AppendGenLabelRequest(nil, gen, ids)
			g2, ids2, err := ParseGenLabelRequest(enc)
			if err != nil || g2 != gen || len(ids2) != len(ids) {
				t.Fatalf("gen label request does not round-trip: err %v", err)
			}
		case OpLoadGeneration, OpGenLoaded:
			gen, err := ParseGeneration(payload)
			if err != nil {
				return
			}
			if g2, err := ParseGeneration(AppendGeneration(nil, gen)); err != nil || g2 != gen {
				t.Fatalf("generation payload does not round-trip: err %v", err)
			}
		case OpAuditResp:
			n, missing, err := ParseAuditResponse(payload)
			if err != nil {
				return
			}
			if len(missing) > len(payload) {
				t.Fatalf("%d missing ids decoded from %d payload bytes", len(missing), len(payload))
			}
			enc := AppendAuditResponse(nil, n, missing)
			n2, m2, err := ParseAuditResponse(enc)
			if err != nil || n2 != n {
				t.Fatalf("audit response does not round-trip: err %v", err)
			}
			if !bytes.Equal(AppendAuditResponse(nil, n2, m2), enc) {
				t.Fatal("audit response encoding not a fixed point")
			}
		case OpRepairPull:
			source, ids, err := ParseRepairRequest(payload)
			if err != nil {
				return
			}
			if len(ids) > len(payload) || len(source) > len(payload) {
				t.Fatalf("repair request decoded fields exceed %d payload bytes", len(payload))
			}
			enc := AppendRepairRequest(nil, source, ids)
			s2, ids2, err := ParseRepairRequest(enc)
			if err != nil || s2 != source {
				t.Fatalf("re-parse of accepted repair request failed: %v", err)
			}
			if !bytes.Equal(AppendRepairRequest(nil, s2, ids2), enc) {
				t.Fatal("repair request does not round-trip")
			}
		case OpRepairPulled:
			installed, failed, err := ParseRepairResponse(payload)
			if err != nil {
				return
			}
			i2, f2, err := ParseRepairResponse(AppendRepairResponse(nil, installed, failed))
			if err != nil || i2 != installed || f2 != failed {
				t.Fatalf("repair response does not round-trip: err %v", err)
			}
		}
	})
}
