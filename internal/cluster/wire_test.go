package cluster

import (
	"bytes"
	"testing"
)

func TestLabelRequestRoundTrip(t *testing.T) {
	ids := []int32{0, 1, 7, 1 << 20, 1<<31 - 1}
	got, err := ParseLabelRequest(AppendLabelRequest(nil, ids))
	if err != nil {
		t.Fatalf("ParseLabelRequest: %v", err)
	}
	if len(got) != len(ids) {
		t.Fatalf("got %d ids, want %d", len(got), len(ids))
	}
	for i := range ids {
		if got[i] != ids[i] {
			t.Fatalf("id %d: got %d want %d", i, got[i], ids[i])
		}
	}
	// Lying count fields are rejected before allocation.
	if _, err := ParseLabelRequest([]byte{0xff, 0xff, 0xff, 0xff, 0x7f}); err == nil {
		t.Fatal("oversized count accepted")
	}
}

func TestLabelResponseRoundTrip(t *testing.T) {
	recs := []LabelRecord{
		{Vertex: 3, Present: true, Bits: 12, Data: []byte{0xaa, 0x0b}},
		{Vertex: 9, Present: false},
		{Vertex: 0, Present: true, Bits: 0, Data: nil},
	}
	n, got, err := ParseLabelResponse(AppendLabelResponse(nil, 100, recs))
	if err != nil {
		t.Fatalf("ParseLabelResponse: %v", err)
	}
	if n != 100 || len(got) != len(recs) {
		t.Fatalf("n=%d records=%d", n, len(got))
	}
	for i, r := range recs {
		g := got[i]
		if g.Vertex != r.Vertex || g.Present != r.Present || g.Bits != r.Bits || !bytes.Equal(g.Data, r.Data) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, g, r)
		}
	}
	// Out-of-range vertex is rejected.
	bad := AppendLabelResponse(nil, 2, []LabelRecord{{Vertex: 5}})
	if _, _, err := ParseLabelResponse(bad); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
}

func TestPongRoundTrip(t *testing.T) {
	n, labels, flags, gen, err := ParsePong(AppendPong(nil, 4096, 1365, 0, 1))
	if err != nil || n != 4096 || labels != 1365 || flags != 0 || gen != 1 {
		t.Fatalf("pong round trip: n=%d labels=%d flags=%d gen=%d err=%v", n, labels, flags, gen, err)
	}
	n, labels, flags, gen, err = ParsePong(AppendPong(nil, 9, 0, PongNonAuthoritative, 12))
	if err != nil || n != 9 || labels != 0 || flags != PongNonAuthoritative || gen != 12 {
		t.Fatalf("flagged pong round trip: n=%d labels=%d flags=%d gen=%d err=%v", n, labels, flags, gen, err)
	}
	// The generation varint is required — a three-field pong is torn.
	if _, _, _, _, err := ParsePong(AppendPong(nil, 9, 0, 0, 1)[:3]); err == nil {
		t.Fatal("truncated pong accepted")
	}
}

func TestGenPayloadRoundTrips(t *testing.T) {
	gen, ids, err := ParseGenLabelRequest(AppendGenLabelRequest(nil, 5, []int32{1, 2, 3}))
	if err != nil || gen != 5 || len(ids) != 3 || ids[2] != 3 {
		t.Fatalf("gen label request round trip: gen=%d ids=%v err=%v", gen, ids, err)
	}
	g, err := ParseGeneration(AppendGeneration(nil, 42))
	if err != nil || g != 42 {
		t.Fatalf("generation round trip: g=%d err=%v", g, err)
	}
	if _, err := ParseGeneration(append(AppendGeneration(nil, 42), 0)); err == nil {
		t.Fatal("trailing bytes accepted in generation payload")
	}
}

func TestAuditResponseRoundTrip(t *testing.T) {
	missing := []int32{1, 5, 99}
	n, m, err := ParseAuditResponse(AppendAuditResponse(nil, 100, missing))
	if err != nil || n != 100 {
		t.Fatalf("audit round trip: n=%d err=%v", n, err)
	}
	if len(m) != len(missing) || m[0] != 1 || m[2] != 99 {
		t.Fatalf("missing ids round trip: %v", m)
	}
	// A missing id at or past n is rejected, and so are trailing bytes.
	if _, _, err := ParseAuditResponse(AppendAuditResponse(nil, 10, []int32{10})); err == nil {
		t.Fatal("out-of-range missing id accepted")
	}
	if _, _, err := ParseAuditResponse(append(AppendAuditResponse(nil, 10, nil), 0)); err == nil {
		t.Fatal("trailing bytes accepted in audit response")
	}
}

func TestRepairRequestRoundTrip(t *testing.T) {
	src, ids, err := ParseRepairRequest(AppendRepairRequest(nil, "10.0.0.7:9002", []int32{3, 4}))
	if err != nil || src != "10.0.0.7:9002" || len(ids) != 2 || ids[1] != 4 {
		t.Fatalf("repair request round trip: src=%q ids=%v err=%v", src, ids, err)
	}
	if _, _, err := ParseRepairRequest(AppendRepairRequest(nil, "", []int32{1})); err == nil {
		t.Fatal("empty source accepted")
	}
	if _, _, err := ParseRepairRequest(AppendRepairRequest(nil, "x:1", nil)); err == nil {
		t.Fatal("empty id list accepted")
	}
	installed, failed, err := ParseRepairResponse(AppendRepairResponse(nil, 7, 2))
	if err != nil || installed != 7 || failed != 2 {
		t.Fatalf("repair response round trip: %d/%d err=%v", installed, failed, err)
	}
}

func TestStoredRecordRoundTrip(t *testing.T) {
	recs := []LabelRecord{
		{Vertex: 4, Present: true, Stored: true, Bits: 11563, CRC: 0xdeadbeef,
			Levels: LevelsRef{Generation: 3, CRC: 0x01020304}, Data: []byte{1, 2, 3, 4, 5}},
		{Vertex: 5, Present: true, Bits: 12, Data: []byte{0xaa, 0x0b}},
		{Vertex: 6, Present: true, Stored: true, Bits: 9, CRC: 7, Levels: LevelsRef{Generation: 1 << 40}},
		{Vertex: 7, Unknown: true},
	}
	enc := AppendLabelResponse(nil, 100, recs)
	_, got, err := ParseLabelResponse(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		g := got[i]
		if g.Stored != r.Stored || g.CRC != r.CRC || g.Levels != r.Levels ||
			g.Bits != r.Bits || g.Present != r.Present || g.Unknown != r.Unknown || !bytes.Equal(g.Data, r.Data) {
			t.Fatalf("record %d: %+v, sent %+v", i, g, r)
		}
	}
	if !bytes.Equal(AppendLabelResponse(nil, 100, got), enc) {
		t.Fatal("stored records do not re-encode to the same bytes")
	}
	// The coding byte is always 1 (nested ball records, the one FSDL3
	// encoding); any other, and a payload longer than what is left, are
	// refused. The coding byte sits before the record CRC, the LevelsRef
	// (a one-byte generation here), the payload length and the payload.
	one := AppendLabelResponse(nil, 100, recs[:1])
	at := len(one) - len(recs[0].Data) - 1 - 4 - 1 - 4 - 1
	if one[at] != 1 {
		t.Fatalf("a stored record goes out with coding byte %d, want 1", one[at])
	}
	codingByte := func(b byte) []byte {
		out := bytes.Clone(one)
		out[at] = b
		return out
	}
	for name, bad := range map[string][]byte{
		"coding byte 0":     codingByte(0),
		"coding byte 2":     codingByte(2),
		"payload truncated": one[:len(one)-1],
	} {
		if _, _, err := ParseLabelResponse(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestLevelsPayloadRoundTrip(t *testing.T) {
	ref := LevelsRef{Generation: 9, CRC: 0xcafef00d}
	gotRef, off, err := ParseLevelsRequest(AppendLevelsRequest(nil, ref, 4062))
	if err != nil || gotRef != ref || off != 4062 {
		t.Fatalf("levels request: %+v at %d, %v", gotRef, off, err)
	}
	chunk := []byte("level graphs")
	gotRef, total, off, gotChunk, err := ParseLevelsChunk(AppendLevelsChunk(nil, ref, 100, 40, chunk))
	if err != nil || gotRef != ref || total != 100 || off != 40 || !bytes.Equal(gotChunk, chunk) {
		t.Fatalf("levels chunk: %+v %d %d %q, %v", gotRef, total, off, gotChunk, err)
	}
	for name, bad := range map[string][]byte{
		"chunk past the section":  AppendLevelsChunk(nil, ref, 45, 40, chunk),
		"offset past the section": AppendLevelsChunk(nil, ref, 10, 11, nil),
		"section past the bound":  AppendLevelsChunk(nil, ref, maxLevelsBytes+1, 0, nil),
	} {
		if _, _, _, _, err := ParseLevelsChunk(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, _, err := ParseLevelsRequest(append(AppendLevelsRequest(nil, ref, 0), 0)); err == nil {
		t.Error("a levels request with trailing bytes accepted")
	}
}
