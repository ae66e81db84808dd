package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fsdl/internal/core"
	"fsdl/internal/frame"
	"fsdl/internal/gen"
	"fsdl/internal/labelstore"
)

// unparsableFirstRecord zeroes the first record's payload in a factored
// FSDL3 file and reseals its index CRC, returning the record's vertex.
// The record then passes every CRC check and parses as nothing: a zero
// run never ends the first level's count.
func unparsableFirstRecord(t *testing.T, path string) int {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	dataOff := le.Uint64(buf[24:])
	ent := buf[4096:]
	victim, bits := le.Uint32(ent), le.Uint32(ent[4:])
	payload := buf[dataOff+le.Uint64(ent[8:]):][:le.Uint32(ent[16:])]
	clear(payload)
	h := crc32.NewIEEE()
	h.Write(binary.AppendUvarint(binary.AppendUvarint(nil, uint64(victim)), uint64(bits)))
	h.Write(payload)
	le.PutUint32(ent[20:], h.Sum32())
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return int(victim)
}

// TestRepairAuditHealsFactoredPartition runs the repairer against a
// damaged factored partition. Two shards at replication 2 each serve
// the scheme's factored file from an mmap; shard0's copy of one record
// is damaged.
//
//   - crc: a flipped payload byte, never read. The audit's CRC check
//     finds it, the sweep pulls the record from shard1, shard0 serves it,
//     and the next sweep converges.
//   - unparsable: a payload that passes its CRC and does not parse. The
//     audit reads no payload past the CRC, so the record counts as
//     present until a read condemns it. The damaged shard is the
//     victim's first owner and only the frontend reads it: the frontend
//     drops the copy, fails over, and has the shard read the record
//     canonically, which condemns it there; the repair hint it files
//     wakes a sweep that pulls the record, and the sweep after converges.
func TestRepairAuditHealsFactoredPartition(t *testing.T) {
	g := gen.Grid2D(6, 6)
	s, err := core.BuildScheme(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		damage    func(*testing.T, string) int
		crcIntact bool
	}{
		{"crc", corruptFirstRecord, false},
		{"unparsable", unparsableFirstRecord, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			m := &Membership{Replication: 2}
			var stores []*labelstore.Store
			names, paths := []string{"shard0", "shard1"}, make([]string, 2)
			for i, name := range names {
				paths[i] = filepath.Join(dir, name+".fsdl")
				f, err := os.Create(paths[i])
				if err != nil {
					t.Fatal(err)
				}
				if err := labelstore.Write(f, labelstore.FromScheme(s), nil); err != nil {
					t.Fatal(err)
				}
				f.Close()
			}
			victim := tc.damage(t, paths[0])
			// The damaged copy serves under the name that makes it the
			// victim's first owner, so a frontend read goes to it first.
			if NewRing([]Node{{Name: names[0]}, {Name: names[1]}}, 2).Owners(int32(victim), nil)[0] != 0 {
				names[0], names[1] = names[1], names[0]
			}
			for i, name := range names {
				st, err := labelstore.Open(paths[i])
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { st.Close() })
				if enc := st.Encoding(); !enc.Factored {
					t.Fatalf("%s serves %+v, want a factored file", name, enc)
				}
				srv, err := NewShardServer(ShardConfig{Store: st, Name: name})
				if err != nil {
					t.Fatal(err)
				}
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				go srv.Serve(ln)
				t.Cleanup(func() { srv.Close() })
				m.Nodes = append(m.Nodes, Node{Name: name, Addr: ln.Addr().String()})
				stores = append(stores, st)
			}
			damaged := stores[0]
			fe := newTestFrontend(t, &testCluster{membership: m}, func(cfg *FrontendConfig) {
				cfg.RepairInterval = time.Hour // sweeps run when the test says
			})
			waitHealthy(t, fe)
			sweep := func(when string, wantRepaired int64, wantConverged bool) {
				t.Helper()
				before := fe.rep.repaired.Load()
				fe.rep.sweep()
				rs := fe.Status().Repair
				if got := rs.Repaired - before; got != wantRepaired || rs.Converged != wantConverged {
					t.Fatalf("%s: sweep repaired %d records, converged %v (last error %q); want %d, %v",
						when, got, rs.Converged, rs.LastError, wantRepaired, wantConverged)
				}
			}

			if tc.crcIntact {
				sweep("before any read", 0, true)
				sweeps, repaired := fe.rep.sweeps.Load(), fe.rep.repaired.Load()
				if l, err := fe.Label(context.Background(), victim); err != nil || l.V != int32(victim) {
					t.Fatalf("the frontend's read of %d: %v", victim, err)
				}
				// The hinted sweep stores converged=false as it ends.
				deadline := time.Now().Add(5 * time.Second)
				for fe.rep.repaired.Load() == repaired || fe.Status().Repair.Converged {
					if time.Now().After(deadline) {
						t.Fatalf("no sweep pulled the record after the frontend's read (Has=%v, %+v)", damaged.Has(victim), fe.Status().Repair)
					}
					time.Sleep(5 * time.Millisecond)
				}
				if got := fe.rep.sweeps.Load() - sweeps; got != 1 || fe.rep.repaired.Load()-repaired != 1 {
					t.Fatalf("the frontend's read woke %d sweeps, which repaired %d records; want 1 and 1", got, fe.rep.repaired.Load()-repaired)
				}
			} else {
				sweep("audit of the damaged record", 1, false)
			}
			if !damaged.Has(victim) || damaged.Unknown(victim) {
				t.Fatalf("after the pull: Has=%v Unknown=%v", damaged.Has(victim), damaged.Unknown(victim))
			}
			want, wantBits := s.Label(victim).Encode()
			for _, op := range []byte{OpGetLabelsGen, OpGetLabelsStored} {
				rec := fetchOne(t, m.Nodes[0].Addr, op, 0, victim)
				if !rec.Present || rec.Stored || rec.Bits != wantBits || !bytes.Equal(rec.Data, want) {
					t.Fatalf("op %d: shard0 serves the healed record as present=%v stored=%v bits=%d, want the scheme's %d canonical bits",
						op, rec.Present, rec.Stored, rec.Bits, wantBits)
				}
			}
			sweep("the sweep after the pull", 0, true)
		})
	}
}

// waitHealthy waits until every shard has answered a health probe.
func waitHealthy(t *testing.T, fe *Frontend) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ok := true
		for _, h := range fe.Status().Shards {
			ok = ok && h.Healthy
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("shards never all healthy")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fetchOne asks the shard at addr for v's record with a label op,
// tagged with generation gen (0: the current one).
func fetchOne(t *testing.T, addr string, op byte, gen uint64, v int) LabelRecord {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := frame.Write(conn, op, AppendGenLabelRequest(nil, gen, []int32{int32(v)})); err != nil {
		t.Fatal(err)
	}
	rop, payload, err := frame.Read(conn)
	if err != nil || rop != OpLabels {
		t.Fatalf("op %d: answered op %d, err %v", op, rop, err)
	}
	_, recs, err := ParseLabelResponse(payload)
	if err != nil || len(recs) != 1 {
		t.Fatalf("op %d: bad response (%d records): %v", op, len(recs), err)
	}
	return recs[0]
}
