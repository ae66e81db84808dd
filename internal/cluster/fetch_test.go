package cluster

import (
	"context"
	"encoding/hex"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"fsdl/internal/frame"
)

// recordedRequest is the OpGetLabelsGen frame for generation 7, ids
// {2, 7}, as both label-fetch clients of the commit before they became
// one (PR 17, 60e40f5) put it on the wire — the frontend's
// shardClient.getLabels and ShardServer.repairPull, recorded off a
// loopback listener.
const recordedRequest = "4643010d0400000007020207f5e60da1"

// recordedStoredRequest is the frontend's request for the same records
// as stored: the payload above under OpGetLabelsStored.
const recordedStoredRequest = "4643011104000000070202079057f9eb"

// fetchOverPipe runs fetchLabels(gen 7, ids {2,7}, n 16) against a peer
// that checks the request bytes and then writes the given reply frames.
func fetchOverPipe(t *testing.T, reply ...[]byte) (map[int32]LabelRecord, error) {
	t.Helper()
	client, peer := net.Pipe()
	defer client.Close()
	go func() {
		defer peer.Close()
		op, p, err := frame.Read(peer)
		if err != nil {
			t.Errorf("peer read: %v", err)
			return
		}
		if got := hex.EncodeToString(frame.Append(nil, op, p)); got != recordedRequest {
			t.Errorf("request frame %s, recorded %s", got, recordedRequest)
		}
		for _, fr := range reply {
			if _, err := peer.Write(fr); err != nil {
				return // the client hung up on an error reply
			}
		}
	}()
	client.SetDeadline(time.Now().Add(5 * time.Second))
	out := make(map[int32]LabelRecord)
	err := fetchLabels(client, "shard s0", OpGetLabelsGen, 7, []int32{2, 7}, 16, out)
	return out, err
}

// TestFetchLabelsExchange drives the one label-fetch exchange directly:
// a chunked reply is reassembled, and an OpError, a foreign vertex
// space, a frame-cap overrun and a stray op each end it with the error
// the callers act on.
func TestFetchLabelsExchange(t *testing.T) {
	labels := func(op byte, n int, recs ...LabelRecord) []byte {
		return frame.Append(nil, op, AppendLabelResponse(nil, n, recs))
	}
	rec2 := LabelRecord{Vertex: 2, Present: true, Bits: 12, Data: []byte{0xab, 0xc0}}
	rec7 := LabelRecord{Vertex: 7, Unknown: true}

	out, err := fetchOverPipe(t, labels(OpLabelsPart, 16, rec2), labels(OpLabels, 16, rec7))
	if err != nil {
		t.Fatalf("chunked reply: %v", err)
	}
	if got := out[2]; len(out) != 2 || !got.Present || got.Bits != 12 || string(got.Data) != string(rec2.Data) || !out[7].Unknown {
		t.Fatalf("chunked reply reassembled as %+v", out)
	}

	_, err = fetchOverPipe(t, frame.Append(nil, OpError, []byte("s0: generation 7 not held (serving 6)")))
	if !errors.Is(err, errShardError) || !strings.Contains(err.Error(), "generation 7 not held") {
		t.Errorf("OpError reply: %v", err)
	}

	_, err = fetchOverPipe(t, labels(OpLabels, 25, rec2))
	if err == nil || errors.Is(err, errShardError) || err.Error() != "cluster: shard s0 serves vertex space 25, want 16" {
		t.Errorf("foreign vertex space: %v", err)
	}

	// Two ids allow two continuations; the third is one too many, however
	// well-formed.
	part := labels(OpLabelsPart, 16, rec2)
	_, err = fetchOverPipe(t, part, part, part, labels(OpLabels, 16, rec7))
	if err == nil || err.Error() != "cluster: response exceeded 3 frames" {
		t.Errorf("frame-cap overrun: %v", err)
	}

	_, err = fetchOverPipe(t, frame.Append(nil, OpPong, nil))
	if err == nil || errors.Is(err, errShardError) || !strings.Contains(err.Error(), "unexpected response op") {
		t.Errorf("stray op: %v", err)
	}
}

// TestFetchClientsPutRecordedRequestOnWire: a shard's repair pull sends,
// for the same generation and ids, exactly the frame its predecessors
// sent, and the pooled frontend client the same payload asking for
// records as stored.
func TestFetchClientsPutRecordedRequestOnWire(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	seen := make(chan string, 2)
	reply := AppendLabelResponse(nil, 16, []LabelRecord{{Vertex: 2}, {Vertex: 7}})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					op, p, err := frame.Read(conn)
					if err != nil {
						return
					}
					seen <- hex.EncodeToString(frame.Append(nil, op, p))
					if frame.Write(conn, OpLabels, reply) != nil {
						return
					}
				}
			}()
		}
	}()
	addr := ln.Addr().String()

	c := newShardClient(Node{Name: "s0", Addr: addr}, (&FrontendConfig{}).withDefaults())
	defer c.closeIdle()
	if _, err := c.getLabels(context.Background(), []int32{2, 7}, 16, 7); err != nil {
		t.Fatalf("frontend fetch: %v", err)
	}
	if got := <-seen; got != recordedStoredRequest {
		t.Errorf("frontend fetch sent %s, recorded %s", got, recordedStoredRequest)
	}
	if c.fetches.Load() != 1 || c.fetchErrors.Load() != 0 || c.latency.Count() != 1 {
		t.Errorf("accounting around one clean fetch: %d fetches, %d errors, %d latency samples",
			c.fetches.Load(), c.fetchErrors.Load(), c.latency.Count())
	}

	_, st := buildFullStore(t, 4)
	srv, err := NewShardServer(ShardConfig{Store: st, Generation: 7})
	if err != nil {
		t.Fatal(err)
	}
	// The peer answers both records absent, so the pull installs nothing.
	if installed, failed, err := srv.repairPull(addr, []int32{2, 7}); err != nil || installed != 0 || failed != 2 {
		t.Fatalf("repair pull: installed %d, failed %d, err %v", installed, failed, err)
	}
	if got := <-seen; got != recordedRequest {
		t.Errorf("repair pull sent %s, recorded %s", got, recordedRequest)
	}
}

// TestExchangePoolsConnAfterShardError: an OpError reply is the shard
// answering in step — the connection goes back to the pool and the
// shard stays routable (a swap window's "generation not held" must not
// fence it off) — while a reply that breaks the protocol severs the
// connection and marks the shard unhealthy until the next probe.
func TestExchangePoolsConnAfterShardError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for _, reply := range [][]byte{
			frame.Append(nil, OpError, []byte("generation 7 not held (serving 6)")),
			frame.Append(nil, OpPong, nil),
		} {
			if _, _, err := frame.Read(conn); err != nil {
				return
			}
			if _, err := conn.Write(reply); err != nil {
				return
			}
		}
	}()
	c := newShardClient(Node{Name: "s0", Addr: ln.Addr().String()},
		(&FrontendConfig{FetchTimeout: 100 * time.Millisecond}).withDefaults())
	defer c.closeIdle()
	c.healthy.Store(true)

	_, err = c.getLabels(context.Background(), []int32{2, 7}, 16, 7)
	if !errors.Is(err, errShardError) {
		t.Fatalf("first fetch: %v, want the shard's error", err)
	}
	if len(c.idle) != 1 || !c.healthy.Load() {
		t.Fatalf("after an OpError reply: %d pooled conns, healthy=%v; want the conn pooled and the shard healthy", len(c.idle), c.healthy.Load())
	}
	// The second fetch reuses that connection and gets a stray op; the
	// one retry a pooled connection earns dials the listener again, where
	// nobody answers any more, so it times out and the failure stands.
	if _, err = c.getLabels(context.Background(), []int32{2, 7}, 16, 7); err == nil || errors.Is(err, errShardError) {
		t.Fatalf("second fetch: %v, want a protocol failure", err)
	}
	if len(c.idle) != 0 || c.healthy.Load() {
		t.Fatalf("after a protocol failure: %d pooled conns, healthy=%v; want none and unhealthy", len(c.idle), c.healthy.Load())
	}
	if c.fetches.Load() != 2 || c.fetchErrors.Load() != 2 || c.latency.Count() != 2 {
		t.Errorf("accounting: %d fetches, %d errors, %d latency samples; want 2 each",
			c.fetches.Load(), c.fetchErrors.Load(), c.latency.Count())
	}
}
