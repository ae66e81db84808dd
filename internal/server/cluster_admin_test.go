package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// adminSpy is a store source that answers the membership methods like
// a cluster, recording the calls the HTTP layer forwards.
type adminSpy struct {
	*storeSource
	epoch uint64
	calls []string
	fail  bool
}

func (a *adminSpy) Join(name, addr string) (uint64, error) {
	if a.fail {
		return 0, fmt.Errorf("cluster: join %q refused, shard unreachable at %s", name, addr)
	}
	a.epoch++
	a.calls = append(a.calls, "join:"+name+"@"+addr)
	return a.epoch, nil
}

func (a *adminSpy) Leave(name string) (uint64, error) {
	a.epoch++
	a.calls = append(a.calls, "leave:"+name)
	return a.epoch, nil
}

func (a *adminSpy) Drain(name string, drain bool) (uint64, error) {
	a.epoch++
	a.calls = append(a.calls, fmt.Sprintf("drain:%s:%v", name, drain))
	return a.epoch, nil
}

func (a *adminSpy) StatusJSON() any {
	return map[string]any{"epoch": a.epoch, "shards": []string{"s0", "s1"}}
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// TestClusterAdminEndpoints drives /v1/cluster/* against a fake
// cluster-admin source: forwarding, epoch responses, drain defaulting,
// and input validation.
func TestClusterAdminEndpoints(t *testing.T) {
	_, st := testStore(t, 6, 6, 2)
	src := &adminSpy{storeSource: newStoreSource(st), epoch: 1}
	s := newTestServer(t, Config{Source: src})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Status is served as-is from the source.
	resp, err := http.Get(ts.URL + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Epoch  uint64   `json:"epoch"`
		Shards []string `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || status.Epoch != 1 || len(status.Shards) != 2 {
		t.Fatalf("status: code=%d body=%+v", resp.StatusCode, status)
	}

	// Join forwards name+addr and returns the new epoch.
	resp, body := postJSON(t, ts.URL+"/v1/cluster/join", map[string]string{"name": "s2", "addr": "127.0.0.1:9002"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join: %d %s", resp.StatusCode, body)
	}
	var er struct {
		Epoch uint64 `json:"epoch"`
	}
	if json.Unmarshal(body, &er) != nil || er.Epoch != 2 {
		t.Fatalf("join response %s, want epoch 2", body)
	}

	// Drain defaults to true; an explicit false (undrain) passes through.
	postJSON(t, ts.URL+"/v1/cluster/drain", map[string]any{"name": "s2"})
	postJSON(t, ts.URL+"/v1/cluster/drain", map[string]any{"name": "s2", "drain": false})
	// Leave.
	postJSON(t, ts.URL+"/v1/cluster/leave", map[string]string{"name": "s0"})

	want := []string{"join:s2@127.0.0.1:9002", "drain:s2:true", "drain:s2:false", "leave:s0"}
	if fmt.Sprint(src.calls) != fmt.Sprint(want) {
		t.Fatalf("admin calls %v, want %v", src.calls, want)
	}

	// Validation: missing name / missing join addr are 400s that never
	// reach the source.
	before := len(src.calls)
	if resp, _ := postJSON(t, ts.URL+"/v1/cluster/leave", map[string]string{}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("leave without name: %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/cluster/join", map[string]string{"name": "s3"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("join without addr: %d", resp.StatusCode)
	}
	if len(src.calls) != before {
		t.Fatal("rejected requests reached the source")
	}

	// A refused membership change surfaces as an error payload.
	src.fail = true
	resp, body = postJSON(t, ts.URL+"/v1/cluster/join", map[string]string{"name": "s4", "addr": "127.0.0.1:1"})
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("refused join answered 200: %s", body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) != nil || e.Error == "" {
		t.Fatalf("refused join error payload: %s", body)
	}
}

// TestClusterAdmin404OnLocalStore: against a local store the admin
// endpoints are a 404, not a panic or a silent no-op.
func TestClusterAdmin404OnLocalStore(t *testing.T) {
	_, st := testStore(t, 4, 4, 2)
	s := newTestServer(t, Config{Store: st})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status on local store: %d, want 404", resp.StatusCode)
	}
	for _, op := range []string{"join", "leave", "drain"} {
		resp, _ := postJSON(t, ts.URL+"/v1/cluster/"+op, map[string]string{"name": "x", "addr": "y"})
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s on local store: %d, want 404", op, resp.StatusCode)
		}
	}
}
