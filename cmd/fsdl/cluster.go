package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strings"
	"text/tabwriter"
	"time"

	"fsdl/internal/cluster"
)

// cmdCluster is the operator's view of a running cluster frontend: it
// talks to fsdl-serve's /v1/cluster/* admin endpoints.
//
//	fsdl cluster status -frontend http://host:8080
//	fsdl cluster join   -frontend ... -name shard3 -addr 127.0.0.1:9003
//	fsdl cluster leave  -frontend ... -name shard1
//	fsdl cluster drain  -frontend ... -name shard1 [-undrain]
func cmdCluster(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: fsdl cluster <status|join|leave|drain> -frontend URL [...]")
	}
	op := args[0]
	fs := flag.NewFlagSet("cluster "+op, flag.ContinueOnError)
	frontend := fs.String("frontend", "http://127.0.0.1:8080", "fsdl-serve base URL")
	name := fs.String("name", "", "shard name (join/leave/drain)")
	addr := fs.String("addr", "", "shard wire address (join)")
	undrain := fs.Bool("undrain", false, "drain: re-include the shard in routing instead")
	timeout := fs.Duration("timeout", 5*time.Second, "request timeout")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	base := strings.TrimSuffix(*frontend, "/")
	client := &http.Client{Timeout: *timeout}

	switch op {
	case "status":
		var st cluster.ClusterStatus
		if err := clusterGet(client, base+"/v1/cluster/status", &st); err != nil {
			return err
		}
		return printClusterStatus(out, &st)
	case "join", "leave", "drain":
		if *name == "" {
			return fmt.Errorf("cluster %s: -name is required", op)
		}
		body := map[string]any{"name": *name}
		if op == "join" {
			if *addr == "" {
				return fmt.Errorf("cluster join: -addr is required")
			}
			body["addr"] = *addr
		}
		if op == "drain" {
			body["drain"] = !*undrain
		}
		var resp struct {
			Epoch uint64 `json:"epoch"`
		}
		if err := clusterPost(client, base+"/v1/cluster/"+op, body, &resp); err != nil {
			return err
		}
		fmt.Fprintf(out, "%s %s: ring epoch now %d\n", op, *name, resp.Epoch)
		return nil
	default:
		return fmt.Errorf("unknown cluster subcommand %q (want status, join, leave, drain)", op)
	}
}

func clusterGet(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	return decodeClusterResponse(resp, v)
}

func clusterPost(client *http.Client, url string, body, v any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	return decodeClusterResponse(resp, v)
}

func decodeClusterResponse(resp *http.Response, v any) error {
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			return fmt.Errorf("%s: %s", resp.Status, e.Error)
		}
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(raw)))
	}
	return json.Unmarshal(raw, v)
}

func printClusterStatus(out io.Writer, st *cluster.ClusterStatus) error {
	fmt.Fprintf(out, "ring epoch %d, label generation %d, n=%d vertices, replication %d\n",
		st.Epoch, st.Generation, st.NumVertices, st.Replication)
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "SHARD\tADDR\tHEALTHY\tBREAKER\tGEN\tLABELS\tFLAGS")
	for _, sh := range st.Shards {
		up := "up"
		if !sh.Healthy {
			up = "DOWN"
		}
		var flags []string
		if sh.Mismatched {
			flags = append(flags, "mismatched")
		}
		if sh.Draining {
			flags = append(flags, "draining")
		}
		if sh.NonAuthoritative {
			flags = append(flags, "non-authoritative")
		}
		if sh.GenLagged {
			flags = append(flags, "gen-lagged")
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\t%d\t%s\n",
			sh.Name, sh.Addr, up, sh.Breaker, sh.Generation, sh.Labels, strings.Join(flags, ","))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if st.Live != nil {
		fmt.Fprintf(out, "live: %d pending delta edges, %d sealed WAL segments", st.Live.PendingEdges, st.Live.WALSegments)
		if st.Live.WALOldestAgeSec > 0 {
			fmt.Fprintf(out, " (oldest %s)", (time.Duration(st.Live.WALOldestAgeSec * float64(time.Second))).Round(time.Second))
		}
		fmt.Fprintln(out)
	}
	if st.Repair.Enabled {
		fmt.Fprintf(out, "repair: converged=%v sweeps=%d repaired=%d backlog=%d hints=%d sealed=%d\n",
			st.Repair.Converged, st.Repair.Sweeps, st.Repair.Repaired,
			st.Repair.Backlog, st.Repair.Hints, st.Repair.Sealed)
		if st.Repair.LastError != "" {
			fmt.Fprintf(out, "repair: last error: %s\n", st.Repair.LastError)
		}
	} else {
		fmt.Fprintln(out, "repair: disabled")
	}
	if st.RetryBudget.Enabled {
		fmt.Fprintf(out, "retry budget: %.1f tokens, spent %d, denied %d\n",
			st.RetryBudget.Tokens, st.RetryBudget.Spent, st.RetryBudget.Denied)
	} else {
		fmt.Fprintln(out, "retry budget: disabled")
	}
	return nil
}
