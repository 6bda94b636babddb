package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"netembed/internal/graph"
	"netembed/internal/graphml"
	"netembed/internal/topo"
)

const avgDelayWindowSrc = "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay"

// federationHost mirrors the fixture of the service-level federation
// tests: two 5-node cliques (regions west = n0..n4, east = n5..n9) at
// ~10ms intra-region, joined by two ~200ms cut edges n0-n5 and n1-n6.
func federationHost() *graph.Graph {
	g := graph.NewUndirected()
	attrs := func(d float64) graph.Attrs {
		return graph.Attrs{}.
			SetNum("minDelay", d*0.9).SetNum("avgDelay", d).SetNum("maxDelay", d*1.1)
	}
	for i := 0; i < 5; i++ {
		g.AddNode("", graph.Attrs{}.SetStr("region", "west"))
	}
	for i := 0; i < 5; i++ {
		g.AddNode("", graph.Attrs{}.SetStr("region", "east"))
	}
	for a := 0; a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			g.MustAddEdge(graph.NodeID(a), graph.NodeID(b), attrs(10))
			g.MustAddEdge(graph.NodeID(5+a), graph.NodeID(5+b), attrs(10))
		}
	}
	g.MustAddEdge(0, 5, attrs(200))
	g.MustAddEdge(1, 6, attrs(200))
	return g
}

// TestFederateE2E boots three real netembedd processes — two region
// shards over partial views of the same host file plus a -federate
// coordinator — and drives the distributed tier end to end over HTTP:
// region-local and cut-spanning embeds, delta propagation to the owning
// shard only, and /cluster convergence. The CI federate-smoke job runs
// exactly this test against real binaries.
func TestFederateE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "netembedd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	hostML, err := graphml.EncodeString(federationHost())
	if err != nil {
		t.Fatal(err)
	}
	hostPath := filepath.Join(dir, "host.graphml")
	if err := writeFile(hostPath, hostML); err != nil {
		t.Fatal(err)
	}

	west, east, coord := freeAddr(t), freeAddr(t), freeAddr(t)
	// Every process gets the same full host file: the shards keep only
	// their -shard-region slice, the coordinator only the cut edges.
	startDaemon(t, bin, "-listen", west, "-host", hostPath,
		"-shard-name", "west", "-shard-region", "west", "-workers", "2", "-repair-interval", "0")
	startDaemon(t, bin, "-listen", east, "-host", hostPath,
		"-shard-name", "east", "-shard-region", "east", "-workers", "2", "-repair-interval", "0")
	waitHealthy(t, west)
	waitHealthy(t, east)
	startDaemon(t, bin, "-listen", coord, "-federate", "-peers", "west="+west+",east="+east,
		"-host", hostPath, "-refresh-routes", "250ms", "-timeout", "10s")
	waitHealthy(t, coord)

	// The west daemon restricted itself to its region slice.
	var st struct {
		Name      string   `json:"name"`
		Regions   []string `json:"regions"`
		NodeCount int      `json:"nodeCount"`
	}
	getJSON(t, "http://"+west+"/internal/shard/stats", &st)
	if st.Name != "west" || st.NodeCount != 5 || len(st.Regions) != 1 || st.Regions[0] != "west" {
		t.Fatalf("west shard stats = %+v", st)
	}

	// A region-local triangle is answered wholly by one shard.
	tri := topo.Clique(3)
	topo.SetDelayWindow(tri, 5, 20)
	where, mapping := postEmbed(t, coord, tri)
	if where != "west" && where != "east" {
		t.Fatalf("local query answered by %q", where)
	}
	regions := mappedRegions(t, mapping)
	if len(regions) != 1 {
		t.Fatalf("local answer spans regions %v", regions)
	}

	// A query needing a 150-250ms link only fits on a cut edge. Its nodes
	// pin the two regions, so the coordinator speaks first: it is
	// decomposed and joined at the boundary without a local sweep — one
	// round trip per fragment.
	span := topo.Line(2)
	topo.SetDelayWindow(span, 150, 250)
	span.Node(0).Attrs = span.Node(0).Attrs.SetStr("region", "west")
	span.Node(1).Attrs = span.Node(1).Attrs.SetStr("region", "east")
	where, mapping = postEmbed(t, coord, span)
	if where != "cross:east+west" {
		t.Fatalf("spanning query answered by %q, want cross:east+west", where)
	}
	if regions := mappedRegions(t, mapping); len(regions) != 2 {
		t.Fatalf("spanning answer stayed in regions %v", regions)
	}
	var spanInfo struct {
		Spanning struct {
			Answered           uint64 `json:"answered"`
			SweepAnswered      uint64 `json:"sweepAnswered"`
			FragmentRoundTrips uint64 `json:"fragmentRoundTrips"`
		} `json:"spanning"`
		CrossEmbeds uint64 `json:"crossShardEmbeds"`
	}
	getJSON(t, "http://"+coord+"/cluster", &spanInfo)
	if sp := spanInfo.Spanning; sp.Answered != 1 || spanInfo.CrossEmbeds != 1 || sp.SweepAnswered != 0 ||
		sp.FragmentRoundTrips < 2 || sp.FragmentRoundTrips > 3 {
		t.Fatalf("/cluster after the spanning embed = %+v, want spanning.answered 1 in 2-3 fragment round trips", spanInfo)
	}

	// A delta touching only east nodes reaches only the east shard.
	var dresp struct {
		Versions map[string]uint64 `json:"versions"`
	}
	status := postJSON(t, "http://"+coord+"/deltas",
		`{"setNodeAttrs":[{"node":"n7","attrs":{"load":0.5}}]}`, &dresp)
	if status != http.StatusOK {
		t.Fatalf("delta answered %d", status)
	}
	if len(dresp.Versions) != 1 || dresp.Versions["east"] < 2 {
		t.Fatalf("delta versions = %v, want east only at version >= 2", dresp.Versions)
	}

	// Unknown names answer 409 so the operator knows routing was stale.
	if status := postJSON(t, "http://"+coord+"/deltas",
		`{"setNodeAttrs":[{"node":"ghost","attrs":{"load":1}}]}`, nil); status != http.StatusConflict {
		t.Fatalf("ghost delta answered %d, want 409", status)
	}

	// /cluster converges: both shards healthy, the full routing table,
	// the east delta's version visible, and no coordinator graph copy.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var info struct {
			Shards []struct {
				Name         string `json:"name"`
				Healthy      bool   `json:"healthy"`
				NodeCount    int    `json:"nodeCount"`
				ModelVersion uint64 `json:"modelVersion"`
			} `json:"shards"`
			RoutedNodes      int `json:"routedNodes"`
			BoundaryEdges    int `json:"boundaryEdges"`
			CoordinatorNodes int `json:"coordinatorNodes"`
		}
		getJSON(t, "http://"+coord+"/cluster", &info)
		if info.CoordinatorNodes != 0 {
			t.Fatalf("coordinator models %d nodes, want 0", info.CoordinatorNodes)
		}
		ok := len(info.Shards) == 2 && info.RoutedNodes == 10 && info.BoundaryEdges == 2
		for _, s := range info.Shards {
			ok = ok && s.Healthy && s.NodeCount == 5
			if s.Name == "east" {
				ok = ok && s.ModelVersion >= 2
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never converged: %+v", info)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// mappedRegions reports which regions a named mapping's hosting nodes
// live in (n0..n4 west, n5..n9 east).
func mappedRegions(t *testing.T, mapping map[string]string) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	for q, r := range mapping {
		i, err := strconv.Atoi(strings.TrimPrefix(r, "n"))
		if err != nil || i < 0 || i > 9 {
			t.Fatalf("query node %s mapped to unknown host node %q", q, r)
		}
		if i < 5 {
			out["west"] = true
		} else {
			out["east"] = true
		}
	}
	return out
}

// postEmbed routes one query through the coordinator and returns the
// answering shard (X-Netembed-Answered-By) and the first named mapping.
func postEmbed(t *testing.T, addr string, q *graph.Graph) (string, map[string]string) {
	t.Helper()
	queryML, err := graphml.EncodeString(q)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(map[string]interface{}{
		"query":          queryML,
		"edgeConstraint": avgDelayWindowSrc,
		"timeoutMs":      8000,
	})
	resp, err := http.Post("http://"+addr+"/embed", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Status   string              `json:"status"`
		Mappings []map[string]string `json:"mappings"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(out.Mappings) == 0 {
		t.Fatalf("embed answered %d status %q with %d mappings", resp.StatusCode, out.Status, len(out.Mappings))
	}
	return resp.Header.Get("X-Netembed-Answered-By"), out.Mappings[0]
}

func postJSON(t *testing.T, url, body string, out interface{}) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s answered %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// startDaemon launches one netembedd and registers a SIGTERM + wait
// cleanup; its stderr is dumped when the test fails.
func startDaemon(t *testing.T, bin string, args ...string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var logBuf bytes.Buffer
	cmd.Stdout = &logBuf
	cmd.Stderr = &logBuf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { _ = cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			_ = cmd.Process.Kill()
			<-done
		}
		if t.Failed() {
			t.Logf("netembedd %v:\n%s", args, logBuf.String())
		}
	})
}

func waitHealthy(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("daemon on %s never became healthy", addr)
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
