package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"netembed/internal/graph"
	"netembed/internal/graphml"
	"netembed/internal/service"
	"netembed/internal/topo"
	"netembed/internal/trace"
)

const delayWindowSrc = "rEdge.minDelay >= vEdge.minDelay && rEdge.maxDelay <= vEdge.maxDelay"

// peek returns svc's current model snapshot with its reader already
// released: the graph and index are immutable, so a test may keep
// reading them.
func peek(svc *service.Service) service.Snapshot {
	snap := svc.Model().Acquire()
	snap.Release()
	return snap
}

func newTestServer(t *testing.T) (*httptest.Server, *service.Service) {
	t.Helper()
	host := trace.SyntheticPlanetLab(trace.Config{Sites: 30}, rand.New(rand.NewSource(1)))
	svc := service.New(service.NewModel(host), service.Config{})
	ts := httptest.NewServer(New(svc))
	t.Cleanup(ts.Close)
	return ts, svc
}

func postJSON(t *testing.T, url string, body interface{}) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status %d", resp.StatusCode)
	}
}

func TestGetModel(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/model")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if v := resp.Header.Get(VersionHeader); v != "1" {
		t.Errorf("version header = %q", v)
	}
	g, err := graphml.Decode(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 30 {
		t.Errorf("model nodes = %d", g.NumNodes())
	}
}

func TestPutModel(t *testing.T) {
	ts, svc := newTestServer(t)
	newModel, err := graphml.EncodeString(topo.Ring(5))
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/model", strings.NewReader(newModel))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	snap := peek(svc)
	g, version := snap.Host(), snap.Version()
	if g.NumNodes() != 5 || version != 2 {
		t.Errorf("model after PUT: %v v%d", g, version)
	}

	// Invalid body rejected, and so is a change of orientation, which a
	// replacement delta cannot make.
	directed := graph.New(true)
	directed.AddNodes(2)
	directed.MustAddEdge(0, 1, nil)
	directedML, err := graphml.EncodeString(directed)
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{"not xml", directedML} {
		req, _ = http.NewRequest(http.MethodPut, ts.URL+"/model", strings.NewReader(body))
		resp2, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp2.Body.Close()
		if resp2.StatusCode != http.StatusBadRequest {
			t.Errorf("bad body status %d", resp2.StatusCode)
		}
	}
	if v := svc.Model().Version(); v != 2 {
		t.Errorf("rejected PUTs moved the model to version %d", v)
	}
}

// TestPutModelWithConcurrentWrites races PUT /model against node-adding
// deltas. At the version the PUT answers, the model is exactly its body: a
// node added before that version is gone, one added after it is present,
// and the body's nodes keep their IDs.
func TestPutModelWithConcurrentWrites(t *testing.T) {
	ts, svc := newTestServer(t)
	body := topo.Ring(2000)
	bodyML, err := graphml.EncodeString(body)
	if err != nil {
		t.Fatal(err)
	}
	type stray struct {
		name    string
		version uint64
	}
	for round := 0; round < 20; round++ {
		var strays []stray
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				name := fmt.Sprintf("stray-%d-%d", round, i)
				v, err := svc.Model().Apply(&graph.Delta{AddNodes: []graph.NodeSpec{{Name: name}}})
				if err != nil {
					t.Error(err)
					return
				}
				strays = append(strays, stray{name, v})
				time.Sleep(100 * time.Microsecond)
			}
		}()
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/model", strings.NewReader(bodyML))
		resp, err := http.DefaultClient.Do(req)
		close(done)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		var out struct{ Version uint64 }
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: PUT /model status %d, %v", round, resp.StatusCode, err)
		}
		host := peek(svc).Host()
		for i := 0; i < body.NumNodes(); i++ {
			if got, want := host.Node(graph.NodeID(i)).Name, body.Node(graph.NodeID(i)).Name; got != want {
				t.Fatalf("round %d: node %d is %q, want the body's %q", round, i, got, want)
			}
		}
		late := 0
		for _, s := range strays {
			_, present := host.NodeByName(s.name)
			if present != (s.version > out.Version) {
				t.Fatalf("round %d: %s added at v%d present=%v after the PUT answered v%d", round, s.name, s.version, present, out.Version)
			}
			if present {
				late++
			}
		}
		if host.NumNodes() != body.NumNodes()+late {
			t.Fatalf("round %d: %d nodes, want the body's %d plus %d added after it", round, host.NumNodes(), body.NumNodes(), late)
		}
	}
}

func TestEmbedEndpoint(t *testing.T) {
	ts, svc := newTestServer(t)
	host := peek(svc).Host()
	q, _, err := topo.Subgraph(host, 4, 5, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	topo.WidenDelayWindows(q, 0.2)
	queryML, err := graphml.EncodeString(q)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/embed", EmbedRequest{
		QueryGraphML:   queryML,
		EdgeConstraint: delayWindowSrc,
		Algorithm:      "lns",
		MaxResults:     1,
		TimeoutMs:      5000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out EmbedResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Mappings) != 1 {
		t.Fatalf("mappings = %d", len(out.Mappings))
	}
	if out.Status != "partial" && out.Status != "complete" {
		t.Errorf("status = %q", out.Status)
	}
	for qName, rName := range out.Mappings[0] {
		if _, ok := q.NodeByName(qName); !ok {
			t.Errorf("unknown query node %q", qName)
		}
		if _, ok := host.NodeByName(rName); !ok {
			t.Errorf("unknown host node %q", rName)
		}
	}
}

func TestEmbedEndpointErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	// Bad JSON.
	resp, err := http.Post(ts.URL+"/embed", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad json status %d", resp.StatusCode)
	}
	// Missing query.
	resp2, _ := postJSON(t, ts.URL+"/embed", EmbedRequest{})
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("missing query status %d", resp2.StatusCode)
	}
	// Bad GraphML.
	resp3, _ := postJSON(t, ts.URL+"/embed", EmbedRequest{QueryGraphML: "junk"})
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("bad graphml status %d", resp3.StatusCode)
	}
	// Bad constraint.
	ml, _ := graphml.EncodeString(topo.Ring(3))
	resp4, _ := postJSON(t, ts.URL+"/embed", EmbedRequest{QueryGraphML: ml, EdgeConstraint: "1 +"})
	if resp4.StatusCode != http.StatusBadRequest {
		t.Errorf("bad constraint status %d", resp4.StatusCode)
	}
	// GET not allowed.
	resp5, err := http.Get(ts.URL + "/embed")
	if err != nil {
		t.Fatal(err)
	}
	resp5.Body.Close()
	if resp5.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /embed status %d", resp5.StatusCode)
	}
}

func TestReserveLifecycle(t *testing.T) {
	ts, svc := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/reserve", ReserveRequest{
		HostNodes: []string{"site001", "site002"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reserve status %d: %s", resp.StatusCode, body)
	}
	var out map[string]int64
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	lease := out["leaseId"]
	if lease == 0 {
		t.Fatal("no lease id")
	}
	if got := len(svc.Ledger().ReservedNodes()); got != 2 {
		t.Errorf("reserved = %d", got)
	}

	// Conflicting reservation.
	resp2, _ := postJSON(t, ts.URL+"/reserve", ReserveRequest{HostNodes: []string{"site002"}})
	if resp2.StatusCode != http.StatusConflict {
		t.Errorf("conflict status %d", resp2.StatusCode)
	}
	// Unknown node.
	resp3, _ := postJSON(t, ts.URL+"/reserve", ReserveRequest{HostNodes: []string{"nowhere"}})
	if resp3.StatusCode != http.StatusNotFound {
		t.Errorf("unknown node status %d", resp3.StatusCode)
	}
	// Empty list.
	resp4, _ := postJSON(t, ts.URL+"/reserve", ReserveRequest{})
	if resp4.StatusCode != http.StatusBadRequest {
		t.Errorf("empty list status %d", resp4.StatusCode)
	}

	// Release.
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/reserve?id=%d", ts.URL, lease), nil)
	resp5, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp5.Body.Close()
	if resp5.StatusCode != http.StatusOK {
		t.Errorf("release status %d", resp5.StatusCode)
	}
	if got := len(svc.Ledger().ReservedNodes()); got != 0 {
		t.Errorf("reserved after release = %d", got)
	}
	// Double release.
	resp6, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp6.Body.Close()
	if resp6.StatusCode != http.StatusNotFound {
		t.Errorf("double release status %d", resp6.StatusCode)
	}
	// Bad id.
	req7, _ := http.NewRequest(http.MethodDelete, ts.URL+"/reserve?id=abc", nil)
	resp7, err := http.DefaultClient.Do(req7)
	if err != nil {
		t.Fatal(err)
	}
	resp7.Body.Close()
	if resp7.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id status %d", resp7.StatusCode)
	}
}
