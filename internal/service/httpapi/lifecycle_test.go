package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"netembed/internal/core"
	"netembed/internal/graph"
	"netembed/internal/graphml"
	"netembed/internal/lifecycle"
	"netembed/internal/service"
	"netembed/internal/topo"
)

// lifecycleFixture is an HTTP server over a 6-node cpu clique with the
// lifecycle manager attached, plus the handles the tests mutate
// directly: the model (to publish breaking deltas) and the ledger (to
// steal repair targets).
type lifecycleFixture struct {
	ts    *httptest.Server
	model *service.Model
	svc   *service.Service
	mgr   *lifecycle.Manager
}

func newLifecycleFixture(t *testing.T, cfg lifecycle.Config) *lifecycleFixture {
	t.Helper()
	host := topo.Clique(6)
	for i := 0; i < 6; i++ {
		host.Node(graph.NodeID(i)).Attrs = graph.Attrs{}.SetNum("cpu", 10)
	}
	model := service.NewModel(host)
	svc := service.New(model, service.Config{})
	srv := New(svc)
	mgr := lifecycle.NewManager(svc, cfg)
	srv.AttachLifecycle(mgr)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &lifecycleFixture{ts: ts, model: model, svc: svc, mgr: mgr}
}

func (f *lifecycleFixture) place(t *testing.T) lifecycle.Info {
	t.Helper()
	ml, err := graphml.EncodeString(topo.Line(3))
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, f.ts.URL+"/embeddings", PlaceEmbeddingRequest{
		EmbedRequest: EmbedRequest{
			QueryGraphML:   ml,
			NodeConstraint: "rNode.cpu >= 5",
		},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("place status %d: %s", resp.StatusCode, body)
	}
	var info lifecycle.Info
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	return info
}

func (f *lifecycleFixture) get(t *testing.T, id string) lifecycle.Info {
	t.Helper()
	resp, err := http.Get(f.ts.URL + "/embeddings/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get status %d", resp.StatusCode)
	}
	var info lifecycle.Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

func (f *lifecycleFixture) breakNode(t *testing.T, name string) {
	t.Helper()
	if _, err := f.model.Apply(&graph.Delta{SetNodeAttrs: []graph.NodeAttrUpdate{
		{Node: name, Set: graph.Attrs{}.SetNum("cpu", 1)},
	}}); err != nil {
		t.Fatal(err)
	}
}

// TestEmbeddingLifecycleHTTP walks the full loop over the wire:
// place → degrade (model delta) → migrate → release, checking the /stats
// fold along the way.
func TestEmbeddingLifecycleHTTP(t *testing.T) {
	f := newLifecycleFixture(t, lifecycle.Config{})
	info := f.place(t)
	if info.Health != lifecycle.Healthy || info.ID == "" {
		t.Fatalf("placed: %+v", info)
	}

	// Degrade: the host of the query's middle node loses its cpu.
	f.breakNode(t, info.Mapping["n1"])
	f.mgr.CheckAll()
	got := f.get(t, info.ID)
	if got.Health != lifecycle.Degraded || got.Detail == "" {
		t.Fatalf("after delta: %+v", got)
	}

	// List carries the degraded record and the gauges.
	resp, err := http.Get(f.ts.URL + "/embeddings")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Embeddings []lifecycle.Info `json:"embeddings"`
		Stats      lifecycle.Stats  `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Embeddings) != 1 || list.Stats.Degraded != 1 {
		t.Fatalf("list = %+v", list)
	}

	// Migrate over the wire: one node moves, the embedding heals.
	resp, body := postJSON(t, f.ts.URL+"/embeddings/"+info.ID+"/migrate", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("migrate status %d: %s", resp.StatusCode, body)
	}
	var healed lifecycle.Info
	if err := json.Unmarshal(body, &healed); err != nil {
		t.Fatal(err)
	}
	if healed.Health != lifecycle.Healthy || healed.Repairs != 1 || healed.MigratedNodes != 1 {
		t.Fatalf("after migrate: %+v", healed)
	}
	if healed.Mapping["n1"] == info.Mapping["n1"] {
		t.Error("migrate kept the broken host")
	}

	// /stats folds the lifecycle counters next to the engine's.
	resp, err = http.Get(f.ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for key, want := range map[string]float64{
		"embeddingsActive":        1,
		"embeddingsRepaired":      1,
		"embeddingsMigratedNodes": 1,
	} {
		if got, ok := stats[key].(float64); !ok || got != want {
			t.Errorf("stats[%s] = %v, want %v", key, stats[key], want)
		}
	}
	if _, ok := stats["jobsDone"]; !ok {
		// The exact engine counter names live in engine.Stats; any one of
		// them proves the engine half of the fold survived the merge.
		found := false
		for key := range stats {
			if !strings.HasPrefix(key, "embeddings") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("engine counters missing from folded stats: %v", stats)
		}
	}

	// Release drops the record and frees the lease.
	req, _ := http.NewRequest(http.MethodDelete, f.ts.URL+"/embeddings/"+info.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("release status %d", resp.StatusCode)
	}
	if _, ok := f.svc.Ledger().Lease(info.LeaseID); ok {
		t.Error("release left the lease allocated")
	}
	if resp, _ := http.Get(f.ts.URL + "/embeddings/" + info.ID); resp.StatusCode != http.StatusNotFound {
		t.Errorf("released embedding still answers %d", resp.StatusCode)
	}
}

// TestEmbeddingMigrateRollbackHTTP pins the conflict path over the wire:
// a concurrent allocation steals every repair target between plan and
// commit, the migrate answers 200 with the still-Degraded record, and
// the old placement stays leased.
func TestEmbeddingMigrateRollbackHTTP(t *testing.T) {
	var f *lifecycleFixture
	var stolen []service.LeaseID
	steal := true
	f = newLifecycleFixture(t, lifecycle.Config{BeforeCommit: func(id string) {
		if !steal {
			return
		}
		for _, r := range []graph.NodeID{0, 1, 2, 3, 4, 5} {
			if lid, err := f.svc.Ledger().Allocate(core.Mapping{r}); err == nil {
				stolen = append(stolen, lid)
			}
		}
	}})
	info := f.place(t)
	f.breakNode(t, info.Mapping["n1"])

	resp, body := postJSON(t, f.ts.URL+"/embeddings/"+info.ID+"/migrate", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("migrate status %d: %s", resp.StatusCode, body)
	}
	var got lifecycle.Info
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Health != lifecycle.Degraded || !strings.Contains(got.Detail, "rolled back") {
		t.Fatalf("stolen target: %+v", got)
	}
	// The old placement survived the rollback byte-for-byte.
	if got.Mapping["n1"] != info.Mapping["n1"] {
		t.Fatalf("rollback changed the mapping: %v -> %v", info.Mapping, got.Mapping)
	}
	if _, ok := f.svc.Ledger().Lease(info.LeaseID); !ok {
		t.Fatal("rollback dropped the lease")
	}

	// Free the stolen nodes; the retry lands.
	steal = false
	for _, lid := range stolen {
		f.svc.Ledger().Release(lid)
	}
	resp, body = postJSON(t, f.ts.URL+"/embeddings/"+info.ID+"/migrate", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Health != lifecycle.Healthy || got.Repairs != 1 {
		t.Fatalf("retry: %+v", got)
	}
}

// TestEmbeddingEndpointErrors pins the HTTP error mapping.
func TestEmbeddingEndpointErrors(t *testing.T) {
	f := newLifecycleFixture(t, lifecycle.Config{})
	if resp, _ := http.Get(f.ts.URL + "/embeddings/e999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown get: %d", resp.StatusCode)
	}
	resp, _ := postJSON(t, f.ts.URL+"/embeddings/e999/migrate", struct{}{})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown migrate: %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, f.ts.URL+"/embeddings", PlaceEmbeddingRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty place: %d", resp.StatusCode)
	}
	ml, _ := graphml.EncodeString(topo.Line(3))
	resp, _ = postJSON(t, f.ts.URL+"/embeddings", PlaceEmbeddingRequest{
		EmbedRequest: EmbedRequest{QueryGraphML: ml, NodeConstraint: "rNode.cpu >= 1000"},
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("infeasible place: %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, f.ts.URL+"/embeddings", PlaceEmbeddingRequest{
		EmbedRequest: EmbedRequest{QueryGraphML: ml},
		TTLMs:        -5,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative ttl: %d", resp.StatusCode)
	}
}

// TestEmbeddingPlaceClientErrors: a placement whose algorithm is unknown
// or whose constraint does not compile is the client's error, answered
// 400 as /embed answers it, not a 500.
func TestEmbeddingPlaceClientErrors(t *testing.T) {
	f := newLifecycleFixture(t, lifecycle.Config{})
	ml, err := graphml.EncodeString(topo.Line(3))
	if err != nil {
		t.Fatal(err)
	}
	for name, req := range map[string]EmbedRequest{
		"unknown algorithm":   {QueryGraphML: ml, Algorithm: "no-such-algo"},
		"bad edge constraint": {QueryGraphML: ml, EdgeConstraint: "rEdge.x >= "},
		"bad node constraint": {QueryGraphML: ml, NodeConstraint: "rNode.cpu >="},
	} {
		for _, path := range []string{"/embed", "/embeddings"} {
			resp, body := postJSON(t, f.ts.URL+path, PlaceEmbeddingRequest{EmbedRequest: req})
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s on %s: %d %s", name, path, resp.StatusCode, body)
			}
		}
	}
	if n := len(f.mgr.List()); n != 0 {
		t.Fatalf("%d embeddings placed by refused requests", n)
	}
}
