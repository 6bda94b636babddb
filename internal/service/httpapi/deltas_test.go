package httpapi

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"netembed/internal/graph"
	"netembed/internal/service"
	"netembed/internal/topo"
	"netembed/internal/trace"
)

// newIndexedServer is newTestServer with the capability index enabled,
// the configuration netembedd deploys by default.
func newIndexedServer(t *testing.T) (*httptest.Server, *service.Service) {
	t.Helper()
	host := trace.SyntheticPlanetLab(trace.Config{Sites: 30}, rand.New(rand.NewSource(1)))
	model := service.NewModel(host)
	svc := service.New(model, service.Config{})
	ts := httptest.NewServer(New(svc))
	t.Cleanup(ts.Close)
	return ts, svc
}

func TestDeltasAttrPatch(t *testing.T) {
	ts, svc := newIndexedServer(t)
	host := peek(svc).Host()
	name := host.Node(0).Name

	resp, body := postJSON(t, ts.URL+"/deltas", DeltaRequest{
		SetNodeAttrs: []DeltaNodeAttrs{{
			Node:  name,
			Attrs: map[string]any{"slots": 4.0, "tag": "edge-pop", "ready": true},
		}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out DeltaResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Version != 2 || out.Structural {
		t.Fatalf("got %+v, want version 2, non-structural", out)
	}

	snap := peek(svc)
	g, idx, v := snap.Host(), snap.Index(), snap.Version()
	if v != 2 || idx.Version() != 2 {
		t.Fatalf("model/index version %d/%d, want 2/2", v, idx.Version())
	}
	id, _ := g.NodeByName(name)
	if slots, _ := g.Node(id).Attrs.Float("slots"); slots != 4 {
		t.Errorf("slots = %v, want 4", slots)
	}
	if tag, _ := g.Node(id).Attrs.Text("tag"); tag != "edge-pop" {
		t.Errorf("tag = %q", tag)
	}
	if col := idx.ColumnsFor(g).NodeColumn("slots"); col == nil || col.Tags[id] != graph.TagNumber || col.Nums[id] != 4 {
		t.Error("snapshot column missed the patched capacity")
	}

	// Null removes the attribute.
	resp, body = postJSON(t, ts.URL+"/deltas", DeltaRequest{
		SetNodeAttrs: []DeltaNodeAttrs{{Node: name, Attrs: map[string]any{"tag": nil}}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	g = peek(svc).Host()
	id, _ = g.NodeByName(name)
	if g.Node(id).Attrs.Has("tag") {
		t.Error("null attribute value should unset")
	}
}

func TestDeltasStructuralAndErrors(t *testing.T) {
	ts, svc := newIndexedServer(t)
	host := peek(svc).Host()
	a, b := host.Node(0).Name, host.Node(1).Name

	resp, body := postJSON(t, ts.URL+"/deltas", DeltaRequest{
		AddNodes: []DeltaNode{{Name: "newpop", Attrs: map[string]any{"slots": 2.0}}},
		AddEdges: []DeltaEdge{{Source: "newpop", Target: a, Attrs: map[string]any{"avgDelay": 3.0}}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out DeltaResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Structural {
		t.Error("node addition should report structural")
	}
	snap := peek(svc)
	g, idx := snap.Host(), snap.Index()
	if _, ok := g.NodeByName("newpop"); !ok {
		t.Fatal("added node missing from model")
	}
	if idx.NumNodes() != g.NumNodes() {
		t.Fatal("index universe did not follow the rebuild")
	}

	// Unknown names answer 409 (stale client view), leaving the model alone.
	vBefore := svc.Model().Version()
	resp, _ = postJSON(t, ts.URL+"/deltas", DeltaRequest{RemoveNodes: []string{"ghost"}})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status %d, want 409", resp.StatusCode)
	}
	if svc.Model().Version() != vBefore {
		t.Error("failed delta bumped the version")
	}

	// Requests that can never succeed — malformed attribute payloads,
	// nameless/duplicate additions, self-loops — answer 400, not 409:
	// refreshing the model view and retrying would loop forever.
	for name, req := range map[string]DeltaRequest{
		"unsupported attr payload": {
			SetEdgeAttrs: []DeltaEdgeAttrs{{Source: a, Target: b, Attrs: map[string]any{"x": []any{1}}}},
		},
		"nameless node":  {AddNodes: []DeltaNode{{Name: ""}}},
		"duplicate node": {AddNodes: []DeltaNode{{Name: "twice"}, {Name: "twice"}}},
		"self-loop":      {AddEdges: []DeltaEdge{{Source: a, Target: a}}},
	} {
		resp, _ = postJSON(t, ts.URL+"/deltas", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	// An empty delta is a no-op: 200, but the version must not move (a
	// bump would invalidate every version-keyed cache entry for nothing).
	vBefore = svc.Model().Version()
	resp, body = postJSON(t, ts.URL+"/deltas", DeltaRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty delta: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Version != vBefore || svc.Model().Version() != vBefore {
		t.Errorf("empty delta moved the version: %d -> %d", vBefore, svc.Model().Version())
	}
}

func TestEmbedBatch(t *testing.T) {
	ts, svc := newIndexedServer(t)
	version := svc.Model().Version()

	req := BatchEmbedRequest{Requests: []EmbedRequest{
		{QueryGraphML: mustGraphML(t, topo.Line(2)), MaxResults: 1},
		{QueryGraphML: mustGraphML(t, topo.Ring(3)), MaxResults: 2},
		{QueryGraphML: "<not-graphml>"}, // malformed item fails alone
		{QueryGraphML: mustGraphML(t, topo.Line(2)), Algorithm: "no-such-algo"},
	}}
	resp, body := postJSON(t, ts.URL+"/embed/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out BatchEmbedResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.ModelVersion != version {
		t.Errorf("batch version %d, want %d", out.ModelVersion, version)
	}
	if len(out.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(out.Results))
	}
	for i := 0; i < 2; i++ {
		if out.Results[i].Result == nil || out.Results[i].Error != "" {
			t.Fatalf("item %d should succeed: %+v", i, out.Results[i])
		}
		if out.Results[i].Result.ModelVersion != version {
			t.Errorf("item %d answered version %d, want the shared snapshot %d",
				i, out.Results[i].Result.ModelVersion, version)
		}
		if len(out.Results[i].Result.Mappings) == 0 {
			t.Errorf("item %d found no embeddings", i)
		}
	}
	if out.Results[2].Error == "" || out.Results[2].Result != nil {
		t.Error("malformed item should fail alone")
	}
	if out.Results[3].Error == "" {
		t.Error("unknown algorithm item should fail alone")
	}
}

func TestEmbedBatchValidation(t *testing.T) {
	ts, _ := newIndexedServer(t)
	resp, _ := postJSON(t, ts.URL+"/embed/batch", BatchEmbedRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", resp.StatusCode)
	}
	big := BatchEmbedRequest{Requests: make([]EmbedRequest, maxBatchItems+1)}
	resp, _ = postJSON(t, ts.URL+"/embed/batch", big)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, want 400", resp.StatusCode)
	}
}
