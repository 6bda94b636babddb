package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"netembed/internal/graphml"
	"netembed/internal/service"
	"netembed/internal/topo"
)

// TestAllowOverHTTP drives the "allow" request field through the one
// decode path every embedding endpoint shares: it restricts the answer,
// hosting names the model does not know simply are not allowed (a
// coordinator's boundary view may trail the shard's model, and must not
// 400 a fragment), an unknown query node or an over-long list answers 400.
func TestAllowOverHTTP(t *testing.T) {
	host := topo.Clique(6)
	svc := service.New(service.NewModel(host), service.Config{})
	srv := New(svc)
	srv.ConfigureShard("solo", []string{"solo"})
	server := httptest.NewServer(srv)
	t.Cleanup(server.Close)
	ts := server.URL

	queryML, err := graphml.EncodeString(topo.Line(2))
	if err != nil {
		t.Fatal(err)
	}
	body := func(allow map[string][]string) EmbedRequest {
		return EmbedRequest{QueryGraphML: queryML, Allow: allow, TimeoutMs: 5000}
	}
	mappings := func(raw []byte) []map[string]string {
		var er EmbedResponse
		if err := json.Unmarshal(raw, &er); err != nil {
			t.Fatal(err)
		}
		if er.Status != "complete" {
			t.Fatalf("status %q, want complete", er.Status)
		}
		return er.Mappings
	}

	for _, path := range []string{"/embed", "/internal/shard/embed"} {
		resp, raw := postJSON(t, ts+path, body(nil))
		if resp.StatusCode != http.StatusOK || len(mappings(raw)) != 30 {
			t.Fatalf("%s unrestricted: %d, %d mappings, want 30", path, resp.StatusCode, len(mappings(raw)))
		}
		// n0 on n2 or n3; "ghost" is a name the model does not have.
		resp, raw = postJSON(t, ts+path, body(map[string][]string{"n0": {"n2", "ghost", "n3"}}))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: unknown host name answered %d: %s", path, resp.StatusCode, raw)
		}
		got := mappings(raw)
		if len(got) != 10 {
			t.Errorf("%s: %d mappings under allow {n2 n3}, want 10", path, len(got))
		}
		for _, m := range got {
			if m["n0"] != "n2" && m["n0"] != "n3" {
				t.Errorf("%s: n0 mapped to %s outside its allow-set", path, m["n0"])
			}
		}
		// Only unknown names: nothing is allowed, which is an answer.
		resp, raw = postJSON(t, ts+path, body(map[string][]string{"n1": {"ghost"}}))
		if resp.StatusCode != http.StatusOK || len(mappings(raw)) != 0 {
			t.Errorf("%s: all-unknown allow-set answered %d with %d mappings, want 200 with none", path, resp.StatusCode, len(mappings(raw)))
		}
		resp, raw = postJSON(t, ts+path, body(map[string][]string{"nope": {"n1"}}))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: unknown query node answered %d: %s", path, resp.StatusCode, raw)
		}
		long := make([]string, host.NumNodes()+1)
		for i := range long {
			long[i] = fmt.Sprintf("n%d", i%host.NumNodes())
		}
		resp, raw = postJSON(t, ts+path, body(map[string][]string{"n0": long}))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d hosts listed against a %d-node model answered %d: %s", path, len(long), host.NumNodes(), resp.StatusCode, raw)
		}
	}

	// /jobs rejects the unknown query node at submit; /embed/batch fails
	// the one item.
	resp, raw := postJSON(t, ts+"/jobs", body(map[string][]string{"nope": {"n1"}}))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("/jobs: unknown query node answered %d: %s", resp.StatusCode, raw)
	}
	resp, raw = postJSON(t, ts+"/embed/batch", BatchEmbedRequest{Requests: []EmbedRequest{
		body(map[string][]string{"n0": {"n5"}}),
		body(map[string][]string{"nope": {"n1"}}),
	}})
	var br BatchEmbedResponse
	if err := json.Unmarshal(raw, &br); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/embed/batch answered %d: %s", resp.StatusCode, raw)
	}
	if br.Results[0].Result == nil || len(br.Results[0].Result.Mappings) != 5 {
		t.Errorf("/embed/batch item 0 = %+v, want 5 mappings with n0 on n5", br.Results[0])
	}
	if br.Results[1].Error == "" {
		t.Error("/embed/batch item with an unknown query node did not fail")
	}
}

// TestAllowRoundTripsThroughRemoteShard: the allow-set a coordinator puts
// on a fragment request reaches the peer's search.
func TestAllowRoundTripsThroughRemoteShard(t *testing.T) {
	svc := service.New(service.NewModel(topo.Clique(6)), service.Config{})
	srv := New(svc)
	srv.ConfigureShard("solo", []string{"solo"})
	server := httptest.NewServer(srv)
	t.Cleanup(server.Close)
	rs, err := NewRemoteShard(server.URL, RemoteShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := rs.Embed(service.Request{
		Query: topo.Line(2),
		Allow: map[string][]string{"n0": {"n4"}, "n1": {"n1", "n2"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Named) != 2 {
		t.Fatalf("%d mappings, want the 2 inside the allow-sets", len(resp.Named))
	}
	for _, m := range resp.Named {
		if m["n0"] != "n4" || (m["n1"] != "n1" && m["n1"] != "n2") {
			t.Errorf("mapping %v leaves the allow-sets", m)
		}
	}
}
