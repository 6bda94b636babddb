package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"netembed/internal/graph"
	"netembed/internal/graphml"
)

// TestQueryCacheSkipsLargeDocuments pins the query LRU's byte bound: a
// client that posts large distinct documents gets them decoded and
// answered, but none of them stays cached.
func TestQueryCacheSkipsLargeDocuments(t *testing.T) {
	api, small := newAllocServer(t, -1)
	post := func(body []byte) {
		t.Helper()
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, httptest.NewRequest("POST", "/embed", bytes.NewReader(body)))
		if rec.Code != 200 {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	entries := func() int {
		t.Helper()
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
		var stats struct {
			API apiStatsJSON `json:"api"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
			t.Fatal(err)
		}
		return stats.API.QueryCacheEntries
	}
	for _, pad := range []string{"a", "b"} {
		q := graph.NewUndirected()
		u := q.AddNode("u", graph.Attrs{}.SetStr("note", strings.Repeat(pad, maxCachedQueryBytes)))
		v := q.AddNode("v", nil)
		q.MustAddEdge(u, v, nil)
		doc, err := graphml.EncodeString(q)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(map[string]interface{}{"query": doc, "maxResults": 1})
		if err != nil {
			t.Fatal(err)
		}
		post(body)
	}
	if n := entries(); n != 0 {
		t.Fatalf("queryCacheEntries = %d after two documents over %d bytes, want 0", n, maxCachedQueryBytes)
	}
	post(small)
	if n := entries(); n != 1 {
		t.Fatalf("queryCacheEntries = %d after one small query, want 1", n)
	}
}
