package httpapi

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"netembed/internal/graphml"
	"netembed/internal/service"
	"netembed/internal/topo"
)

// TestStatsReportsRangeIndexBytes: GET /stats' model section reports what
// the serving snapshot's range indexes retain — nothing before a
// constrained request, and after one exactly what the snapshot's column
// cache holds.
func TestStatsReportsRangeIndexBytes(t *testing.T) {
	ts, svc := newTestServer(t)
	rangeBytes := func() int {
		t.Helper()
		resp, body := getJSON(t, ts.URL+"/stats")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/stats answered %d: %s", resp.StatusCode, body)
		}
		var stats struct {
			Model service.EpochStats `json:"model"`
		}
		if err := json.Unmarshal(body, &stats); err != nil {
			t.Fatal(err)
		}
		return stats.Model.RangeIndexBytes
	}
	if got := rangeBytes(); got != 0 {
		t.Fatalf("before any request /stats reports %d range-index bytes", got)
	}
	snap := peek(svc)
	host, idx := snap.Host(), snap.Index()
	q, _, err := topo.Subgraph(host, 4, 4, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	topo.WidenDelayWindows(q, 0.1)
	doc, err := graphml.EncodeString(q)
	if err != nil {
		t.Fatal(err)
	}
	if resp, body := postJSON(t, ts.URL+"/embed", EmbedRequest{QueryGraphML: doc, EdgeConstraint: delayWindowSrc, MaxResults: 1}); resp.StatusCode != http.StatusOK {
		t.Fatalf("embed answered %d: %s", resp.StatusCode, body)
	}
	want := idx.ColumnsFor(host).Bytes()
	if got := rangeBytes(); got == 0 || got != want {
		t.Fatalf("after a window request /stats reports %d range-index bytes, the snapshot retains %d", got, want)
	}
}

// TestClusterReportsBoundaryRangeIndexBytes: GET /cluster reports what
// the current boundary view's range indexes retain — nothing before a
// spanning request, something after one.
func TestClusterReportsBoundaryRangeIndexBytes(t *testing.T) {
	coord, err := service.NewFederation(twoRegionHost(), "region", service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewClusterServer(coord))
	t.Cleanup(ts.Close)
	rangeBytes := func() int {
		t.Helper()
		resp, body := getJSON(t, ts.URL+"/cluster")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/cluster answered %d: %s", resp.StatusCode, body)
		}
		var info service.ClusterInfo
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		return info.BoundaryRangeIndexBytes
	}
	if got := rangeBytes(); got != 0 {
		t.Fatalf("before any spanning request /cluster reports %d range-index bytes", got)
	}
	q := topo.Line(2)
	topo.SetDelayWindow(q, 150, 250)
	doc, err := graphml.EncodeString(q)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/embed", EmbedRequest{QueryGraphML: doc, EdgeConstraint: avgDelayWindowSrc, MaxResults: 1, TimeoutMs: 10000})
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get(AnsweredByHeader), "cross:") {
		t.Fatalf("spanning query answered %d by %q: %s", resp.StatusCode, resp.Header.Get(AnsweredByHeader), body)
	}
	if got := rangeBytes(); got == 0 {
		t.Fatal("after a spanning request /cluster reports no range-index bytes")
	}
}
