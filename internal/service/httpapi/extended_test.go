package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"netembed/internal/graph"
	"netembed/internal/graphml"
	"netembed/internal/service"
	"netembed/internal/topo"
)

// extendedServer hosts a triangle of 50ms links so negotiation behavior
// is exactly predictable.
func extendedServer(t *testing.T) (*httptest.Server, *service.Service) {
	t.Helper()
	host := topo.Clique(3)
	for i := 0; i < host.NumEdges(); i++ {
		host.Edge(graph.EdgeID(i)).Attrs = graph.Attrs{}.SetNum("avgDelay", 50)
	}
	svc := service.New(service.NewModel(host), service.Config{})
	ts := httptest.NewServer(New(svc))
	t.Cleanup(ts.Close)
	return ts, svc
}

func cliqueQueryML(t *testing.T, lo, hi float64) string {
	t.Helper()
	q := topo.Clique(3)
	topo.SetDelayWindow(q, lo, hi)
	ml, err := graphml.EncodeString(q)
	if err != nil {
		t.Fatal(err)
	}
	return ml
}

const avgConstraint = "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay"

func TestNegotiateEndpoint(t *testing.T) {
	ts, _ := extendedServer(t)
	resp, body := postJSON(t, ts.URL+"/negotiate", NegotiateHTTPRequest{
		EmbedRequest: EmbedRequest{
			QueryGraphML:   cliqueQueryML(t, 30, 40), // misses 50ms: one round fixes it
			EdgeConstraint: avgConstraint,
		},
		MaxRounds: 3,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out NegotiateHTTPResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Rounds < 1 {
		t.Errorf("rounds = %d, want >= 1", out.Rounds)
	}
	if len(out.Mappings) == 0 {
		t.Error("no mapping after negotiation")
	}
	relaxed, err := graphml.DecodeString(out.RelaxedQuery)
	if err != nil {
		t.Fatalf("relaxed query invalid GraphML: %v", err)
	}
	hi, _ := relaxed.Edge(0).Attrs.Float("maxDelay")
	if hi < 50 {
		t.Errorf("relaxed maxDelay = %v, want >= 50", hi)
	}
}

func TestNegotiateEndpointFailure(t *testing.T) {
	ts, _ := extendedServer(t)
	// Far-off window with too few rounds => 409.
	resp, _ := postJSON(t, ts.URL+"/negotiate", NegotiateHTTPRequest{
		EmbedRequest: EmbedRequest{
			QueryGraphML:   cliqueQueryML(t, 1, 2),
			EdgeConstraint: avgConstraint,
		},
		MaxRounds: 1,
	})
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("status = %d, want 409", resp.StatusCode)
	}
	// Bad request shapes.
	resp2, _ := postJSON(t, ts.URL+"/negotiate", NegotiateHTTPRequest{})
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("empty body status = %d", resp2.StatusCode)
	}
	r3, err := http.Post(ts.URL+"/negotiate", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusBadRequest {
		t.Errorf("bad json status = %d", r3.StatusCode)
	}
	r4, err := http.Get(ts.URL + "/negotiate")
	if err != nil {
		t.Fatal(err)
	}
	r4.Body.Close()
	if r4.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", r4.StatusCode)
	}
}

func TestScheduleEndpoint(t *testing.T) {
	ts, svc := extendedServer(t)
	resp, body := postJSON(t, ts.URL+"/schedule", ScheduleHTTPRequest{
		EmbedRequest: EmbedRequest{
			QueryGraphML:   cliqueQueryML(t, 40, 60),
			EdgeConstraint: avgConstraint,
		},
		DurationMs: 60_000,
		HorizonMs:  3_600_000,
		StepMs:     600_000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out ScheduleHTTPResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.LeaseID == 0 {
		t.Error("no lease taken")
	}
	if len(out.Mapping) != 3 {
		t.Errorf("mapping size = %d", len(out.Mapping))
	}
	if _, ok := svc.Ledger().Lease(service.LeaseID(out.LeaseID)); !ok {
		t.Error("lease not present in ledger")
	}

	// The single triangle is now booked: an identical request must find a
	// later window, not fail.
	resp2, body2 := postJSON(t, ts.URL+"/schedule", ScheduleHTTPRequest{
		EmbedRequest: EmbedRequest{
			QueryGraphML:   cliqueQueryML(t, 40, 60),
			EdgeConstraint: avgConstraint,
		},
		DurationMs: 60_000,
		HorizonMs:  3_600_000,
		StepMs:     60_000,
	})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second schedule status %d: %s", resp2.StatusCode, body2)
	}
	var out2 ScheduleHTTPResponse
	if err := json.Unmarshal(body2, &out2); err != nil {
		t.Fatal(err)
	}
	if out2.Start == out.Start {
		t.Error("second schedule overlaps the first")
	}
}

func TestScheduleEndpointErrors(t *testing.T) {
	ts, _ := extendedServer(t)
	// Zero duration.
	resp, _ := postJSON(t, ts.URL+"/schedule", ScheduleHTTPRequest{
		EmbedRequest: EmbedRequest{
			QueryGraphML:   cliqueQueryML(t, 40, 60),
			EdgeConstraint: avgConstraint,
		},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("zero duration status = %d", resp.StatusCode)
	}
	// Impossible query within the horizon => 409 (no window).
	resp2, _ := postJSON(t, ts.URL+"/schedule", ScheduleHTTPRequest{
		EmbedRequest: EmbedRequest{
			QueryGraphML:   cliqueQueryML(t, 1, 2),
			EdgeConstraint: avgConstraint,
			TimeoutMs:      1000,
		},
		DurationMs: 60_000,
		HorizonMs:  120_000,
		StepMs:     60_000,
	})
	if resp2.StatusCode != http.StatusConflict {
		t.Errorf("no-window status = %d", resp2.StatusCode)
	}
	// Algorithms whose answers cannot be leased per window, and unknown
	// ones, are refused instead of running ECF.
	for _, algo := range []string{"consolidate", "path", "no-such-algo"} {
		resp, body := postJSON(t, ts.URL+"/schedule", ScheduleHTTPRequest{
			EmbedRequest: EmbedRequest{
				QueryGraphML:   cliqueQueryML(t, 40, 60),
				EdgeConstraint: avgConstraint,
				Algorithm:      algo,
			},
			DurationMs: 60_000,
		})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("algorithm %q: status %d %s, want 400", algo, resp.StatusCode, body)
		}
	}
	// Method check.
	r, err := http.Get(ts.URL + "/schedule")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", r.StatusCode)
	}
}
