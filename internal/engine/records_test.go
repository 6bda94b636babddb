package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"netembed/internal/engine"
	"netembed/internal/graph"
	"netembed/internal/graphml"
	"netembed/internal/service"
	"netembed/internal/service/httpapi"
	"netembed/internal/topo"
)

// TestBlockingCallsLeaveNoRecord: SubmitWait and POST /embed, cache
// misses and hits alike, register no job record; POST /jobs does, and
// its jobs stay pollable and cancelable by ID.
func TestBlockingCallsLeaveNoRecord(t *testing.T) {
	svc := service.New(service.NewModel(engine.HardHost(26)), service.Config{})
	e := engine.New(svc, engine.Config{Workers: 2})
	t.Cleanup(func() { _ = e.Close(context.Background()) })
	api := httpapi.NewWithEngine(svc, e)

	const n = 20
	for i := 0; i < n; i++ {
		// Seeds repeat every fourth call, so later calls hit the cache.
		req := service.Request{Query: topo.Line(2), MaxResults: 1, Seed: int64(i % 4)}
		if _, err := e.SubmitWait(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	query := encode(t, topo.Line(3))
	for i := 0; i < n; i++ {
		rec := serve(api, http.MethodPost, "/embed", httpapi.EmbedRequest{QueryGraphML: query, MaxResults: 1, Seed: int64(i % 4)})
		if rec.Code != http.StatusOK {
			t.Fatalf("/embed %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	st := e.Stats()
	if st.CacheHits == 0 || st.CacheMisses == 0 {
		t.Fatalf("want both cache hits and misses among the blocking calls: %+v", st)
	}
	if st.Submitted != 2*n || st.Completed != 2*n {
		t.Fatalf("submitted %d completed %d, want %d each", st.Submitted, st.Completed, 2*n)
	}
	if got := engine.JobRecords(e); got != 0 {
		t.Fatalf("%d job records after blocking calls only, want 0", got)
	}

	// POST /jobs registers: one job polled to done, one canceled while
	// its search runs.
	fast := submit(t, api, httpapi.EmbedRequest{QueryGraphML: query, MaxResults: 1, Seed: 99})
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec := serve(api, http.MethodGet, "/jobs/"+fast.ID, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /jobs/%s: %d %s", fast.ID, rec.Code, rec.Body)
		}
		if js := decode(t, rec); js.State == string(engine.StateDone) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished", fast.ID)
		}
		time.Sleep(time.Millisecond)
	}
	slow := submit(t, api, httpapi.EmbedRequest{QueryGraphML: encode(t, topo.Clique(14)), TimeoutMs: 60_000})
	rec := serve(api, http.MethodDelete, "/jobs/"+slow.ID, nil)
	if rec.Code != http.StatusOK || decode(t, rec).State != string(engine.StateCanceled) {
		t.Fatalf("DELETE /jobs/%s: %d %s", slow.ID, rec.Code, rec.Body)
	}
	if got := engine.JobRecords(e); got != 2 {
		t.Fatalf("%d job records after two /jobs submissions, want 2", got)
	}
}

func encode(t *testing.T, g *graph.Graph) string {
	t.Helper()
	s, err := graphml.EncodeString(g)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func serve(h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	var buf bytes.Buffer
	if body != nil {
		_ = json.NewEncoder(&buf).Encode(body)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, &buf))
	return rec
}

func decode(t *testing.T, rec *httptest.ResponseRecorder) httpapi.JobStatus {
	t.Helper()
	var js httpapi.JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &js); err != nil {
		t.Fatalf("bad job JSON %s: %v", rec.Body, err)
	}
	return js
}

func submit(t *testing.T, h http.Handler, body httpapi.EmbedRequest) httpapi.JobStatus {
	t.Helper()
	rec := serve(h, http.MethodPost, "/jobs", body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d %s", rec.Code, rec.Body)
	}
	return decode(t, rec)
}
