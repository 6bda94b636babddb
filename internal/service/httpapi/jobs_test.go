package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"netembed/internal/engine"
	"netembed/internal/graph"
	"netembed/internal/graphml"
	"netembed/internal/service"
	"netembed/internal/topo"
)

// hardHostJobs returns K_n minus a matching covering every vertex, the
// cancellation fixture: embedding K_{n-2} is infeasible but searching
// the space takes essentially forever, so only DELETE (or the generous
// timeout) ends such a job.
func hardHostJobs(n int) *graph.Graph {
	g := graph.NewUndirected()
	g.AddNodes(n)
	skip := make(map[[2]int]bool)
	for i := 0; i+1 < n; i += 2 {
		skip[[2]int{i, i + 1}] = true
	}
	if n%2 == 1 {
		skip[[2]int{n - 2, n - 1}] = true
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if skip[[2]int{i, j}] {
				continue
			}
			g.MustAddEdge(graph.NodeID(i), graph.NodeID(j), nil)
		}
	}
	return g
}

// newJobsServer serves the API over an engine with the given tuning.
func newJobsServer(t *testing.T, cfg engine.Config) (*httptest.Server, *service.Service) {
	t.Helper()
	svc := service.New(service.NewModel(hardHostJobs(26)), service.Config{})
	srv := NewWithEngine(svc, engine.New(svc, cfg))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, svc
}

func mustGraphML(t *testing.T, g *graph.Graph) string {
	t.Helper()
	s, err := graphml.EncodeString(g)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// slowJobBody cannot finish inside the test; fastJobBody finishes in
// microseconds (seed only differentiates cache fingerprints).
func slowJobBody(t *testing.T) EmbedRequest {
	return EmbedRequest{QueryGraphML: mustGraphML(t, topo.Clique(14)), TimeoutMs: 60_000}
}

func fastJobBody(t *testing.T, seed int64) EmbedRequest {
	return EmbedRequest{QueryGraphML: mustGraphML(t, topo.Line(2)), MaxResults: 1, Seed: seed}
}

func decodeJob(t *testing.T, raw []byte) JobStatus {
	t.Helper()
	var js JobStatus
	if err := json.Unmarshal(raw, &js); err != nil {
		t.Fatalf("bad job JSON %s: %v", raw, err)
	}
	return js
}

func doRequest(t *testing.T, method, url string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
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

// pollJob GETs /jobs/{id} until pred is satisfied.
func pollJob(t *testing.T, ts *httptest.Server, id string, within time.Duration, pred func(JobStatus) bool) JobStatus {
	t.Helper()
	deadline := time.Now().Add(within)
	var last JobStatus
	for time.Now().Before(deadline) {
		resp, raw := doRequest(t, http.MethodGet, ts.URL+"/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /jobs/%s: %d %s", id, resp.StatusCode, raw)
		}
		last = decodeJob(t, raw)
		if pred(last) {
			return last
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached the expected state (last: %+v)", id, last)
	return last
}

// TestJobLifecycle drives the happy path: submit, poll to done, read the
// result, and check it matches what the synchronous path returns.
func TestJobLifecycle(t *testing.T) {
	ts, _ := newJobsServer(t, engine.Config{Workers: 2})

	resp, raw := postJSON(t, ts.URL+"/jobs", fastJobBody(t, 1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d %s", resp.StatusCode, raw)
	}
	js := decodeJob(t, raw)
	if js.ID == "" {
		t.Fatalf("no job id in %s", raw)
	}
	if loc := resp.Header.Get("Location"); loc != "/jobs/"+js.ID {
		t.Fatalf("Location header %q, want /jobs/%s", loc, js.ID)
	}

	final := pollJob(t, ts, js.ID, 10*time.Second, func(j JobStatus) bool { return j.State == "done" })
	if final.Result == nil || len(final.Result.Mappings) != 1 {
		t.Fatalf("done job carries no result: %+v", final)
	}
	if final.SubmittedAt == "" || final.FinishedAt == "" {
		t.Fatalf("missing timestamps: %+v", final)
	}

	// The synchronous wrapper agrees (and is served from the cache now).
	resp, raw = postJSON(t, ts.URL+"/embed", fastJobBody(t, 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /embed: %d %s", resp.StatusCode, raw)
	}
	var er EmbedResponse
	if err := json.Unmarshal(raw, &er); err != nil {
		t.Fatal(err)
	}
	if !er.Cached {
		t.Fatalf("/embed after identical job should be a cache hit: %s", raw)
	}
	if len(er.Mappings) != 1 || fmt.Sprint(er.Mappings[0]) != fmt.Sprint(final.Result.Mappings[0]) {
		t.Fatalf("sync and async answers disagree: %v vs %v", er.Mappings, final.Result.Mappings)
	}

	if resp, _ := doRequest(t, http.MethodGet, ts.URL+"/jobs/999"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", resp.StatusCode)
	}
}

// TestJobCancelStopsRunningSearch is the acceptance-criterion test over
// HTTP: DELETE a running job, get canceled back, and see the engine's
// running gauge drain long before the job's 60s timeout.
func TestJobCancelStopsRunningSearch(t *testing.T) {
	ts, _ := newJobsServer(t, engine.Config{Workers: 1})

	resp, raw := postJSON(t, ts.URL+"/jobs", slowJobBody(t))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d %s", resp.StatusCode, raw)
	}
	id := decodeJob(t, raw).ID
	pollJob(t, ts, id, 10*time.Second, func(j JobStatus) bool { return j.State == "running" })

	canceledAt := time.Now()
	resp, raw = doRequest(t, http.MethodDelete, ts.URL+"/jobs/"+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /jobs/%s: %d %s", id, resp.StatusCode, raw)
	}
	if js := decodeJob(t, raw); js.State != "canceled" {
		t.Fatalf("DELETE returned state %q, want canceled", js.State)
	}

	// /stats proves the worker stopped searching well before the timeout.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, raw := doRequest(t, http.MethodGet, ts.URL+"/stats")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /stats: %d", resp.StatusCode)
		}
		var st engine.Stats
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		if st.Running == 0 {
			if st.Canceled != 1 {
				t.Fatalf("stats after cancel: %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("search still running %v after DELETE", time.Since(canceledAt))
		}
		time.Sleep(2 * time.Millisecond)
	}

	// A second DELETE is idempotent; DELETE on a done job conflicts.
	if resp, _ := doRequest(t, http.MethodDelete, ts.URL+"/jobs/"+id); resp.StatusCode != http.StatusOK {
		t.Fatalf("re-DELETE: %d, want 200", resp.StatusCode)
	}
	resp, raw = postJSON(t, ts.URL+"/jobs", fastJobBody(t, 5))
	done := decodeJob(t, raw)
	pollJob(t, ts, done.ID, 10*time.Second, func(j JobStatus) bool { return j.State == "done" })
	if resp, _ := doRequest(t, http.MethodDelete, ts.URL+"/jobs/"+done.ID); resp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE done job: %d, want 409", resp.StatusCode)
	}
}

// TestJobsBackpressure429 saturates a 1-worker/1-slot engine and checks
// both /jobs and /embed answer 429 instead of queuing unboundedly.
func TestJobsBackpressure429(t *testing.T) {
	ts, _ := newJobsServer(t, engine.Config{Workers: 1, QueueDepth: 1})

	resp, raw := postJSON(t, ts.URL+"/jobs", slowJobBody(t))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first POST /jobs: %d %s", resp.StatusCode, raw)
	}
	running := decodeJob(t, raw).ID
	pollJob(t, ts, running, 10*time.Second, func(j JobStatus) bool { return j.State == "running" })

	resp, raw = postJSON(t, ts.URL+"/jobs", slowJobBody(t))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second POST /jobs: %d %s", resp.StatusCode, raw)
	}
	queued := decodeJob(t, raw).ID

	if resp, raw := postJSON(t, ts.URL+"/jobs", slowJobBody(t)); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow POST /jobs: %d %s, want 429", resp.StatusCode, raw)
	}
	if resp, raw := postJSON(t, ts.URL+"/embed", slowJobBody(t)); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow POST /embed: %d %s, want 429", resp.StatusCode, raw)
	}

	for _, id := range []string{queued, running} {
		if resp, _ := doRequest(t, http.MethodDelete, ts.URL+"/jobs/"+id); resp.StatusCode != http.StatusOK {
			t.Fatalf("cleanup DELETE %s: %d", id, resp.StatusCode)
		}
	}
}

// TestJobsCacheAcrossModelVersions pins cache semantics end to end: an
// identical resubmission is served cached at the same model version, and
// a PUT /model invalidates it.
func TestJobsCacheAcrossModelVersions(t *testing.T) {
	ts, svc := newJobsServer(t, engine.Config{Workers: 2})

	body := fastJobBody(t, 9)
	_, raw := postJSON(t, ts.URL+"/jobs", body)
	first := pollJob(t, ts, decodeJob(t, raw).ID, 10*time.Second,
		func(j JobStatus) bool { return j.State == "done" })
	if first.Cached {
		t.Fatal("first run must not be cached")
	}

	resp, raw := postJSON(t, ts.URL+"/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: %d %s", resp.StatusCode, raw)
	}
	hit := decodeJob(t, raw)
	if hit.State != "done" || !hit.Cached {
		t.Fatalf("resubmit at same version: state %s cached %v, want instant cache hit", hit.State, hit.Cached)
	}
	if hit.Result.ModelVersion != first.Result.ModelVersion {
		t.Fatal("cache hit reports a different model version")
	}

	// Publish a new snapshot over the API; the cached answer must die.
	host := peek(svc).Host()
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/model",
		strings.NewReader(mustGraphML(t, host.Clone())))
	if err != nil {
		t.Fatal(err)
	}
	putResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	putResp.Body.Close()
	if putResp.StatusCode != http.StatusOK {
		t.Fatalf("PUT /model: %d", putResp.StatusCode)
	}

	_, raw = postJSON(t, ts.URL+"/jobs", body)
	fresh := pollJob(t, ts, decodeJob(t, raw).ID, 10*time.Second,
		func(j JobStatus) bool { return j.State == "done" })
	if fresh.Cached {
		t.Fatal("model update did not invalidate the cached answer")
	}
	if fresh.Result.ModelVersion == first.Result.ModelVersion {
		t.Fatal("post-update answer carries the stale model version")
	}
}

// TestJobsBadRequests covers the validation edges of the async API.
func TestJobsBadRequests(t *testing.T) {
	ts, _ := newJobsServer(t, engine.Config{Workers: 1})

	resp, _ := postJSON(t, ts.URL+"/jobs", EmbedRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty submit: %d, want 400", resp.StatusCode)
	}
	r, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: %d, want 400", r.StatusCode)
	}
	if resp, _ := doRequest(t, http.MethodDelete, ts.URL+"/jobs/42"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown: %d, want 404", resp.StatusCode)
	}
	// Method routing: PUT on /jobs/{id} is not a thing.
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/jobs/1", nil)
	pr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PUT /jobs/1: %d, want 405", pr.StatusCode)
	}
}
