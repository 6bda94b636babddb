package httpapi

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
	"netembed/internal/lifecycle"
	"netembed/internal/service"
	"netembed/internal/topo"
)

// Every search a shard server runs holds an engine slot: /embed,
// /embed/batch, /negotiate, /schedule and POST /embeddings are admitted
// by the same slots and FIFO, and refused alike when both are full.

// admissionServer serves the API, lifecycle endpoints included, over an
// engine with the given tuning.
func admissionServer(t *testing.T, host *graph.Graph, cfg engine.Config) *httptest.Server {
	t.Helper()
	svc := service.New(service.NewModel(host), service.Config{})
	eng := engine.New(svc, cfg)
	srv := NewWithEngine(svc, eng)
	srv.AttachLifecycle(lifecycle.NewManager(svc, lifecycle.Config{}))
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		_ = eng.Close(context.Background())
	})
	return ts
}

// inflight posts body to url on a goroutine of its own. The request is
// canceled, as a client that leaves, by the returned func or at cleanup
// (before the server closes); the channel then yields its status, or 0
// if the client gave up.
func inflight(t *testing.T, url string, body any) (cancel func(), status <-chan int) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan int, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			out <- 0
			return
		}
		resp.Body.Close()
		out <- resp.StatusCode
	}()
	return cancel, out
}

// admissionStats is the part of GET /stats these tests read.
type admissionStats struct {
	Queued  int              `json:"queued"`
	Running int              `json:"running"`
	Search  map[string]int64 `json:"search"`
	Model   struct {
		LiveReaders int `json:"liveReaders"`
	} `json:"model"`
}

func readAdmissionStats(t *testing.T, ts *httptest.Server) admissionStats {
	t.Helper()
	resp, raw := getJSON(t, ts.URL+"/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /stats: %d %s", resp.StatusCode, raw)
	}
	var st admissionStats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitAdmission polls /stats until ok holds, failing after within.
func waitAdmission(t *testing.T, ts *httptest.Server, within time.Duration, what string, ok func(admissionStats) bool) admissionStats {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		st := readAdmissionStats(t, ts)
		if ok(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s not reached within %v: queued %d running %d liveReaders %d",
				what, within, st.Queued, st.Running, st.Model.LiveReaders)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// postWithin posts body and fails the test if no reply comes within d:
// a search left unbounded by the gate, or an admission waiting on the
// slot its own caller holds, shows as a timeout.
func postWithin(t *testing.T, d time.Duration, url string, body any) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: d}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// TestAdmissionRefusesEveryEndpoint: with the one slot held by an /embed
// and the one FIFO place taken by a /negotiate, every other searching
// endpoint answers 429 at once instead of searching beside them.
func TestAdmissionRefusesEveryEndpoint(t *testing.T) {
	ts := admissionServer(t, hardHostJobs(26), engine.Config{Workers: 1, QueueDepth: 1})
	inflight(t, ts.URL+"/embed", slowJobBody(t))
	waitAdmission(t, ts, 5*time.Second, "slot held", func(st admissionStats) bool { return st.Running == 1 })
	inflight(t, ts.URL+"/negotiate", NegotiateHTTPRequest{EmbedRequest: slowJobBody(t)})
	waitAdmission(t, ts, 5*time.Second, "negotiation queued", func(st admissionStats) bool { return st.Queued == 1 })

	fast := fastJobBody(t, 1)
	for path, body := range map[string]any{
		"/embed/batch": BatchEmbedRequest{Requests: []EmbedRequest{fast, fast}},
		"/schedule":    ScheduleHTTPRequest{EmbedRequest: fast, DurationMs: 60_000},
		"/embeddings":  PlaceEmbeddingRequest{EmbedRequest: fast},
		"/negotiate":   NegotiateHTTPRequest{EmbedRequest: fast},
	} {
		if status, raw := postWithin(t, 5*time.Second, ts.URL+path, body); status != http.StatusTooManyRequests {
			t.Errorf("POST %s with the slot and FIFO full: %d %s, want 429", path, status, raw)
		}
	}
}

// TestAdmissionBoundsLiveReaders drives all five searching endpoints at
// once with searches that cannot finish: two hold the two slots, three
// wait, and no more than two snapshots are ever being searched.
func TestAdmissionBoundsLiveReaders(t *testing.T) {
	ts := admissionServer(t, hardHostJobs(26), engine.Config{Workers: 2})
	slow := slowJobBody(t)
	inflight(t, ts.URL+"/embed", slow)
	inflight(t, ts.URL+"/embed/batch", BatchEmbedRequest{Requests: []EmbedRequest{slow, slow}})
	inflight(t, ts.URL+"/negotiate", NegotiateHTTPRequest{EmbedRequest: slow})
	inflight(t, ts.URL+"/schedule", ScheduleHTTPRequest{EmbedRequest: slow, DurationMs: 60_000})
	inflight(t, ts.URL+"/embeddings", PlaceEmbeddingRequest{EmbedRequest: slow})

	maxReaders := 0
	deadline := time.Now().Add(5 * time.Second)
	settled := 0
	for settled < 20 {
		st := readAdmissionStats(t, ts)
		maxReaders = max(maxReaders, st.Model.LiveReaders)
		if st.Running == 2 && st.Queued == 3 {
			settled++ // keep sampling once every request is admitted
		} else if time.Now().After(deadline) {
			t.Fatalf("running %d queued %d after 5s, want 2 and 3 (liveReaders peaked at %d)",
				st.Running, st.Queued, maxReaders)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if maxReaders != 2 {
		t.Fatalf("liveReaders peaked at %d with 2 slots, want 2", maxReaders)
	}
}

// TestAdmissionBatchItemsShareTheCache: identical cacheable items of one
// batch run one search; the others replay its answer from the engine
// cache, say so, and add nothing to /stats' search sums.
func TestAdmissionBatchItemsShareTheCache(t *testing.T) {
	ts, _ := newJobsServer(t, engine.Config{})
	items := make([]EmbedRequest, 16)
	for i := range items {
		items[i] = fastJobBody(t, 7)
	}
	resp, raw := postJSON(t, ts.URL+"/embed/batch", BatchEmbedRequest{Requests: items})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out BatchEmbedResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	cached := 0
	for i, res := range out.Results {
		if res.Result == nil {
			t.Fatalf("item %d failed: %s", i, res.Error)
		}
		if res.Result.Cached {
			cached++
		}
	}
	if cached != 15 || out.Results[0].Result.Cached {
		t.Errorf("%d items cached (first: %v), want the 15 after the first", cached, out.Results[0].Result.Cached)
	}
	nodes, ok := out.Results[0].Result.Stats["nodesVisited"].(float64)
	if !ok || nodes == 0 {
		t.Fatalf("first item's stats.nodesVisited = %v", out.Results[0].Result.Stats["nodesVisited"])
	}
	if got := readAdmissionStats(t, ts).Search["nodesVisited"]; got != int64(nodes) {
		t.Errorf("/stats search.nodesVisited = %d, want one search's %d", got, int64(nodes))
	}
}

// TestAdmissionScheduleIsALiveReader: a horizon scan pins its snapshot
// as an epoch, so /stats counts it while it searches.
func TestAdmissionScheduleIsALiveReader(t *testing.T) {
	ts, _ := newJobsServer(t, engine.Config{})
	inflight(t, ts.URL+"/schedule", ScheduleHTTPRequest{EmbedRequest: slowJobBody(t), DurationMs: 60_000})
	waitAdmission(t, ts, 3*time.Second, "scan counted as a live reader", func(st admissionStats) bool {
		return st.Model.LiveReaders >= 1
	})
}

// TestAdmissionNoNestedWait: with a single slot, every multi-search
// operation runs all its searches in the slot it holds; one that asked
// the engine for another slot would wait on itself forever.
func TestAdmissionNoNestedWait(t *testing.T) {
	host := topo.Clique(3)
	for i := 0; i < host.NumEdges(); i++ {
		host.Edge(graph.EdgeID(i)).Attrs = graph.Attrs{}.SetNum("avgDelay", 50)
	}
	ts := admissionServer(t, host, engine.Config{Workers: 1})
	line := EmbedRequest{QueryGraphML: mustGraphML(t, topo.Line(2)), MaxResults: 1}
	within := 5 * time.Second

	if status, raw := postWithin(t, within, ts.URL+"/embed/batch", BatchEmbedRequest{Requests: []EmbedRequest{line, line}}); status != http.StatusOK {
		t.Fatalf("batch: %d %s", status, raw)
	}
	status, raw := postWithin(t, within, ts.URL+"/negotiate", NegotiateHTTPRequest{
		EmbedRequest: EmbedRequest{QueryGraphML: cliqueQueryML(t, 30, 40), EdgeConstraint: avgConstraint},
		MaxRounds:    3,
	})
	var neg NegotiateHTTPResponse
	if status != http.StatusOK || json.Unmarshal(raw, &neg) != nil || neg.Rounds < 1 {
		t.Fatalf("negotiate: %d %s, want 200 after at least one relaxation", status, raw)
	}
	// A placement leasing two of the three hosts for the next minute
	// makes the schedule's first window infeasible.
	if status, raw := postWithin(t, within, ts.URL+"/embeddings", PlaceEmbeddingRequest{EmbedRequest: line, TTLMs: 60_000}); status != http.StatusCreated {
		t.Fatalf("place: %d %s", status, raw)
	}
	status, raw = postWithin(t, within, ts.URL+"/schedule", ScheduleHTTPRequest{
		EmbedRequest: EmbedRequest{QueryGraphML: cliqueQueryML(t, 40, 60), EdgeConstraint: avgConstraint},
		DurationMs:   60_000,
		StepMs:       60_000,
	})
	var sched ScheduleHTTPResponse
	if status != http.StatusOK || json.Unmarshal(raw, &sched) != nil || sched.WindowsTried < 2 {
		t.Fatalf("schedule: %d %s, want 200 after at least two windows", status, raw)
	}
}

// TestAdmissionNegotiateLeavesFIFO: a client that leaves while its
// /negotiate waits for a slot gives up its place, as a waiting /embed
// does.
func TestAdmissionNegotiateLeavesFIFO(t *testing.T) {
	ts := admissionServer(t, hardHostJobs(26), engine.Config{Workers: 1})
	inflight(t, ts.URL+"/embed", slowJobBody(t))
	waitAdmission(t, ts, 5*time.Second, "slot held", func(st admissionStats) bool { return st.Running == 1 })
	leave, status := inflight(t, ts.URL+"/negotiate", NegotiateHTTPRequest{EmbedRequest: fastJobBody(t, 1)})
	waitAdmission(t, ts, 5*time.Second, "negotiation queued", func(st admissionStats) bool { return st.Queued == 1 })
	leave()
	waitAdmission(t, ts, 5*time.Second, "place given up", func(st admissionStats) bool { return st.Queued == 0 })
	select {
	case <-status:
	case <-time.After(5 * time.Second):
		t.Fatal("the departed client's request never returned")
	}
	if st := readAdmissionStats(t, ts); st.Running != 1 {
		t.Errorf("running %d after the waiter left, want the /embed still holding its slot", st.Running)
	}
}
