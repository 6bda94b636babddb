package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"testing"

	"netembed/internal/engine"
	"netembed/internal/graphml"
	"netembed/internal/index"
	"netembed/internal/service"
	"netembed/internal/topo"
	"netembed/internal/trace"
)

// Steady-state allocation budgets for the serve path, pinned after the
// PR-8 pooling work (search-state sync.Pool in core, query-decode LRU
// and response-buffer reuse here). Before that work a warm /embed ran
// ~2300 allocs; pooling plus the decode cache brought it under 200. The
// budgets leave slack for runtime noise (background engine goroutines
// allocate on their own schedule) while still catching a regression that
// reintroduces per-request GraphML decoding (~1800 allocs) or per-search
// filter construction (~350 allocs).
const (
	warmEmbedAllocBudget    = 700
	cachedSubmitAllocBudget = 700
	novelEmbedAllocBudget   = 400
)

func newAllocServer(t *testing.T, cacheCap int) (*Server, []byte) {
	t.Helper()
	host := trace.SyntheticPlanetLab(trace.Config{Sites: 30}, rand.New(rand.NewSource(1)))
	q, _, err := topo.Subgraph(host, 6, 8, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	queryXML, err := graphml.EncodeString(q)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]interface{}{"query": queryXML, "maxResults": 1})
	if err != nil {
		t.Fatal(err)
	}
	model := service.NewModel(host)
	model.EnableIndex(index.Config{})
	svc := service.New(model, service.Config{})
	eng := engine.New(svc, engine.Config{Workers: 1, QueueDepth: 64, CacheCapacity: cacheCap})
	t.Cleanup(func() { eng.Close(context.Background()) })
	return NewWithEngine(svc, eng), body
}

// TestWarmEmbedAllocBudget pins the steady-state allocation count of a
// warm POST /embed that runs a real search every time (result cache
// disabled): pooled searcher + filters, cached query decode, pooled
// response buffer. Blowing the budget means one of those reuse layers
// regressed.
func TestWarmEmbedAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow under -short")
	}
	api, body := newAllocServer(t, -1)
	do := func() {
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, httptest.NewRequest("POST", "/embed", bytes.NewReader(body)))
		if rec.Code != 200 {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	for i := 0; i < 5; i++ {
		do() // prime pools and the query-decode cache
	}
	avg := testing.AllocsPerRun(50, do)
	t.Logf("warm /embed: %.1f allocs/op (budget %d)", avg, warmEmbedAllocBudget)
	if avg > warmEmbedAllocBudget {
		t.Errorf("warm /embed allocates %.1f/op, budget %d — a serve-path reuse layer regressed",
			avg, warmEmbedAllocBudget)
	}
}

// TestNovelEmbedAllocBudget pins the allocation count of a POST /embed
// whose query the decode LRU has never seen: 300 distinct planted
// queries cycle through a 256-entry LRU, so every request decodes its
// GraphML. Decoded through encoding/xml the request made ≈1,490
// allocations; through the one-pass scanner it makes ≈230 (≈285 under
// -race, which roughly doubles what AllocsPerRun counts).
func TestNovelEmbedAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow under -short")
	}
	api, _ := newAllocServer(t, -1)
	host, _ := api.svc.Model().Snapshot()
	rng := rand.New(rand.NewSource(3))
	bodies := make([][]byte, 300)
	for i := range bodies {
		q, _, err := topo.Subgraph(host, 6, 8, rng)
		if err != nil {
			t.Fatal(err)
		}
		queryXML, err := graphml.EncodeString(q)
		if err != nil {
			t.Fatal(err)
		}
		if bodies[i], err = json.Marshal(map[string]interface{}{"query": queryXML, "maxResults": 1}); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	do := func() {
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, httptest.NewRequest("POST", "/embed", bytes.NewReader(bodies[next%len(bodies)])))
		next++
		if rec.Code != 200 {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	for range bodies {
		do() // prime pools; the LRU now holds the last 256 bodies
	}
	avg := testing.AllocsPerRun(200, do)
	if _, misses, _ := api.queries.stats(); misses < uint64(next) {
		t.Fatalf("query LRU hit %d of %d requests, want every one to miss", uint64(next)-misses, next)
	}
	t.Logf("novel /embed: %.1f allocs/op (budget %d)", avg, novelEmbedAllocBudget)
	if avg > novelEmbedAllocBudget {
		t.Errorf("novel /embed allocates %.1f/op, budget %d — the GraphML decode path regressed",
			avg, novelEmbedAllocBudget)
	}
}

// TestCachedJobSubmitAllocBudget pins the allocation count of submitting
// a job whose answer is served from the engine's model-versioned result
// cache and polling it to completion — the cheapest full round trip the
// API offers, and the one the load harness leans on hardest.
func TestCachedJobSubmitAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow under -short")
	}
	api, body := newAllocServer(t, 64)
	submit := func() string {
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, httptest.NewRequest("POST", "/jobs", bytes.NewReader(body)))
		if rec.Code != 202 && rec.Code != 200 {
			t.Fatalf("submit status %d: %s", rec.Code, rec.Body.String())
		}
		var st JobStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st.ID
	}
	poll := func(id string) {
		// AllocsPerRun pins GOMAXPROCS to 1, so the loop must yield or the
		// engine worker goroutine never gets scheduled to finish the job.
		for i := 0; i < 10000; i++ {
			runtime.Gosched()
			rec := httptest.NewRecorder()
			api.ServeHTTP(rec, httptest.NewRequest("GET", "/jobs/"+id, nil))
			var st JobStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
			if st.State == "done" || st.State == "failed" {
				return
			}
		}
		t.Fatal("job never finished")
	}
	for i := 0; i < 5; i++ {
		poll(submit()) // fill the result cache, prime pools
	}
	avg := testing.AllocsPerRun(50, func() { poll(submit()) })
	t.Logf("cached job submit+poll: %.1f allocs/op (budget %d)", avg, cachedSubmitAllocBudget)
	if avg > cachedSubmitAllocBudget {
		t.Errorf("cached job submit+poll allocates %.1f/op, budget %d — the cached serve path regressed",
			avg, cachedSubmitAllocBudget)
	}
}
