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
	"netembed/internal/service"
	"netembed/internal/topo"
	"netembed/internal/trace"
)

// Steady-state allocation budgets for the serve path, each under the
// parent figure of the change that set it, so reintroducing a removed
// sink fails here. On the 6-node/8-edge query of newAllocServer:
//
//	request                 budget  measured  before
//	cached /embed               50        25      378 (envelope scanner, pooled
//	warm /embed (search)       100        59      134  fingerprint, reply writer)
//	novel /embed (decode)      120       109      150 (exact-sized decode)
//	cached /jobs submit+poll   450       350      638
//
// Earlier layers these also guard: per-request GraphML decoding through
// encoding/xml (≈1,800 allocations, now the one-pass scanner plus the
// decode LRU), per-element decoding storage (41 on this query, now sized
// once per document) and per-search filter and searcher construction
// (≈350, now pooled in core). A -race build counts more allocations (its
// sync.Pool drops items at random), so there every budget grows by half
// (budget), still under the budgets these replaced.
const (
	warmEmbedAllocBudget    = 100
	cachedSubmitAllocBudget = 450
	novelEmbedAllocBudget   = 120
	cachedEmbedAllocBudget  = 50
)

// budget scales an allocation budget for the build being tested.
func budget(n int) float64 {
	if raceEnabled {
		return float64(n) * 1.5
	}
	return float64(n)
}

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
	t.Logf("warm /embed: %.1f allocs/op (budget %.0f)", avg, budget(warmEmbedAllocBudget))
	if avg > budget(warmEmbedAllocBudget) {
		t.Errorf("warm /embed allocates %.1f/op, budget %.0f — a serve-path reuse layer regressed",
			avg, budget(warmEmbedAllocBudget))
	}
}

// TestCachedEmbedAllocBudget pins the allocation count of a POST /embed
// answered from the engine's result cache — the whole request is the
// serve path around the cache, as on the ledger's repeat_hot workload:
// envelope read and scan, decode-LRU hit, fingerprint, cache lookup and
// the reply writer.
func TestCachedEmbedAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow under -short")
	}
	api, body := newAllocServer(t, 64)
	do := func() {
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, httptest.NewRequest("POST", "/embed", bytes.NewReader(body)))
		if rec.Code != 200 {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	for i := 0; i < 5; i++ {
		do() // fill the result cache, prime pools
	}
	hits := api.Engine().Stats().CacheHits
	avg := testing.AllocsPerRun(50, do)
	if got := api.Engine().Stats().CacheHits - hits; got < 50 {
		t.Fatalf("%d of the measured requests hit the result cache, want all", got)
	}
	t.Logf("cached /embed: %.1f allocs/op (budget %.0f)", avg, budget(cachedEmbedAllocBudget))
	if avg > budget(cachedEmbedAllocBudget) {
		t.Errorf("cached /embed allocates %.1f/op, budget %.0f — the request codec regressed",
			avg, budget(cachedEmbedAllocBudget))
	}
}

// TestNovelEmbedAllocBudget pins the allocation count of a POST /embed
// whose query the decode LRU has never seen: 300 distinct planted
// queries cycle through a 256-entry LRU, so every request decodes its
// GraphML. Decoded through encoding/xml the request made ≈1,490
// allocations, through the one-pass scanner ≈230, ≈150 once the
// envelope, fingerprint and reply stopped allocating per field, and 109
// since the scanner sizes the graph's storage once per document.
func TestNovelEmbedAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow under -short")
	}
	api, _ := newAllocServer(t, -1)
	host := peek(api.svc).Host()
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
	t.Logf("novel /embed: %.1f allocs/op (budget %.0f)", avg, budget(novelEmbedAllocBudget))
	if avg > budget(novelEmbedAllocBudget) {
		t.Errorf("novel /embed allocates %.1f/op, budget %.0f — the GraphML decode path regressed",
			avg, budget(novelEmbedAllocBudget))
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
	t.Logf("cached job submit+poll: %.1f allocs/op (budget %.0f)", avg, budget(cachedSubmitAllocBudget))
	if avg > budget(cachedSubmitAllocBudget) {
		t.Errorf("cached job submit+poll allocates %.1f/op, budget %.0f — the cached serve path regressed",
			avg, budget(cachedSubmitAllocBudget))
	}
}
