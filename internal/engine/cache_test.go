package engine

import (
	"context"
	"fmt"
	"testing"
	"time"

	"netembed/internal/core"
	"netembed/internal/graph"
	"netembed/internal/service"
	"netembed/internal/topo"
)

func attrQuery() *graph.Graph {
	g := graph.NewUndirected()
	a := g.AddNode("a", graph.Attrs{}.SetNum("cpu", 2).SetStr("os", "linux").SetBool("gpu", true))
	b := g.AddNode("b", graph.Attrs{}.SetNum("cpu", 4))
	g.MustAddEdge(a, b, graph.Attrs{}.SetNum("minDelay", 1.5).SetNum("maxDelay", 9))
	return g
}

// TestRequestKeyDeterministic pins the property the cache depends on:
// equal requests — including attribute-bearing queries, whose attrs live
// in Go maps with randomized iteration order — always produce the same
// fingerprint, across repetitions and across structurally equal clones.
func TestRequestKeyDeterministic(t *testing.T) {
	req := service.Request{
		Query:          attrQuery(),
		EdgeConstraint: "rEdge.minDelay >= vEdge.minDelay",
		Timeout:        5 * time.Second,
		MaxResults:     3,
	}
	base, ok := requestKey(req)
	if !ok {
		t.Fatal("request unexpectedly uncacheable")
	}
	for i := 0; i < 20; i++ {
		if k, _ := requestKey(req); k != base {
			t.Fatalf("fingerprint drifted on repetition %d: %s vs %s", i, k, base)
		}
	}
	clone := req
	clone.Query = attrQuery() // fresh maps, same content
	if k, _ := requestKey(clone); k != base {
		t.Fatal("structurally equal query hashed differently")
	}
}

// TestRequestKeySensitivity checks every answer-shaping knob moves the
// fingerprint, and that ledger-dependent requests opt out entirely.
func TestRequestKeySensitivity(t *testing.T) {
	base := service.Request{Query: attrQuery(), MaxResults: 1}
	baseKey, _ := requestKey(base)

	mutations := map[string]func(*service.Request){
		"edge constraint":  func(r *service.Request) { r.EdgeConstraint = "true" },
		"node constraint":  func(r *service.Request) { r.NodeConstraint = "true" },
		"algorithm":        func(r *service.Request) { r.Algorithm = service.AlgoRWB },
		"max results":      func(r *service.Request) { r.MaxResults = 2 },
		"seed":             func(r *service.Request) { r.Seed = 42 },
		"dedupe":           func(r *service.Request) { r.DedupeSymmetric = true },
		"consolidate":      func(r *service.Request) { r.Consolidate.CapacityAttr = "slots" },
		"default capacity": func(r *service.Request) { r.Consolidate.DefaultCapacity = 4 },
		"query attrs": func(r *service.Request) {
			r.Query = attrQuery()
			r.Query.Node(0).Attrs = r.Query.Node(0).Attrs.SetNum("cpu", 3)
		},
		"query topology": func(r *service.Request) {
			r.Query = attrQuery()
			r.Query.AddNode("c", nil)
		},
		"path max hops":   func(r *service.Request) { r.Path.MaxHops = 4 },
		"path delay attr": func(r *service.Request) { r.Path.DelayAttr = "p95Delay" },
		"path window lo":  func(r *service.Request) { r.Path.WindowLo = "floorDelay" },
		"path window hi":  func(r *service.Request) { r.Path.WindowHi = "ceilDelay" },
		"path metrics": func(r *service.Request) {
			r.Path.Metrics = []core.MetricSpec{{Attr: "bandwidth", Rule: core.Bottleneck, LoAttr: "minBandwidth"}}
		},
		"path metric rule": func(r *service.Request) {
			r.Path.Metrics = []core.MetricSpec{{Attr: "bandwidth", Rule: core.Multiplicative, LoAttr: "minBandwidth"}}
		},
		"path missing fails": func(r *service.Request) {
			r.Path.Metrics = []core.MetricSpec{{Attr: "bandwidth", Rule: core.Bottleneck, LoAttr: "minBandwidth", MissingFails: true}}
		},
	}
	for name, mutate := range mutations {
		r := base
		mutate(&r)
		k, ok := requestKey(r)
		if !ok {
			t.Fatalf("%s: unexpectedly uncacheable", name)
		}
		if k == baseKey {
			t.Fatalf("%s: fingerprint did not change", name)
		}
	}

	// The budget is not part of the key: only budget-independent answers
	// are stored (cacheableResponse).
	for _, timeout := range []time.Duration{time.Second, time.Minute} {
		r := base
		r.Timeout = timeout
		if k, ok := requestKey(r); !ok || k != baseKey {
			t.Fatalf("timeout %v moved the fingerprint", timeout)
		}
	}

	for name, r := range map[string]service.Request{
		"nil query":        {},
		"exclude reserved": {Query: attrQuery(), ExcludeReserved: true},
		"stop hook":        {Query: attrQuery(), Stop: func() bool { return false }},
	} {
		if _, ok := requestKey(r); ok {
			t.Fatalf("%s: must be uncacheable", name)
		}
	}
}

// TestRequestKeyAllow: an allow-set is part of the problem statement, so
// it moves the fingerprint — and, being a set of sets, permuting the lists
// (or the map's iteration order) does not.
func TestRequestKeyAllow(t *testing.T) {
	base := service.Request{Query: attrQuery(), MaxResults: 1}
	baseKey, _ := requestKey(base)
	with := func(allow map[string][]string) string {
		r := base
		r.Allow = allow
		k, ok := requestKey(r)
		if !ok {
			t.Fatal("allow-set made the request uncacheable")
		}
		return k
	}
	if with(map[string][]string{}) != baseKey {
		t.Error("an empty allow-set restricts nothing and must hash like none")
	}
	ab := with(map[string][]string{"a": {"h1", "h2"}, "b": {"h3"}})
	for name, other := range map[string]map[string][]string{
		"other host":       {"a": {"h1", "h4"}, "b": {"h3"}},
		"other query node": {"a": {"h1", "h2"}},
		"moved host":       {"a": {"h1"}, "b": {"h2", "h3"}},
		"empty list":       {"a": {"h1", "h2"}, "b": {}},
	} {
		if k := with(other); k == ab || k == baseKey {
			t.Errorf("%s: fingerprint did not change", name)
		}
	}
	if ab == baseKey {
		t.Error("allow-set did not move the fingerprint")
	}
	if with(map[string][]string{"b": {"h3"}, "a": {"h2", "h1"}}) != ab {
		t.Error("permuting an allow-set's lists split one answer over two cache entries")
	}
}

// TestResultCacheLRU pins capacity eviction and version-keyed lookup.
func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	r1, r2, r3 := &service.Response{}, &service.Response{}, &service.Response{}
	c.put("a", 1, r1)
	c.put("b", 1, r2)
	if _, ok := c.get("a", 2); ok {
		t.Fatal("lookup at the wrong model version hit")
	}
	if got, ok := c.get("a", 1); !ok || got != r1 {
		t.Fatal("expected hit for (a,1)")
	}
	c.put("c", 1, r3) // evicts b, the least recently used
	if _, ok := c.get("b", 1); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := c.get("a", 1); !ok {
		t.Fatal("recently used entry evicted")
	}
	if swept := c.sweep(2); swept != 2 {
		t.Fatalf("sweep removed %d entries, want 2", swept)
	}
	if c.len() != 0 {
		t.Fatalf("cache not empty after sweep: %d", c.len())
	}
}

// TestCacheIgnoresBudget: the same request at 1 s and at 1 min is one
// cache entry, and an answer its budget cut short is never stored, so the
// next request with that budget searches again.
func TestCacheIgnoresBudget(t *testing.T) {
	svc := service.New(service.NewModel(hardHost(26)), service.Config{})
	e := New(svc, Config{Workers: 1})
	defer e.Close(context.Background())
	ctx := context.Background()

	req := fastRequest(1)
	req.Timeout = time.Second
	if info, err := e.Do(ctx, req); err != nil || info.FromCache {
		t.Fatalf("first request: cached %v, %v", info.FromCache, err)
	}
	req.Timeout = time.Minute
	if info, err := e.Do(ctx, req); err != nil || !info.FromCache {
		t.Fatalf("the 1 min request missed the 1 s request's entry (%v)", err)
	}

	cut := slowRequest()
	cut.Timeout = 50 * time.Millisecond
	for i := 0; i < 2; i++ {
		info, err := e.Do(ctx, cut)
		if err != nil {
			t.Fatal(err)
		}
		if info.FromCache || info.Response.Status == core.StatusComplete {
			t.Fatalf("run %d of a search its budget cuts short: status %v, cached %v", i, info.Response.Status, info.FromCache)
		}
	}
	if n := e.Stats().CacheEntries; n != 1 {
		t.Fatalf("%d cache entries, want the one budget-independent answer", n)
	}

	// An optimizing search ignores MaxResults, so a partial answer with
	// MaxResults mappings is still the incumbent its budget left it with.
	// Priced hosts keep the bound from proving the first incumbent optimal.
	prices := &graph.Delta{}
	for i := 0; i < 26; i++ {
		prices.SetNodeAttrs = append(prices.SetNodeAttrs, graph.NodeAttrUpdate{
			Node: fmt.Sprintf("n%d", i), Set: graph.Attrs{}.SetNum("price", float64((i*7)%26)),
		})
	}
	if _, err := svc.Model().Apply(prices); err != nil {
		t.Fatal(err)
	}
	opt := service.Request{
		Query: topo.Clique(12), MaxResults: 1, Timeout: 50 * time.Millisecond,
		Optimize: true, Objective: core.Objective{Kind: core.ObjectiveAttrCost, Attr: "price"},
	}
	for i := 0; i < 2; i++ {
		info, err := e.Do(ctx, opt)
		if err != nil {
			t.Fatal(err)
		}
		if info.Response.Status != core.StatusPartial || len(info.Response.Mappings) != 1 {
			t.Fatalf("run %d: status %v with %d mappings, want a partial incumbent", i, info.Response.Status, len(info.Response.Mappings))
		}
		if info.FromCache {
			t.Fatalf("run %d replayed a short budget's incumbent", i)
		}
	}
}
