// Serve-path performance layer: the request-side allocation sinks that
// profiling BenchmarkServePath surfaced live here and in codec.go.
//
// A warm /embed pays for four codec steps around the search, and each
// has been cut to a handful of allocations. The query network travels as
// GraphML: graphml's one-pass scanner decodes an 8-node/12-edge query in
// 61 allocations, two per attribute bag and the rest sized once per
// document (the encoding/xml decoder it replaced took ≈1,800),
// and load generators and monitoring loops resubmit the same handful of
// query shapes verbatim, so queryCache below memoizes raw GraphML text →
// decoded *graph.Graph under a small LRU. Decoded graphs are immutable by
// the service's copy-on-write discipline (Negotiate clones before
// relaxing windows, and no handler mutates a decoded query), so one
// decode serves every request that carries byte-identical GraphML. The
// LRU is bounded in bytes as well as entries: a document longer than
// maxCachedQueryBytes is decoded but never cached. The JSON envelope
// around it is read once into a pooled buffer and scanned without
// reflection (codec.go: ≈20 µs and 3 allocations for the 6.5 KB body of
// that query, against ≈78 µs and 15 through json.Decoder); the engine
// fingerprints the request into one recycled byte stream (1 allocation,
// was 385); and the reply is appended straight into a pooled buffer
// instead of being reflected (≈22 µs and 61 allocations before). A
// result-cache hit, the repeat_hot path, so costs ≈45 µs and 28
// allocations in BenchmarkServePath/cached (was ≈130–165 µs and 491 on a
// 2-vCPU box). Every other JSON reply still goes through writeJSON,
// which rents its encoder buffers from a sync.Pool (see httpapi.go).
//
// GET /stats additionally reports the serve-path gauges defined here:
// runtime memory counters, the model's snapshot-retirement epochs and the
// query-cache hit ratio, nested beside the flat engine counters.
package httpapi

import (
	"bytes"
	"container/list"
	"runtime"
	"sync"

	"netembed/internal/graph"
	"netembed/internal/graphml"
	"netembed/internal/service"
)

// defaultQueryCacheCap bounds the decoded-query LRU. Steady workloads
// cycle a few dozen query shapes; 256 keeps the worst-case footprint
// (256 small query graphs plus their GraphML keys) in the low megabytes.
const defaultQueryCacheCap = 256

// maxCachedQueryBytes is the longest GraphML document the LRU keeps. A
// planted 8-node query is ≈4 KB; 64 KiB bounds the cache at 16 MiB of
// keys however large the documents a client sends.
const maxCachedQueryBytes = 64 << 10

// queryCache is a mutex-guarded LRU from raw GraphML text to the decoded
// query graph. Values are shared across requests and MUST be treated as
// immutable by every caller.
type queryCache struct {
	mu     sync.Mutex
	cap    int
	m      map[string]*list.Element
	l      list.List // front = most recently used
	hits   uint64
	misses uint64
}

type queryCacheEntry struct {
	key string
	g   *graph.Graph
}

func newQueryCache(capacity int) *queryCache {
	if capacity <= 0 {
		capacity = defaultQueryCacheCap
	}
	c := &queryCache{cap: capacity, m: make(map[string]*list.Element)}
	c.l.Init()
	return c
}

// decode returns the parsed query for raw, serving repeats from the LRU.
// Decode errors are returned without caching (malformed documents are not
// worth an entry), and so are documents over maxCachedQueryBytes.
// Concurrent misses on the same key may decode twice; the first insert
// stays and the later decoder returns it too, so every lookup of one
// text gets one pointer (the graphs are interchangeable either way).
func (c *queryCache) decode(raw string) (*graph.Graph, error) {
	c.mu.Lock()
	if el, ok := c.m[raw]; ok {
		c.l.MoveToFront(el)
		c.hits++
		g := el.Value.(*queryCacheEntry).g
		c.mu.Unlock()
		return g, nil
	}
	c.misses++
	c.mu.Unlock()

	g, err := graphml.DecodeString(raw)
	if err != nil || len(raw) > maxCachedQueryBytes {
		return g, err
	}

	c.mu.Lock()
	if el, ok := c.m[raw]; ok {
		// Lost the decode race; keep the incumbent so repeated lookups
		// return a stable pointer.
		c.l.MoveToFront(el)
		g = el.Value.(*queryCacheEntry).g
	} else {
		c.m[raw] = c.l.PushFront(&queryCacheEntry{key: raw, g: g})
		if c.l.Len() > c.cap {
			oldest := c.l.Back()
			c.l.Remove(oldest)
			delete(c.m, oldest.Value.(*queryCacheEntry).key)
		}
	}
	c.mu.Unlock()
	return g, nil
}

func (c *queryCache) stats() (hits, misses uint64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.l.Len()
}

// responseBufPool recycles the JSON encoding buffers writeJSON rents.
// Buffers that grew past maxPooledResponseBuf (a giant /embed answer with
// thousands of mappings) are dropped instead of pinned.
var responseBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledResponseBuf = 1 << 20

// serveStatsJSON nests the serve-path gauges beside the flat engine
// counters on GET /stats: runtime memory state, the model's
// snapshot-retirement epochs and the query-decode cache ratio. It is
// embedded (untagged) so the engine fields stay at the top level for
// existing clients.
type serveStatsJSON struct {
	Model   service.EpochStats `json:"model"`
	Runtime runtimeStatsJSON   `json:"runtime"`
	API     apiStatsJSON       `json:"api"`
}

// runtimeStatsJSON is the slice of runtime.MemStats the load harness
// diffs across a run to report server-side allocation behavior.
type runtimeStatsJSON struct {
	HeapAllocBytes  uint64 `json:"heapAllocBytes"`
	HeapObjects     uint64 `json:"heapObjects"`
	TotalAllocBytes uint64 `json:"totalAllocBytes"`
	Mallocs         uint64 `json:"mallocs"`
	Frees           uint64 `json:"frees"`
	NumGC           uint32 `json:"numGC"`
	PauseTotalNs    uint64 `json:"pauseTotalNs"`
	NumGoroutine    int    `json:"numGoroutine"`
}

type apiStatsJSON struct {
	QueryCacheHits    uint64 `json:"queryCacheHits"`
	QueryCacheMisses  uint64 `json:"queryCacheMisses"`
	QueryCacheEntries int    `json:"queryCacheEntries"`
}

func (s *Server) serveSections() serveStatsJSON {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	hits, misses, entries := s.queries.stats()
	return serveStatsJSON{
		Model: s.svc.Model().EpochStats(),
		Runtime: runtimeStatsJSON{
			HeapAllocBytes:  ms.HeapAlloc,
			HeapObjects:     ms.HeapObjects,
			TotalAllocBytes: ms.TotalAlloc,
			Mallocs:         ms.Mallocs,
			Frees:           ms.Frees,
			NumGC:           ms.NumGC,
			PauseTotalNs:    ms.PauseTotalNs,
			NumGoroutine:    runtime.NumGoroutine(),
		},
		API: apiStatsJSON{
			QueryCacheHits:    hits,
			QueryCacheMisses:  misses,
			QueryCacheEntries: entries,
		},
	}
}
