package engine

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"sync"

	"netembed/internal/graph"
	"netembed/internal/service"
)

// requestKey fingerprints everything that determines a request's answer
// except the hosting network itself: a canonical serialization of the
// query (nodes and edges in ID order, attributes sorted by name — equal
// graphs hash equally), the constraint sources, and every result-shaping
// option. The model version is NOT part of this hash; the cache composes
// it separately so a monitor publish invalidates every entry at once
// without rehashing.
//
// The time budget is not part of the key either. An answer is stored
// only when it does not depend on the budget (cacheableResponse): a
// complete enumeration or proven optimum, or an enumerating search's
// partial answer cut off by the request's own MaxResults. Whatever
// budget produced it, any budget that lets the search finish produces
// the same answer, and an answer the budget cut short is never stored —
// including an optimizing search's partial incumbent, which MaxResults
// never cuts off. So a coordinator's fragments, each sent with whatever
// budget is left, share one entry.
//
// Requests that depend on state outside the model snapshot are not
// cacheable: ExcludeReserved answers change with the ledger, and a
// caller-supplied Stop hook can truncate the search at an arbitrary
// point, so its (partial) answer must never be replayed to other
// callers. Those return ok=false.
//
// The keycomplete analyzer holds this function to the request types it
// serializes: every exported field below must be hashed (or gate
// cacheability) here, so a new request knob cannot silently alias cache
// entries.
//
//keycomplete:fingerprint service.Request
//keycomplete:fingerprint service.PathRequestOptions
//keycomplete:fingerprint core.ConsolidateOptions
//keycomplete:fingerprint core.MetricSpec
//keycomplete:fingerprint core.Objective
func requestKey(req service.Request) (string, bool) {
	if req.Query == nil || req.ExcludeReserved || req.Stop != nil || req.OnImprove != nil {
		return "", false
	}
	h := keyBufPool.Get().(*keyBuf)
	h.b = h.b[:0]
	hashGraph(h, req.Query)
	writeString(h, req.EdgeConstraint)
	writeString(h, req.NodeConstraint)
	writeString(h, string(req.Algorithm))
	// Optimizing-search knobs: the objective is a pure value, so it joins
	// the fingerprint field-by-field — two requests differing only in
	// objective kind, attribute or weight must never alias.
	writeUint(h, boolBit(req.Optimize))
	writeUint(h, uint64(req.Objective.Kind))
	writeString(h, req.Objective.Attr)
	writeUint(h, math.Float64bits(req.Objective.Weight))
	writeString(h, req.Consolidate.CapacityAttr)
	writeString(h, req.Consolidate.DemandAttr)
	writeUint(h, uint64(req.MaxResults))
	writeUint(h, uint64(req.Seed))
	writeUint(h, boolBit(req.DedupeSymmetric))
	writeUint(h, math.Float64bits(req.Consolidate.DefaultCapacity))
	writeUint(h, boolBit(req.Consolidate.Loopback != nil))
	hashAttrs(h, req.Consolidate.Loopback)
	// Path-mode tuning: two path requests differing in hop bound, window
	// attributes or metric conjunction have different answers, so every
	// field joins the fingerprint.
	writeUint(h, uint64(req.Path.MaxHops))
	writeString(h, req.Path.DelayAttr)
	writeString(h, req.Path.WindowLo)
	writeString(h, req.Path.WindowHi)
	writeUint(h, uint64(len(req.Path.Metrics)))
	for _, spec := range req.Path.Metrics {
		writeString(h, spec.Attr)
		writeUint(h, uint64(spec.Rule))
		writeString(h, spec.LoAttr)
		writeString(h, spec.HiAttr)
		writeUint(h, math.Float64bits(spec.MissingEdge))
		writeUint(h, boolBit(spec.MissingFails))
	}
	// Allow-sets are sets: node names and each list are hashed in sorted
	// order, so permuting either cannot split one answer over two entries.
	// An empty map restricts nothing and, last in the stream, adds nothing.
	if len(req.Allow) > 0 {
		nodes := h.names[:0]
		for node := range req.Allow {
			nodes = append(nodes, node)
		}
		slices.Sort(nodes)
		writeUint(h, uint64(len(nodes)))
		for _, node := range nodes {
			hosts := append(h.hosts[:0], req.Allow[node]...)
			slices.Sort(hosts)
			writeString(h, node)
			writeUint(h, uint64(len(hosts)))
			for _, host := range hosts {
				writeString(h, host)
			}
			h.hosts = hosts
		}
		h.names = nodes
	}
	sum := sha256.Sum256(h.b)
	h.release()
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:]), true
}

// keyBuf is requestKey's scratch: the canonical byte stream the digest
// is taken over (length-prefixed strings, little-endian uint64s), and the
// sort buffers for attribute names and allow-set lists. Appending the
// stream to one recycled slice and summing it once keeps a warm request's
// fingerprint at a single allocation, the key string; TestRequestKeyGolden
// pins the digests.
type keyBuf struct {
	b     []byte
	names []string
	hosts []string
}

var keyBufPool = sync.Pool{New: func() any { return new(keyBuf) }}

// maxPooledKeyBuf caps the stream a recycled keyBuf keeps: a request for
// a host-sized query is fingerprinted once and its buffer dropped.
const maxPooledKeyBuf = 1 << 20

// release clears the name buffers (they point into request graphs) and
// returns h to the pool unless its stream grew past maxPooledKeyBuf.
func (h *keyBuf) release() {
	clear(h.names[:cap(h.names)])
	clear(h.hosts[:cap(h.hosts)])
	h.names, h.hosts = h.names[:0], h.hosts[:0]
	if cap(h.b) <= maxPooledKeyBuf {
		keyBufPool.Put(h)
	}
}

// hashGraph feeds a canonical, collision-framed serialization of g into
// h: orientation, then nodes in ID order (name + attrs), then edges in
// ID order (endpoints + attrs). Attribute maps are iterated in sorted
// name order so equal graphs always produce equal bytes (the GraphML
// encoder is canonical the same way since its key IDs were pinned to
// sorted-name order, but hashing the in-memory form stays cheaper than
// serializing).
func hashGraph(h *keyBuf, g *graph.Graph) {
	writeUint(h, boolBit(g.Directed()))
	writeUint(h, uint64(g.NumNodes()))
	writeUint(h, uint64(g.NumEdges()))
	for i := 0; i < g.NumNodes(); i++ {
		n := g.Node(graph.NodeID(i))
		writeString(h, n.Name)
		hashAttrs(h, n.Attrs)
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(graph.EdgeID(i))
		writeUint(h, uint64(e.From))
		writeUint(h, uint64(e.To))
		hashAttrs(h, e.Attrs)
	}
}

func hashAttrs(h *keyBuf, a graph.Attrs) {
	names := h.names[:0]
	for name := range a {
		if !a.Get(name).IsMissing() {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	writeUint(h, uint64(len(names)))
	for _, name := range names {
		writeString(h, name)
		v := a.Get(name)
		writeUint(h, uint64(v.Kind()))
		switch v.Kind() {
		case graph.Number:
			f, _ := v.Float()
			writeUint(h, math.Float64bits(f))
		case graph.String:
			s, _ := v.Text()
			writeString(h, s)
		case graph.Bool:
			b, _ := v.Truth()
			writeUint(h, boolBit(b))
		}
	}
	h.names = names
}

// writeString length-prefixes s so adjacent fields cannot alias.
func writeString(h *keyBuf, s string) {
	writeUint(h, uint64(len(s)))
	h.b = append(h.b, s...)
}

func writeUint(h *keyBuf, v uint64) {
	h.b = binary.LittleEndian.AppendUint64(h.b, v)
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// cacheEntry pairs a cached response with the model version it answered
// against. Responses are shared across callers and must be treated as
// immutable.
type cacheEntry struct {
	key     string
	version uint64
	resp    *service.Response
}

// resultCache is a small LRU of embedding answers keyed by (request
// fingerprint, model version). Entries for stale model versions are
// unreachable by construction (the current version is part of every
// lookup) and are swept out by the engine tick.
type resultCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recent; values are *cacheEntry
	idx map[string]*list.Element
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap: capacity,
		ll:  list.New(),
		idx: make(map[string]*list.Element),
	}
}

func (c *resultCache) composite(key string, version uint64) string {
	return string(appendComposite(nil, key, version))
}

// appendComposite appends the map key of (fingerprint, model version) to
// dst: the fingerprint followed by the hex of the version's
// little-endian bytes.
func appendComposite(dst []byte, key string, version uint64) []byte {
	var v [8]byte
	binary.LittleEndian.PutUint64(v[:], version)
	return hex.AppendEncode(append(dst, key...), v[:])
}

// get returns the cached response for the request fingerprint at the
// given model version, if any.
func (c *resultCache) get(key string, version uint64) (*service.Response, bool) {
	if c == nil {
		return nil, false
	}
	var buf [2*sha256.Size + 16]byte
	ck := appendComposite(buf[:0], key, version)
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.idx[string(ck)]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).resp, true
}

// put stores a response under the request fingerprint and model version,
// evicting the least-recently-used entry when over capacity.
func (c *resultCache) put(key string, version uint64, resp *service.Response) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ck := c.composite(key, version)
	if el, ok := c.idx[ck]; ok {
		el.Value.(*cacheEntry).resp = resp
		c.ll.MoveToFront(el)
		return
	}
	c.idx[ck] = c.ll.PushFront(&cacheEntry{key: key, version: version, resp: resp})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		e := oldest.Value.(*cacheEntry)
		delete(c.idx, c.composite(e.key, e.version))
		c.ll.Remove(oldest)
	}
}

// sweep drops every entry whose model version differs from current —
// they can never be hit again once the monitor has published a newer
// snapshot. Returns how many were dropped.
func (c *resultCache) sweep(current uint64) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*cacheEntry)
		if e.version != current {
			delete(c.idx, c.composite(e.key, e.version))
			c.ll.Remove(el)
			n++
		}
		el = next
	}
	return n
}

// len reports the live entry count.
func (c *resultCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
