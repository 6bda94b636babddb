package core

import (
	"fmt"
	"time"

	"netembed/internal/graph"
	"netembed/internal/index"
)

// PathOptions tunes PathEmbed, the many-to-one extension of §VIII: a
// query edge may ride on a hosting *path* instead of a single hosting
// edge.
type PathOptions struct {
	// MaxHops bounds witness path length in edges (default 3).
	MaxHops int
	// DelayAttr is the numeric edge attribute accumulated along a path
	// (default "avgDelay").
	DelayAttr string
	// WindowLo/WindowHi name the query-edge attributes bounding the
	// accumulated delay (defaults "minDelay"/"maxDelay"). A query edge
	// without the attributes accepts any path within MaxHops.
	WindowLo, WindowHi string
	// Metrics, when non-empty, replaces the single delay window with a
	// conjunction of composed-metric constraints (additive delay,
	// bottleneck bandwidth, multiplicative availability, ...). The
	// DelayAttr/WindowLo/WindowHi fields are then ignored.
	Metrics []MetricSpec
	// Timeout bounds the search (0 = none).
	Timeout time.Duration
	// MaxSolutions caps returned embeddings (0 = all).
	MaxSolutions int
	// Stop, when non-nil, is polled alongside the deadline; returning
	// true cancels the search (see Options.Stop). The hook reaches all
	// the way into the per-pair witness DFS, so cancellation latency is
	// bounded even mid-enumeration on dense hosts.
	Stop func() bool
	// Index, when non-nil, supplies the hop-bounded reachability oracle
	// from a prebuilt host-capability index (internal/index), cached
	// across runs and invalidated by structural deltas. It must have been
	// built over the Problem's very *graph.Graph (Index.ColumnsFor) — an
	// index of another graph is ignored even if its size matches — or the
	// rows are computed per run.
	Index *index.Index
}

func (o *PathOptions) applyDefaults() {
	// MaxHops <= 0 is clamped to the default: zero is "unset", and a
	// negative bound used to slip through to PathsWithin, whose old
	// `len == maxHops` guard then never fired — an unbounded enumeration
	// of every simple host path.
	if o.MaxHops <= 0 {
		o.MaxHops = 3
	}
	if o.DelayAttr == "" {
		o.DelayAttr = "avgDelay"
	}
	if o.WindowLo == "" {
		o.WindowLo = "minDelay"
	}
	if o.WindowHi == "" {
		o.WindowHi = "maxDelay"
	}
	if len(o.Metrics) == 0 {
		o.Metrics = []MetricSpec{DefaultDelaySpec(o.DelayAttr, o.WindowLo, o.WindowHi)}
	}
}

// EffectiveMetrics returns the metric specs a PathEmbed run with these
// options will enforce, with defaults applied: the single delay window
// (DelayAttr bounded by WindowLo/WindowHi) when Metrics is empty. The
// service layer uses it to surface typo'd attribute names.
func (o PathOptions) EffectiveMetrics() []MetricSpec {
	o.applyDefaults()
	return o.Metrics
}

// PathSolution is one many-to-one embedding: an injective node mapping
// plus, for every query edge, the witness hosting path carrying it.
// Intermediate path nodes may be shared between paths and with mapped
// nodes (standard VNE link-mapping semantics); only the endpoint images
// are injective.
type PathSolution struct {
	Nodes Mapping
	Paths map[graph.EdgeID]graph.Path
}

// PathResult reports a PathEmbed run.
type PathResult struct {
	Solutions []PathSolution
	Status    Status
	Exhausted bool
	Elapsed   time.Duration
	// Stats carries the search effort counters; path mode additionally
	// fills WitnessProbes, WitnessHits and ReachPrunes.
	Stats Stats
}

// PathEmbed searches for embeddings where query edges map to hosting
// paths of at most MaxHops edges whose accumulated delay lies within the
// query edge's window. The node constraint of the Problem applies to node
// images; the edge constraint program is not consulted (path acceptance
// is defined by the window attributes). Solutions enumerate node
// mappings; each carries one witness path per query edge.
//
// The search (pathfc.go) precomputes a hop-bounded reachability oracle,
// forward-prunes candidate domains with it, rejects witness probes whose
// best-possible composed metrics already violate the window, and
// memoizes witness lookups.
func PathEmbed(p *Problem, opt PathOptions) *PathResult {
	opt.applyDefaults()
	return pathEmbedFC(p, opt)
}

// pathOrder orders query nodes by descending degree, then keeps the
// sequence connected when possible so witnesses are checked early.
func pathOrder(q *graph.Graph) []graph.NodeID {
	nq := q.NumNodes()
	order := make([]graph.NodeID, 0, nq)
	picked := make([]bool, nq)
	for len(order) < nq {
		best := graph.NodeID(-1)
		bestDeg := -1
		connected := false
		for i := 0; i < nq; i++ {
			if picked[i] {
				continue
			}
			id := graph.NodeID(i)
			conn := false
			for _, a := range q.Arcs(id) {
				if picked[a.To] {
					conn = true
					break
				}
			}
			if !conn && q.Directed() {
				for _, a := range q.InArcs(id) {
					if picked[a.To] {
						conn = true
						break
					}
				}
			}
			deg := q.Degree(id)
			if (conn && !connected) || (conn == connected && deg > bestDeg) {
				best, bestDeg, connected = id, deg, conn
			}
		}
		picked[best] = true
		order = append(order, best)
	}
	return order
}

// VerifyPathSolution checks a PathSolution independently: injective
// endpoint images, node constraints, and per-edge witness paths that are
// real host walks within the delay window.
func VerifyPathSolution(p *Problem, opt PathOptions, sol PathSolution) error {
	opt.applyDefaults()
	if err := verifyNodesOnly(p, sol.Nodes); err != nil {
		return err
	}
	for i := 0; i < p.Query.NumEdges(); i++ {
		qe := p.Query.Edge(graph.EdgeID(i))
		path, ok := sol.Paths[graph.EdgeID(i)]
		if !ok {
			return errMissingPath(i)
		}
		if len(path.Nodes) < 2 ||
			path.Nodes[0] != sol.Nodes[qe.From] ||
			path.Nodes[len(path.Nodes)-1] != sol.Nodes[qe.To] {
			return errBadPathEndpoints(i)
		}
		if len(path.Edges) > opt.MaxHops {
			return errPathTooLong(i, len(path.Edges), opt.MaxHops)
		}
		for j, e := range path.Edges {
			u, v := path.Nodes[j], path.Nodes[j+1]
			id, ok := p.Host.EdgeBetween(u, v)
			if !ok || id != e {
				return errBadPathEdge(i, j)
			}
		}
		// Evaluate the specs one by one so the error names the spec that
		// actually failed — reporting Metrics[0]'s composed value when a
		// different spec tripped pointed debugging at the wrong metric.
		for _, spec := range opt.Metrics {
			composed, ok := spec.composeAlong(p.Host, path.Edges)
			if !ok {
				return errPathMissingAttr(i, spec.Attr)
			}
			if !spec.withinWindow(qe, composed) {
				return errPathWindow(i, spec.Attr, composed)
			}
		}
	}
	return nil
}

// verifyNodesOnly checks injectivity, ranges and node constraints without
// requiring single-edge adjacency (paths provide it instead).
func verifyNodesOnly(p *Problem, m Mapping) error {
	if len(m) != p.Query.NumNodes() {
		return errMappingSize(len(m), p.Query.NumNodes())
	}
	seen := map[graph.NodeID]bool{}
	for q, r := range m {
		if r < 0 || int(r) >= p.Host.NumNodes() {
			return errMappingRange(q, r)
		}
		if seen[r] {
			return errMappingDup(r)
		}
		seen[r] = true
		if !p.nodeOK(graph.NodeID(q), r) {
			return errMappingNode(q, r)
		}
	}
	return nil
}

// Error constructors for path-solution verification.
func errMissingPath(edge int) error {
	return fmt.Errorf("core: query edge %d has no witness path", edge)
}

func errBadPathEndpoints(edge int) error {
	return fmt.Errorf("core: witness path for query edge %d does not join the mapped endpoints", edge)
}

func errPathTooLong(edge, hops, max int) error {
	return fmt.Errorf("core: witness path for query edge %d has %d hops, max %d", edge, hops, max)
}

func errBadPathEdge(edge, step int) error {
	return fmt.Errorf("core: witness path for query edge %d is not a host walk at step %d", edge, step)
}

func errPathWindow(edge int, attr string, total float64) error {
	return fmt.Errorf("core: witness path for query edge %d has composed %s %.2f outside the window", edge, attr, total)
}

func errPathMissingAttr(edge int, attr string) error {
	return fmt.Errorf("core: witness path for query edge %d crosses an edge without required attribute %q", edge, attr)
}

func errMappingSize(got, want int) error {
	return fmt.Errorf("core: mapping has %d entries, query has %d nodes", got, want)
}

func errMappingRange(q int, r graph.NodeID) error {
	return fmt.Errorf("core: query node %d mapped to invalid host node %d", q, r)
}

func errMappingDup(r graph.NodeID) error {
	return fmt.Errorf("core: host node %d assigned twice", r)
}

func errMappingNode(q int, r graph.NodeID) error {
	return fmt.Errorf("core: node constraint rejects %d -> %d", q, r)
}
