// Package graph implements the attributed-graph substrate underlying
// NETEMBED. Both the hosting network and query networks are Graph values:
// nodes and edges carry typed attribute bags (see Value), the structure is
// index-addressed for tight search loops, and adjacency plus an edge index
// give O(degree) neighbor scans and O(1) edge lookup.
//
// Graphs may be directed or undirected. Undirected edges are stored once
// and appear in the adjacency list of both endpoints. Self-loops and
// duplicate edges are rejected: the embedding problem is defined over
// simple graphs, and the filter construction in internal/core relies on
// at most one edge per (ordered) node pair.
package graph

import (
	"errors"
	"fmt"
)

// NodeID indexes a node within a Graph. IDs are dense: the nodes of a
// graph with n nodes are exactly 0..n-1.
type NodeID = int32

// EdgeID indexes an edge within a Graph, dense like NodeID.
type EdgeID = int32

// Node is a vertex with a unique name and an attribute bag.
type Node struct {
	Name  string
	Attrs Attrs
}

// Edge connects From to To (an unordered pair when the graph is
// undirected) and carries an attribute bag.
type Edge struct {
	From, To NodeID
	Attrs    Attrs
}

// Arc is one adjacency entry: the neighbor reached and the edge used.
type Arc struct {
	To   NodeID
	Edge EdgeID
}

// Edge records live in fixed pages of edgePageSize (the batch evaluator's
// chunk size), so a delta copies the page table and only the pages it
// writes. Every page but the last is full.
const (
	edgePageShift = 10
	edgePageSize  = 1 << edgePageShift
	edgePageMask  = edgePageSize - 1
)

// Graph is a simple attributed graph. The zero value is not usable; call
// New or NewUndirected.
type Graph struct {
	directed bool
	numEdges int
	nodes    []Node            //cow:shared
	edges    [][]Edge          //cow:shared — pages of edgePageSize records, by EdgeID
	out      [][]Arc           //cow:shared — out-adjacency (all adjacency when undirected)
	in       [][]Arc           //cow:shared — in-adjacency, directed graphs only
	index    map[uint64]EdgeID //cow:shared
	names    map[string]NodeID //cow:shared
}

// New returns an empty graph with the given orientation.
func New(directed bool) *Graph {
	return &Graph{
		directed: directed,
		index:    make(map[uint64]EdgeID),
		names:    make(map[string]NodeID),
	}
}

// NewUndirected returns an empty undirected graph.
func NewUndirected() *Graph { return New(false) }

// NewDirected returns an empty directed graph.
func NewDirected() *Graph { return New(true) }

// Directed reports the orientation of the graph.
func (g *Graph) Directed() bool { return g.directed }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of edges (undirected edges count once).
func (g *Graph) NumEdges() int { return g.numEdges }

// AddNode appends a node and returns its ID. An empty name is replaced by
// a generated one; duplicate names are rejected by panicking, since node
// names are the external identity used by GraphML and the service layer.
//
//netembedvet:allow cowwrite construction-phase builder: the graph has not been published as a snapshot yet, so nothing shares its storage
func (g *Graph) AddNode(name string, attrs Attrs) NodeID {
	if name == "" {
		name = fmt.Sprintf("n%d", len(g.nodes))
	}
	if _, dup := g.names[name]; dup {
		panic(fmt.Sprintf("graph: duplicate node name %q", name))
	}
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{Name: name, Attrs: attrs})
	g.out = append(g.out, nil)
	if g.directed {
		g.in = append(g.in, nil)
	}
	g.names[name] = id
	return id
}

// AddNodes appends n anonymous nodes and returns the ID of the first.
func (g *Graph) AddNodes(n int) NodeID {
	first := NodeID(len(g.nodes))
	for i := 0; i < n; i++ {
		g.AddNode("", nil)
	}
	return first
}

// Errors reported by AddEdge.
var (
	ErrSelfLoop      = errors.New("graph: self-loops are not allowed")
	ErrDuplicateEdge = errors.New("graph: duplicate edge")
	ErrNoSuchNode    = errors.New("graph: node id out of range")
)

func (g *Graph) edgeKey(u, v NodeID) uint64 {
	if !g.directed && u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// AddEdge inserts an edge from u to v and returns its ID.
//
//netembedvet:allow cowwrite construction-phase builder: the graph has not been published as a snapshot yet, so nothing shares its storage
func (g *Graph) AddEdge(u, v NodeID, attrs Attrs) (EdgeID, error) {
	if u < 0 || int(u) >= len(g.nodes) || v < 0 || int(v) >= len(g.nodes) {
		return -1, ErrNoSuchNode
	}
	if u == v {
		return -1, ErrSelfLoop
	}
	key := g.edgeKey(u, v)
	if _, dup := g.index[key]; dup {
		return -1, ErrDuplicateEdge
	}
	id := EdgeID(g.numEdges)
	if g.numEdges&edgePageMask == 0 {
		g.edges = append(g.edges, nil) // grown by append: most graphs are queries with a dozen edges
	}
	last := len(g.edges) - 1
	g.edges[last] = append(g.edges[last], Edge{From: u, To: v, Attrs: attrs})
	g.numEdges++
	g.index[key] = id
	g.out[u] = append(g.out[u], Arc{To: v, Edge: id})
	if g.directed {
		g.in[v] = append(g.in[v], Arc{To: u, Edge: id})
	} else {
		g.out[v] = append(g.out[v], Arc{To: u, Edge: id})
	}
	return id, nil
}

// MustAddEdge is AddEdge that panics on error, for generators and tests
// whose inputs are valid by construction.
func (g *Graph) MustAddEdge(u, v NodeID, attrs Attrs) EdgeID {
	id, err := g.AddEdge(u, v, attrs)
	if err != nil {
		panic(fmt.Sprintf("graph: AddEdge(%d,%d): %v", u, v, err))
	}
	return id
}

// Node returns a pointer to the node record for id.
func (g *Graph) Node(id NodeID) *Node { return &g.nodes[id] }

// Edge returns a pointer to the edge record for id.
func (g *Graph) Edge(id EdgeID) *Edge { return &g.edges[id>>edgePageShift][id&edgePageMask] }

// NodeByName resolves a node name to its ID.
func (g *Graph) NodeByName(name string) (NodeID, bool) {
	id, ok := g.names[name]
	return id, ok
}

// Arcs returns the out-adjacency of u (full adjacency when undirected).
// The returned slice must not be modified.
func (g *Graph) Arcs(u NodeID) []Arc { return g.out[u] }

// InArcs returns the in-adjacency of u in a directed graph. For an
// undirected graph it equals Arcs.
func (g *Graph) InArcs(u NodeID) []Arc {
	if !g.directed {
		return g.out[u]
	}
	return g.in[u]
}

// Degree returns the degree of u: out-degree plus in-degree when directed,
// plain degree when undirected.
func (g *Graph) Degree(u NodeID) int {
	if !g.directed {
		return len(g.out[u])
	}
	return len(g.out[u]) + len(g.in[u])
}

// OutDegree returns the out-degree of u.
func (g *Graph) OutDegree(u NodeID) int { return len(g.out[u]) }

// EdgeBetween returns the edge from u to v. For undirected graphs the
// order of u and v does not matter.
func (g *Graph) EdgeBetween(u, v NodeID) (EdgeID, bool) {
	id, ok := g.index[g.edgeKey(u, v)]
	return id, ok
}

// HasEdge reports whether an edge from u to v exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, ok := g.index[g.edgeKey(u, v)]
	return ok
}

// Clone returns a deep copy of the graph (attribute bags included).
func (g *Graph) Clone() *Graph {
	c := New(g.directed)
	for _, n := range g.nodes {
		c.AddNode(n.Name, n.Attrs.Clone())
	}
	for _, page := range g.edges {
		for _, e := range page {
			c.MustAddEdge(e.From, e.To, e.Attrs.Clone())
		}
	}
	return c
}

// InducedSubgraph returns the subgraph induced by ids (every edge of g
// with both endpoints in ids), plus the mapping from new node IDs back to
// the originals. Node names and attribute bags are shared-by-copy.
// Duplicate IDs in ids are rejected.
func (g *Graph) InducedSubgraph(ids []NodeID) (*Graph, []NodeID, error) {
	sub := New(g.directed)
	back := make([]NodeID, 0, len(ids))
	fwd := make(map[NodeID]NodeID, len(ids))
	for _, id := range ids {
		if id < 0 || int(id) >= len(g.nodes) {
			return nil, nil, ErrNoSuchNode
		}
		if _, dup := fwd[id]; dup {
			return nil, nil, fmt.Errorf("graph: duplicate node %d in subgraph selection", id)
		}
		n := g.nodes[id]
		fwd[id] = sub.AddNode(n.Name, n.Attrs.Clone())
		back = append(back, id)
	}
	for _, page := range g.edges {
		for _, e := range page {
			u, okU := fwd[e.From]
			v, okV := fwd[e.To]
			if okU && okV {
				sub.MustAddEdge(u, v, e.Attrs.Clone())
			}
		}
	}
	return sub, back, nil
}

// Density returns |E| / |E_max| for the graph's orientation.
func (g *Graph) Density() float64 {
	n := float64(len(g.nodes))
	if n < 2 {
		return 0
	}
	max := n * (n - 1)
	if !g.directed {
		max /= 2
	}
	return float64(g.numEdges) / max
}

// AvgDegree returns the mean node degree.
func (g *Graph) AvgDegree() float64 {
	if len(g.nodes) == 0 {
		return 0
	}
	total := 0
	for id := range g.nodes {
		total += g.Degree(NodeID(id))
	}
	return float64(total) / float64(len(g.nodes))
}

// DegreeHistogram returns counts of nodes per degree.
func (g *Graph) DegreeHistogram() map[int]int {
	h := make(map[int]int)
	for id := range g.nodes {
		h[g.Degree(NodeID(id))]++
	}
	return h
}

// Validate checks internal invariants; it is used by tests and after
// decoding untrusted GraphML.
func (g *Graph) Validate() error {
	if len(g.out) != len(g.nodes) {
		return fmt.Errorf("graph: adjacency size %d != node count %d", len(g.out), len(g.nodes))
	}
	if g.directed && len(g.in) != len(g.nodes) {
		return fmt.Errorf("graph: in-adjacency size %d != node count %d", len(g.in), len(g.nodes))
	}
	if len(g.index) != g.numEdges {
		return fmt.Errorf("graph: edge index size %d != edge count %d", len(g.index), g.numEdges)
	}
	stored := 0
	for p, page := range g.edges {
		if len(page) == 0 || len(page) > edgePageSize || len(page) < edgePageSize && p != len(g.edges)-1 {
			return fmt.Errorf("graph: edge page %d of %d holds %d records", p, len(g.edges), len(page))
		}
		stored += len(page)
	}
	if stored != g.numEdges {
		return fmt.Errorf("graph: edge pages hold %d records != edge count %d", stored, g.numEdges)
	}
	perEdge := 2 // arcs an edge contributes to g.out
	adjacency := [][][]Arc{g.out}
	if g.directed {
		perEdge = 1
		adjacency = append(adjacency, g.in)
	}
	for k, rows := range adjacency {
		arcs := 0
		for u, row := range rows {
			arcs += len(row)
			for _, a := range row {
				if err := g.checkArc(NodeID(u), a, k == 1); err != nil {
					return err
				}
			}
		}
		if arcs != perEdge*g.numEdges {
			return fmt.Errorf("graph: adjacency arc count %d != expected %d", arcs, perEdge*g.numEdges)
		}
	}
	for i := 0; i < g.numEdges; i++ {
		e := g.Edge(EdgeID(i))
		if e.From == e.To {
			return fmt.Errorf("graph: edge %d is a self-loop", i)
		}
		id, ok := g.index[g.edgeKey(e.From, e.To)]
		if !ok || id != EdgeID(i) {
			return fmt.Errorf("graph: edge %d missing from index", i)
		}
	}
	for name, id := range g.names {
		if int(id) >= len(g.nodes) || g.nodes[id].Name != name {
			return fmt.Errorf("graph: name index entry %q -> %d is stale", name, id)
		}
	}
	return nil
}

// checkArc verifies that arc a in the adjacency row of node at names an
// edge joining exactly at and a.To (at is the head when incoming).
func (g *Graph) checkArc(at NodeID, a Arc, incoming bool) error {
	if a.Edge < 0 || int(a.Edge) >= g.numEdges {
		return fmt.Errorf("graph: node %d has an arc to edge %d of %d", at, a.Edge, g.numEdges)
	}
	e := g.Edge(a.Edge)
	from, to := at, a.To
	if incoming {
		from, to = to, from
	}
	if e.From == from && e.To == to || !g.directed && e.From == to && e.To == from {
		return nil
	}
	return fmt.Errorf("graph: node %d has arc {to %d, edge %d} but edge %d joins %d-%d", at, a.To, a.Edge, a.Edge, e.From, e.To)
}

// String summarizes the graph.
func (g *Graph) String() string {
	kind := "undirected"
	if g.directed {
		kind = "directed"
	}
	return fmt.Sprintf("graph{%s, %d nodes, %d edges}", kind, len(g.nodes), g.numEdges)
}
