package index

import (
	"sync"

	"netembed/internal/expr"
	"netembed/internal/graph"
)

// Columns materialises one graph's attribute columns (graph.Column) and
// edge endpoint arrays on first use and keeps them until the graph
// changes. It is what the batch constraint evaluator reads the hosting
// side from: building the two edge columns of the paper's delay-window
// constraint costs about a millisecond on the 296-site host, so they are
// built once per snapshot, not once per request. Only attributes some
// element carries get a column, so what a snapshot retains is bounded by
// its graph whatever names client constraints mention.
//
// Beside each column it keeps a range index (expr.Range, ≈20 bytes per
// element: 0.58 MB for a 29k-edge column), built the first time a
// rangeable program asks for it, so the paper's window constraint arms
// during the first request against a snapshot. Scratch (Reset) never
// arms: its index would die with the one build it serves, so every
// request would pay the sort and its garbage (twice the retained size,
// transiently).
//
// Every Index owns one (ColumnsFor), filled lazily behind a mutex like
// the reachability tables — Build materialises nothing. It rides the
// copy-on-write snapshots: Index.Apply hands the successor every column
// the delta does not name, with its range index, and an empty cache after
// a structural delta. A standalone Columns (NewColumns, Reset) serves
// callers with no index, or with an index over a different graph, as
// throw-away scratch whose storage is recycled across graphs.
//
// Safe for concurrent use. Returned columns, indexes and slices are shared
// and read-only.
type Columns struct {
	mu   sync.Mutex
	g    *graph.Graph
	edge map[string]*graph.Column
	node map[string]*graph.Column
	// ranges holds the range index of every column built here, nil until
	// it is asked for.
	ranges map[*graph.Column]*expr.Range
	from   []graph.NodeID
	to     []graph.NodeID
	// free holds column storage reclaimed by Reset.
	free []*graph.Column
	// edges, when set, is a snapshot cache over a graph with the very
	// same edge records as g: it serves every edge column, range index
	// and endpoint array (see Reset).
	edges *Columns
	// scratch marks a Columns bound by Reset; it never arms.
	scratch bool
}

// NewColumns returns an empty column cache over g.
func NewColumns(g *graph.Graph) *Columns { return &Columns{g: g} }

// keep records col under attr; the maps are made on first use so that an
// Apply over a snapshot nobody queried costs one small allocation.
func keep(cols *map[string]*graph.Column, attr string, col *graph.Column) {
	if *cols == nil {
		*cols = make(map[string]*graph.Column)
	}
	(*cols)[attr] = col
}

// Reset re-binds c to g (nil releases the graph), reclaiming the storage
// of every column built so far for the next graph's columns and dropping
// their range indexes. The columns handed out before the call are
// overwritten by later builds: Reset is for scratch the caller owns
// outright, never for a snapshot's cache.
//
// When ix's graph holds the very same edge records as g — the reservation
// overlay graph.WithNodeAttrs derives from a snapshot shares every edge
// page with it — c serves edge columns, their range indexes and the
// endpoint arrays from ix's cache, and builds only node columns, which
// such an overlay may change. ix may be nil.
func (c *Columns) Reset(g *graph.Graph, ix *Index) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for attr, col := range c.edge {
		c.free = append(c.free, col)
		delete(c.edge, attr)
	}
	for attr, col := range c.node {
		c.free = append(c.free, col)
		delete(c.node, attr)
	}
	clear(c.ranges)
	c.from, c.to = c.from[:0], c.to[:0]
	c.g, c.edges, c.scratch = g, nil, true
	if ix != nil && g != nil && g.SameEdges(ix.cols.g) {
		c.edges = ix.cols
	}
}

// column returns cols[attr], building it with build on first use — into
// storage Reset reclaimed, when there is some. An attribute no element of
// the graph carries yields nil and is not recorded: names arrive from
// client constraints, so the cache holds only what the graph defines and
// is bounded by the graph, not by its callers.
func (c *Columns) column(cols *map[string]*graph.Column, attr string, build func(*graph.Graph, string, *graph.Column) *graph.Column) *graph.Column {
	c.mu.Lock()
	defer c.mu.Unlock()
	if col := (*cols)[attr]; col != nil {
		return col
	}
	var spare *graph.Column
	if n := len(c.free); n > 0 {
		spare = c.free[n-1]
	}
	col := build(c.g, attr, spare)
	if col == nil {
		return nil
	}
	if col == spare {
		c.free = c.free[:len(c.free)-1]
	}
	keep(cols, attr, col)
	if c.ranges == nil {
		c.ranges = make(map[*graph.Column]*expr.Range)
	}
	c.ranges[col] = nil
	return col
}

// EdgeColumn returns attribute attr over the graph's edges, by EdgeID; nil
// when no edge carries it (see graph.Graph.EdgeColumn).
func (c *Columns) EdgeColumn(attr string) *graph.Column {
	if c.edges != nil {
		return c.edges.EdgeColumn(attr)
	}
	return c.column(&c.edge, attr, (*graph.Graph).EdgeColumn)
}

// NodeColumn returns attribute attr over the graph's nodes, by NodeID; nil
// when no node carries it.
func (c *Columns) NodeColumn(attr string) *graph.Column {
	return c.column(&c.node, attr, (*graph.Graph).NodeColumn)
}

// Range returns the range index of col, a column c served, building it on
// the first call (expr.Ranges). A column with a string payload, and a
// column of scratch, never gets one.
func (c *Columns) Range(col *graph.Column) *expr.Range {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.ranges[col]
	if !ok && c.edges != nil {
		return c.edges.Range(col) // an edge column c serves from a snapshot
	}
	if ok && r == nil && !c.scratch {
		r = expr.NewRange(col) // nil for a column with a string payload
		c.ranges[col] = r
	}
	return r
}

// Armed reports whether col's range index is built, without building it:
// the arming rule's observable, for tests.
func (c *Columns) Armed(col *graph.Column) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.ranges[col]; ok || c.edges == nil {
		return r != nil
	}
	return c.edges.Armed(col)
}

// Endpoints returns every edge's From and To node, by EdgeID.
func (c *Columns) Endpoints() (from, to []graph.NodeID) {
	if c.edges != nil {
		return c.edges.Endpoints()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.from) != c.g.NumEdges() {
		c.from, c.to = c.g.Endpoints(c.from[:0], c.to[:0])
	}
	return c.from, c.to
}

// carry returns the cache for the snapshot whose graph is next, reached
// from old by d. Columns are carried over only when c describes old
// itself and d kept the IDs they are indexed by: then exactly the
// attributes d names may differ between old and next, so those are
// dropped and the rest shared, each with its range index if built. Edge add/remove renumbers edges and leaves nodes alone, so
// it drops the edge columns and endpoint arrays and keeps the node
// columns; node add/remove keeps nothing. Anything else starts empty, so
// a column is never served for a graph it was not built from.
func (c *Columns) carry(old, next *graph.Graph, d *graph.Delta) *Columns {
	if next == c.g {
		return c
	}
	out := NewColumns(next)
	if old != c.g || len(d.AddNodes) > 0 || len(d.RemoveNodes) > 0 {
		return out
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	share := func(cols *map[string]*graph.Column, attr string, col *graph.Column) {
		keep(cols, attr, col)
		if out.ranges == nil {
			out.ranges = make(map[*graph.Column]*expr.Range)
		}
		out.ranges[col] = c.ranges[col]
	}
	for attr, col := range c.node {
		named := false
		for _, up := range d.SetNodeAttrs {
			named = named || names(up.Set, up.Unset, attr)
		}
		if !named {
			share(&out.node, attr, col)
		}
	}
	if len(d.AddEdges) > 0 || len(d.RemoveEdges) > 0 {
		return out
	}
	for attr, col := range c.edge {
		named := false
		for _, up := range d.SetEdgeAttrs {
			named = named || names(up.Set, up.Unset, attr)
		}
		if !named {
			share(&out.edge, attr, col)
		}
	}
	// Capacity-clamped so no later append on either side can write into
	// the other's view.
	out.from, out.to = c.from[:len(c.from):len(c.from)], c.to[:len(c.to):len(c.to)]
	return out
}

// names reports whether an attribute update sets or unsets attr.
func names(set graph.Attrs, unset []string, attr string) bool {
	if set.Has(attr) {
		return true
	}
	for _, u := range unset {
		if u == attr {
			return true
		}
	}
	return false
}
