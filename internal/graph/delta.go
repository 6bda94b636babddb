package graph

import "fmt"

// Delta is an incremental change to a graph — the unit the monitoring
// infrastructure publishes instead of a whole re-measured network. All
// elements are addressed by name (the external identity GraphML and the
// service layer speak), never by NodeID: IDs are dense and renumber when
// nodes are removed, so they are meaningless across snapshots.
//
// ApplyDelta processes the operation groups in a fixed order:
//
//  1. RemoveEdges, then RemoveNodes (removing a node drops its incident
//     edges implicitly),
//  2. AddNodes, then AddEdges (so a delta can replace a node wholesale:
//     remove + re-add under the same name),
//  3. SetNodeAttrs, then SetEdgeAttrs, which may reference both surviving
//     and newly added elements.
type Delta struct {
	// RemoveEdges drops edges by endpoint names (order-insensitive on
	// undirected graphs).
	RemoveEdges []EdgeRef
	// RemoveNodes drops nodes (and their incident edges) by name.
	RemoveNodes []string
	// AddNodes inserts new named nodes with optional attribute bags.
	AddNodes []NodeSpec
	// AddEdges inserts new edges between named nodes.
	AddEdges []EdgeSpec
	// SetNodeAttrs edits node attribute bags: Set entries overwrite,
	// Unset names are removed.
	SetNodeAttrs []NodeAttrUpdate
	// SetEdgeAttrs edits edge attribute bags the same way.
	SetEdgeAttrs []EdgeAttrUpdate
}

// NodeSpec names a node added by a delta.
type NodeSpec struct {
	Name  string
	Attrs Attrs
}

// EdgeSpec names an edge added by a delta.
type EdgeSpec struct {
	Source, Target string
	Attrs          Attrs
}

// EdgeRef addresses an existing edge by endpoint names.
type EdgeRef struct {
	Source, Target string
}

// NodeAttrUpdate edits one node's attribute bag.
type NodeAttrUpdate struct {
	Node  string
	Set   Attrs
	Unset []string
}

// EdgeAttrUpdate edits one edge's attribute bag.
type EdgeAttrUpdate struct {
	Source, Target string
	Set            Attrs
	Unset          []string
}

// Empty reports whether the delta carries no operations.
func (d *Delta) Empty() bool {
	return d == nil ||
		len(d.RemoveEdges) == 0 && len(d.RemoveNodes) == 0 &&
			len(d.AddNodes) == 0 && len(d.AddEdges) == 0 &&
			len(d.SetNodeAttrs) == 0 && len(d.SetEdgeAttrs) == 0
}

// Structural reports whether the delta changes the graph's topology
// (node or edge add/remove) rather than only attribute values. Node IDs
// stay put unless nodes are added or removed; edge IDs stay dense, so
// removing an edge shifts every later edge's ID down by one.
func (d *Delta) Structural() bool {
	return d != nil &&
		(len(d.RemoveEdges) > 0 || len(d.RemoveNodes) > 0 ||
			len(d.AddNodes) > 0 || len(d.AddEdges) > 0)
}

// Counts summarizes the delta for logs and API replies.
func (d *Delta) Counts() (structuralOps, attrOps int) {
	if d == nil {
		return 0, 0
	}
	return len(d.RemoveEdges) + len(d.RemoveNodes) + len(d.AddNodes) + len(d.AddEdges),
		len(d.SetNodeAttrs) + len(d.SetEdgeAttrs)
}

// ApplyDelta returns a new graph with d applied; g itself is never
// modified, so concurrent readers of g stay consistent. The result shares
// with g everything d does not touch: an attribute edit copies the edge
// page table plus the pages it writes (and the node records only when it
// names a node); edge add/remove also shares every edge page before the
// first removed ID and renumbers the rest. Attribute bags are shared too
// and cloned only when edited. Node add/remove changes the node ID
// universe and rebuilds into a fresh graph.
//
// Errors (unknown names, duplicate adds, self-loops) leave no partial
// result: the returned graph is nil and g is untouched.
func (g *Graph) ApplyDelta(d *Delta) (*Graph, error) {
	if d.Empty() {
		return g, nil
	}
	if len(d.RemoveNodes) > 0 || len(d.AddNodes) > 0 {
		return g.applyStructuralDelta(d)
	}
	next := g
	if len(d.RemoveEdges) > 0 || len(d.AddEdges) > 0 {
		var err error
		if next, err = g.applyEdgeDelta(d); err != nil {
			return nil, err
		}
	}
	return next.applyAttrDelta(d)
}

// applyAttrDelta applies d's attribute edits copy-on-write.
func (g *Graph) applyAttrDelta(d *Delta) (*Graph, error) {
	next := *g
	if len(d.SetNodeAttrs) > 0 {
		next.nodes = append([]Node(nil), g.nodes...)
	}
	for _, up := range d.SetNodeAttrs {
		id, ok := g.names[up.Node]
		if !ok {
			return nil, fmt.Errorf("graph: delta references unknown node %q", up.Node)
		}
		next.nodes[id].Attrs = patchBag(next.nodes[id].Attrs, up.Set, up.Unset)
	}
	if len(d.SetEdgeAttrs) > 0 {
		next.edges = append([][]Edge(nil), g.edges...)
	}
	for _, up := range d.SetEdgeAttrs {
		id, err := g.edgeByNames(up.Source, up.Target)
		if err != nil {
			return nil, err
		}
		p, i := id>>edgePageShift, id&edgePageMask
		if &next.edges[p][0] == &g.edges[p][0] { // still g's page
			next.edges[p] = append([]Edge(nil), g.edges[p]...)
		}
		next.edges[p][i].Attrs = patchBag(next.edges[p][i].Attrs, up.Set, up.Unset)
	}
	return &next, nil
}

// applyEdgeDelta applies d's RemoveEdges and AddEdges (and nothing else)
// copy-on-write, with the IDs and adjacency order applyStructuralDelta
// would produce: survivors keep their relative order and close the gaps,
// added edges follow. Nodes, names and every edge page before the first
// removed ID are shared with g.
func (g *Graph) applyEdgeDelta(d *Delta) (*Graph, error) {
	base := g.numEdges // first ID that may change: start of the lowest page losing an edge
	var removed []EdgeID
	for _, ref := range d.RemoveEdges {
		u, okU := g.names[ref.Source]
		v, okV := g.names[ref.Target]
		if !okU || !okV {
			return nil, fmt.Errorf("graph: delta removes unknown edge %q-%q", ref.Source, ref.Target)
		}
		id, ok := g.index[g.edgeKey(u, v)]
		if !ok {
			return nil, fmt.Errorf("graph: delta removes missing edge %q-%q", ref.Source, ref.Target)
		}
		removed = append(removed, id)
		base = min(base, int(id))
	}
	base &^= edgePageMask
	// remap[old-base] becomes the new ID of edge old, -1 when removed.
	remap := make([]EdgeID, g.numEdges-base)
	for _, id := range removed {
		remap[int(id)-base] = -1
	}

	next := *g
	next.edges = append(make([][]Edge, 0, len(g.edges)+1), g.edges[:base>>edgePageShift]...)
	next.numEdges = base
	next.index = make(map[uint64]EdgeID, g.numEdges+len(d.AddEdges))
	for id := EdgeID(0); int(id) < base; id++ {
		e := g.Edge(id)
		next.index[g.edgeKey(e.From, e.To)] = id
	}
	page := make([]Edge, 0, edgePageSize) // the open last page, never one of g's
	store := func(e Edge) EdgeID {
		if len(page) == edgePageSize {
			next.edges = append(next.edges, page)
			page = make([]Edge, 0, edgePageSize)
		}
		id := EdgeID(next.numEdges)
		page = append(page, e)
		next.index[g.edgeKey(e.From, e.To)] = id
		next.numEdges++
		return id
	}
	for old := base; old < g.numEdges; old++ {
		if remap[old-base] >= 0 {
			remap[old-base] = store(*g.Edge(EdgeID(old)))
		}
	}

	if len(removed) == 0 {
		next.out = append([][]Arc(nil), g.out...)
		next.in = append([][]Arc(nil), g.in...)
	} else {
		arena := make([]Arc, 0, 2*next.numEdges)
		renumber := func(rows [][]Arc) [][]Arc {
			fresh := make([][]Arc, len(rows))
			for u, row := range rows {
				start := len(arena)
				for _, a := range row {
					if int(a.Edge) >= base {
						a.Edge = remap[int(a.Edge)-base]
					}
					if a.Edge >= 0 {
						arena = append(arena, a)
					}
				}
				fresh[u] = arena[start:len(arena):len(arena)]
			}
			return fresh
		}
		next.out = renumber(g.out)
		if g.directed {
			next.in = renumber(g.in)
		}
	}

	for _, spec := range d.AddEdges {
		u, okU := g.names[spec.Source]
		v, okV := g.names[spec.Target]
		if !okU || !okV {
			return nil, fmt.Errorf("graph: delta adds edge between unknown nodes %q-%q", spec.Source, spec.Target)
		}
		var err error
		if u == v {
			err = ErrSelfLoop
		} else if _, dup := next.index[g.edgeKey(u, v)]; dup {
			err = ErrDuplicateEdge
		}
		if err != nil {
			return nil, fmt.Errorf("graph: delta edge %q-%q: %w", spec.Source, spec.Target, err)
		}
		id := store(Edge{From: u, To: v, Attrs: spec.Attrs.Clone()})
		// A row is g's own or a slice of the arena: appending past a
		// clamped capacity moves it instead of writing into either.
		next.out[u] = append(clamp(next.out[u]), Arc{To: v, Edge: id})
		if g.directed {
			next.in[v] = append(clamp(next.in[v]), Arc{To: u, Edge: id})
		} else {
			next.out[v] = append(clamp(next.out[v]), Arc{To: u, Edge: id})
		}
	}
	if len(page) > 0 {
		next.edges = append(next.edges, page)
	}
	return &next, nil
}

// clamp returns row with no spare capacity, so an append reallocates.
func clamp(row []Arc) []Arc { return row[:len(row):len(row)] }

// WithNodeAttrs returns a snapshot of g in which each node of ids carries
// set on top of its own attributes. Only the node records are copied (and
// the bags of the named nodes); everything else is shared with g, which is
// not modified. IDs outside g are skipped — callers hold IDs from ledgers
// that may predate a node-removing delta — and g itself is returned when
// nothing is left to patch.
func (g *Graph) WithNodeAttrs(ids []NodeID, set Attrs) *Graph {
	next := *g
	patched := false
	for _, id := range ids {
		if id < 0 || int(id) >= len(g.nodes) {
			continue
		}
		if !patched {
			next.nodes = append([]Node(nil), g.nodes...)
			patched = true
		}
		next.nodes[id].Attrs = patchBag(next.nodes[id].Attrs, set, nil)
	}
	if !patched {
		return g
	}
	return &next
}

// SameEdges reports whether g and o hold the very same edge records — the
// same copy-on-write pages, as a snapshot shares with every overlay
// WithNodeAttrs derives from it — so whatever was computed from one's
// edges alone holds for the other's.
func (g *Graph) SameEdges(o *Graph) bool {
	if o == nil || g.directed != o.directed || g.numEdges != o.numEdges || len(g.edges) != len(o.edges) {
		return false
	}
	for i, page := range g.edges {
		if len(page) != len(o.edges[i]) || len(page) > 0 && &page[0] != &o.edges[i][0] {
			return false
		}
	}
	return true
}

// patchBag returns a fresh bag with set/unset applied; the original bag
// is shared with the previous snapshot and must not be written.
func patchBag(old, set Attrs, unset []string) Attrs {
	out := old.Clone()
	for name, v := range set {
		out = out.Set(name, v)
	}
	for _, name := range unset {
		if out.Has(name) {
			delete(out, name)
		}
	}
	return out
}

// applyStructuralDelta rebuilds the graph with the delta's removals,
// additions and attribute edits applied, in the documented order.
//
//netembedvet:allow cowwrite next is freshly built by New in this function and every record slice below is grown by AddNode/AddEdge; nothing shares the storage until next is returned
func (g *Graph) applyStructuralDelta(d *Delta) (*Graph, error) {
	dropEdge := make(map[uint64]bool, len(d.RemoveEdges))
	for _, ref := range d.RemoveEdges {
		u, okU := g.names[ref.Source]
		v, okV := g.names[ref.Target]
		if !okU || !okV {
			return nil, fmt.Errorf("graph: delta removes unknown edge %q-%q", ref.Source, ref.Target)
		}
		key := g.edgeKey(u, v)
		if _, ok := g.index[key]; !ok {
			return nil, fmt.Errorf("graph: delta removes missing edge %q-%q", ref.Source, ref.Target)
		}
		dropEdge[key] = true
	}
	dropNode := make(map[string]bool, len(d.RemoveNodes))
	for _, name := range d.RemoveNodes {
		if _, ok := g.names[name]; !ok {
			return nil, fmt.Errorf("graph: delta removes unknown node %q", name)
		}
		dropNode[name] = true
	}

	next := New(g.directed)
	for _, n := range g.nodes {
		if !dropNode[n.Name] {
			next.AddNode(n.Name, n.Attrs.Clone())
		}
	}
	for _, spec := range d.AddNodes {
		if spec.Name == "" {
			return nil, fmt.Errorf("graph: delta adds a node without a name")
		}
		if _, dup := next.names[spec.Name]; dup {
			return nil, fmt.Errorf("graph: delta adds duplicate node %q", spec.Name)
		}
		next.AddNode(spec.Name, spec.Attrs.Clone())
	}
	for i := 0; i < g.numEdges; i++ {
		e := g.Edge(EdgeID(i))
		if dropEdge[g.edgeKey(e.From, e.To)] {
			continue
		}
		uName, vName := g.nodes[e.From].Name, g.nodes[e.To].Name
		if dropNode[uName] || dropNode[vName] {
			continue // incident edges leave with their node
		}
		u, _ := next.names[uName]
		v, _ := next.names[vName]
		if _, err := next.AddEdge(u, v, e.Attrs.Clone()); err != nil {
			return nil, fmt.Errorf("graph: delta rebuild of edge %d: %w", i, err)
		}
	}
	for _, spec := range d.AddEdges {
		u, okU := next.names[spec.Source]
		v, okV := next.names[spec.Target]
		if !okU || !okV {
			return nil, fmt.Errorf("graph: delta adds edge between unknown nodes %q-%q", spec.Source, spec.Target)
		}
		if _, err := next.AddEdge(u, v, spec.Attrs.Clone()); err != nil {
			return nil, fmt.Errorf("graph: delta edge %q-%q: %w", spec.Source, spec.Target, err)
		}
	}
	for _, up := range d.SetNodeAttrs {
		id, ok := next.names[up.Node]
		if !ok {
			return nil, fmt.Errorf("graph: delta references unknown node %q", up.Node)
		}
		next.nodes[id].Attrs = patchBag(next.nodes[id].Attrs, up.Set, up.Unset)
	}
	for _, up := range d.SetEdgeAttrs {
		id, err := next.edgeByNames(up.Source, up.Target)
		if err != nil {
			return nil, err
		}
		next.Edge(id).Attrs = patchBag(next.Edge(id).Attrs, up.Set, up.Unset)
	}
	return next, nil
}

// edgeByNames resolves an edge by endpoint names.
func (g *Graph) edgeByNames(source, target string) (EdgeID, error) {
	u, okU := g.names[source]
	v, okV := g.names[target]
	if !okU || !okV {
		return -1, fmt.Errorf("graph: delta references unknown edge %q-%q", source, target)
	}
	id, ok := g.index[g.edgeKey(u, v)]
	if !ok {
		return -1, fmt.Errorf("graph: delta references missing edge %q-%q", source, target)
	}
	return id, nil
}
