package graph

// Tag is the per-element type code of a Column: one flag bit per kind,
// with a boolean's value carried in the tag itself. Kleene logic over tags
// is therefore plain bitwise arithmetic (true needs bit 0 of both
// operands, false bit 1 of either) and never touches the numeric payload.
type Tag = uint8

// Column tags.
const (
	TagMissing Tag = 0
	TagTrue    Tag = 1 << 0
	TagFalse   Tag = 1 << 1
	TagNumber  Tag = 1 << 2
	TagString  Tag = 1 << 3
)

// Column is one attribute of every node (or every edge) of a graph in
// struct-of-arrays form: element i has tag Tags[i], numeric payload
// Nums[i] (meaningful under TagNumber) and string payload Strs[i]
// (TagString). Strs is nil when no element is a string, so the common
// all-numeric column costs nine bytes per element. Elements lacking the
// attribute are TagMissing. An attribute no element carries has no column
// at all (EdgeColumn and NodeColumn return nil), which reads as missing
// everywhere.
//
// Columns are what the batch constraint evaluator (internal/expr) reads in
// place of one map lookup per element per evaluation; internal/index caches
// them per snapshot.
type Column struct {
	Tags []Tag
	Nums []float64
	Strs []string
}

// TagOf returns v's column tag.
func TagOf(v Value) Tag {
	switch v.kind {
	case Number:
		return TagNumber
	case String:
		return TagString
	case Bool:
		if v.num != 0 {
			return TagTrue
		}
		return TagFalse
	}
	return TagMissing
}

// reset re-shapes c to n missing elements, reusing its storage.
func (c *Column) reset(n int) {
	if cap(c.Tags) < n {
		c.Tags = make([]Tag, n)
		c.Nums = make([]float64, n)
	} else {
		c.Tags = c.Tags[:n]
		c.Nums = c.Nums[:n]
		clear(c.Tags) // stale Nums are unreachable under TagMissing
	}
	// A recycled string payload would pin the previous graph's strings.
	c.Strs = nil
}

func (c *Column) set(i int, v Value) {
	c.Tags[i] = TagOf(v)
	switch v.kind {
	case Number:
		c.Nums[i] = v.num
	case String:
		if c.Strs == nil {
			c.Strs = make([]string, len(c.Tags))
		}
		c.Strs[i] = v.str
	}
}

// EdgeColumn materialises attribute attr over g's edges, indexed by
// EdgeID, or returns nil when no edge carries a value for attr — a name
// the graph does not know costs a scan and no storage. A non-nil into is
// overwritten and returned (its storage is reused) unless the result is
// nil, which leaves it untouched; a nil into allocates.
func (g *Graph) EdgeColumn(attr string, into *Column) *Column {
	first := 0
	for first < g.numEdges && g.Edge(EdgeID(first)).Attrs[attr].kind == Missing {
		first++
	}
	if first == g.numEdges {
		return nil
	}
	if into == nil {
		into = new(Column)
	}
	into.reset(g.numEdges)
	for i := first; i < g.numEdges; i++ {
		if v := g.Edge(EdgeID(i)).Attrs[attr]; v.kind != Missing {
			into.set(i, v)
		}
	}
	return into
}

// NodeColumn is EdgeColumn over g's nodes, indexed by NodeID.
func (g *Graph) NodeColumn(attr string, into *Column) *Column {
	first := 0
	for first < len(g.nodes) && g.nodes[first].Attrs[attr].kind == Missing {
		first++
	}
	if first == len(g.nodes) {
		return nil
	}
	if into == nil {
		into = new(Column)
	}
	into.reset(len(g.nodes))
	for i := first; i < len(g.nodes); i++ {
		if v := g.nodes[i].Attrs[attr]; v.kind != Missing {
			into.set(i, v)
		}
	}
	return into
}

// Endpoints appends every edge's From to from and its To to to, indexed
// by EdgeID — the gather indices through which an edge-context constraint
// reads node columns as rSource/rTarget.
func (g *Graph) Endpoints(from, to []NodeID) (f, t []NodeID) {
	for _, page := range g.edges {
		for i := range page {
			from = append(from, page[i].From)
			to = append(to, page[i].To)
		}
	}
	return from, to
}
