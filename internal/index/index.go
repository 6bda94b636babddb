// Package index maintains a persistent, version-stamped capability index
// over the hosting network: per-node adjacency bitsets, degree strata
// (nodes with degree ≥ d, one bitset per d), capacity-style attribute
// strata, and per-attribute sorted postings over every numeric node
// attribute.
//
// The index exists so that the filter hot path (core.BuildFilters) does
// not rescan the whole hosting network on every query, and — more
// importantly — so that a monitor publishing a *delta* does not force a
// from-scratch recomputation: Apply patches only the structures a delta
// touches, sharing everything else with the previous snapshot
// (copy-on-write). An in-flight search holding the old *Index keeps a
// fully consistent view; Apply never mutates an existing snapshot.
//
// Universe changes (node add/remove) renumber IDs and resize every
// bitset, so those deltas fall back to a full rebuild; edge add/remove
// and attribute edits — the monitoring feed's bread and butter — are
// incremental.
package index

import (
	"sort"

	"netembed/internal/graph"
	"netembed/internal/sets"
)

// Config tunes index construction.
type Config struct {
	// StrataAttrs lists numeric node attributes that get bitset strata
	// (node sets with attr ≥ k for k = 1..StrataLevels) in addition to
	// sorted postings. Default: slots, capacity — the service's
	// multi-tenancy and consolidation capacity attributes.
	StrataAttrs []string
	// StrataLevels bounds the per-attribute strata ladder (default 64).
	StrataLevels int
}

func (c *Config) applyDefaults() {
	if c.StrataAttrs == nil {
		c.StrataAttrs = []string{"slots", "capacity"}
	}
	if c.StrataLevels <= 0 {
		c.StrataLevels = 64
	}
}

// Postings is one attribute's sorted posting list: parallel arrays of
// (value, node) pairs ordered by value then node ID. Nodes lacking the
// attribute (or carrying a non-numeric value) are absent.
type Postings struct {
	vals []float64
	ids  []graph.NodeID
}

// Len returns the number of indexed nodes.
func (p *Postings) Len() int { return len(p.vals) }

// ge returns the first position whose (value, id) pair is ≥ (x, minID).
func (p *Postings) ge(x float64, minID graph.NodeID) int {
	return sort.Search(len(p.vals), func(i int) bool {
		if p.vals[i] != x {
			return p.vals[i] > x
		}
		return p.ids[i] >= minID
	})
}

// MinWhere walks the postings in ascending (value, id) order and returns
// the first value whose node satisfies has, together with the number of
// membership probes spent. ok is false when no indexed node satisfies
// has. It is the optimizing search's lower-bound primitive: with a live
// candidate domain as the predicate, the answer is the minimum attribute
// value attainable in that domain, found after as many probes as there
// are cheaper non-members.
func (p *Postings) MinWhere(has func(graph.NodeID) bool) (val float64, probes int, ok bool) {
	for i := range p.ids {
		probes++
		if has(p.ids[i]) {
			return p.vals[i], probes, true
		}
	}
	return 0, probes, false
}

// MaxWhere is MinWhere's descending twin: the largest attribute value
// among the nodes satisfying has.
func (p *Postings) MaxWhere(has func(graph.NodeID) bool) (val float64, probes int, ok bool) {
	for i := len(p.ids) - 1; i >= 0; i-- {
		probes++
		if has(p.ids[i]) {
			return p.vals[i], probes, true
		}
	}
	return 0, probes, false
}

// clone returns a private copy of p safe to splice.
func (p *Postings) clone() *Postings {
	return &Postings{
		vals: append([]float64(nil), p.vals...),
		ids:  append([]graph.NodeID(nil), p.ids...),
	}
}

// splice replaces (id, old) with (id, new) in place. A nil old/new
// pointer means absent on that side. The receiver must be a private
// copy, never a snapshot's shared postings: one clone per attribute,
// then one splice per edited node, keeps a k-node delta at one copy
// instead of k.
func (p *Postings) splice(id graph.NodeID, oldVal, newVal *float64) {
	if oldVal != nil {
		i := p.ge(*oldVal, id)
		if i < len(p.ids) && p.vals[i] == *oldVal && p.ids[i] == id {
			p.vals = append(p.vals[:i], p.vals[i+1:]...)
			p.ids = append(p.ids[:i], p.ids[i+1:]...)
		}
	}
	if newVal != nil {
		i := p.ge(*newVal, id)
		p.vals = append(p.vals, 0)
		copy(p.vals[i+1:], p.vals[i:])
		p.vals[i] = *newVal
		p.ids = append(p.ids, 0)
		copy(p.ids[i+1:], p.ids[i:])
		p.ids[i] = id
	}
}

// Index is one immutable capability snapshot of a hosting network. All
// accessors return structures shared with the index; callers must treat
// them as read-only (Clone before mutating). Building or patching an
// Index never blocks readers of earlier snapshots.
type Index struct {
	cfg      Config
	version  uint64
	directed bool
	n        int

	// adjOut[r] = out-neighbors of r (all neighbors when undirected);
	// adjIn is directed-only (nil otherwise — use adjOut).
	adjOut []*sets.Bitset //cow:shared
	adjIn  []*sets.Bitset //cow:shared

	// degAtLeast[d] = nodes with Degree ≥ d (degAtLeast[0] = everyone);
	// outDegAtLeast is the same ladder over OutDegree. Undirected graphs
	// share one ladder (Degree == OutDegree there).
	degAtLeast    []*sets.Bitset //cow:shared
	outDegAtLeast []*sets.Bitset //cow:shared

	// postings holds sorted postings for every numeric node attribute.
	postings map[string]*Postings //cow:shared
	// strata[attr][k-1] = nodes with attr ≥ k, for the configured
	// capacity-style attributes.
	strata map[string][]*sets.Bitset //cow:shared

	zero *sets.Bitset // shared empty set for out-of-ladder queries

	// reach is the snapshot's lazily-built hop-bounded reachability
	// tables (see reach.go). Never nil. Structural patches install a
	// fresh cache; attribute-only patches share the previous snapshot's,
	// since reachability depends only on adjacency.
	reach *reachCache

	// cols is the snapshot's lazily-built attribute columns over the
	// indexed graph (see columns.go). Never nil. Patches carry over every
	// column the delta cannot have changed.
	cols *Columns
}

// Build computes a fresh index over g, stamped with the model version it
// reflects.
func Build(g *graph.Graph, version uint64, cfg Config) *Index {
	cfg.applyDefaults()
	n := g.NumNodes()
	ix := &Index{
		cfg:      cfg,
		version:  version,
		directed: g.Directed(),
		n:        n,
		adjOut:   make([]*sets.Bitset, n),
		postings: make(map[string]*Postings),
		strata:   make(map[string][]*sets.Bitset, len(cfg.StrataAttrs)),
		zero:     sets.NewBitset(n),
		reach:    newReachCache(),
		cols:     NewColumns(g),
	}
	if ix.directed {
		ix.adjIn = make([]*sets.Bitset, n)
	}
	for r := 0; r < n; r++ {
		ix.adjOut[r] = adjacencyBits(n, g.Arcs(graph.NodeID(r)))
		if ix.directed {
			ix.adjIn[r] = adjacencyBits(n, g.InArcs(graph.NodeID(r)))
		}
	}

	ix.degAtLeast = buildDegreeLadder(n, func(r graph.NodeID) int { return g.Degree(r) })
	if ix.directed {
		ix.outDegAtLeast = buildDegreeLadder(n, func(r graph.NodeID) int { return g.OutDegree(r) })
	} else {
		ix.outDegAtLeast = ix.degAtLeast
	}

	for r := 0; r < n; r++ {
		for name, v := range g.Node(graph.NodeID(r)).Attrs {
			if f, ok := v.Float(); ok {
				pp := ix.postings[name]
				if pp == nil {
					pp = &Postings{}
					ix.postings[name] = pp
				}
				pp.vals = append(pp.vals, f)
				pp.ids = append(pp.ids, graph.NodeID(r))
			}
		}
	}
	for _, pp := range ix.postings {
		sortPostings(pp)
	}

	for _, attr := range cfg.StrataAttrs {
		ix.strata[attr] = ix.buildStrata(attr)
	}
	return ix
}

func adjacencyBits(n int, arcs []graph.Arc) *sets.Bitset {
	b := sets.NewBitset(n)
	for _, a := range arcs {
		b.Set(a.To)
	}
	return b
}

func buildDegreeLadder(n int, deg func(graph.NodeID) int) []*sets.Bitset {
	maxDeg := 0
	for r := 0; r < n; r++ {
		if d := deg(graph.NodeID(r)); d > maxDeg {
			maxDeg = d
		}
	}
	ladder := make([]*sets.Bitset, maxDeg+1)
	for d := range ladder {
		ladder[d] = sets.NewBitset(n)
	}
	for r := 0; r < n; r++ {
		d := deg(graph.NodeID(r))
		for k := 0; k <= d; k++ {
			ladder[k].Set(graph.NodeID(r))
		}
	}
	return ladder
}

func sortPostings(pp *Postings) {
	sort.Sort(postingsOrder{pp})
}

type postingsOrder struct{ p *Postings }

func (o postingsOrder) Len() int { return len(o.p.vals) }
func (o postingsOrder) Less(i, j int) bool {
	if o.p.vals[i] != o.p.vals[j] {
		return o.p.vals[i] < o.p.vals[j]
	}
	return o.p.ids[i] < o.p.ids[j]
}
func (o postingsOrder) Swap(i, j int) {
	o.p.vals[i], o.p.vals[j] = o.p.vals[j], o.p.vals[i]
	o.p.ids[i], o.p.ids[j] = o.p.ids[j], o.p.ids[i]
}

// buildStrata materializes the attr ≥ k bitset ladder from the attribute's
// postings (levels k = 1..StrataLevels, truncated at the attribute's max).
func (ix *Index) buildStrata(attr string) []*sets.Bitset {
	pp := ix.postings[attr]
	if pp == nil || pp.Len() == 0 {
		return nil
	}
	maxVal := pp.vals[len(pp.vals)-1]
	levels := ix.cfg.StrataLevels
	if float64(levels) > maxVal {
		levels = int(maxVal)
	}
	if levels < 1 {
		return nil
	}
	ladder := make([]*sets.Bitset, levels)
	for k := 1; k <= levels; k++ {
		b := sets.NewBitset(ix.n)
		for i := pp.ge(float64(k), -1<<31); i < len(pp.ids); i++ {
			b.Set(pp.ids[i])
		}
		ladder[k-1] = b
	}
	return ladder
}

// Version returns the model version this snapshot reflects.
func (ix *Index) Version() uint64 { return ix.version }

// NumNodes returns the universe size.
func (ix *Index) NumNodes() int { return ix.n }

// Directed reports the indexed graph's orientation.
func (ix *Index) Directed() bool { return ix.directed }

// ColumnsFor returns the snapshot's attribute-column cache when g is the
// very graph this snapshot describes (pointer identity — a clone, however
// similar, is a different graph whose attributes may differ), and nil
// otherwise. Callers fall back to building throw-away columns from g, so
// correctness never depends on the cache.
func (ix *Index) ColumnsFor(g *graph.Graph) *Columns {
	if ix.cols.g != g {
		return nil
	}
	return ix.cols
}

// Neighbors returns r's out-neighbor bitset (all neighbors when
// undirected). Read-only.
func (ix *Index) Neighbors(r graph.NodeID) *sets.Bitset { return ix.adjOut[r] }

// InNeighbors returns r's in-neighbor bitset (== Neighbors when
// undirected). Read-only.
func (ix *Index) InNeighbors(r graph.NodeID) *sets.Bitset {
	if !ix.directed {
		return ix.adjOut[r]
	}
	return ix.adjIn[r]
}

// DegreeAtLeast returns the nodes with Degree ≥ d. Read-only.
func (ix *Index) DegreeAtLeast(d int) *sets.Bitset {
	return ladderAt(ix.degAtLeast, d, ix.zero)
}

// MaxDegree returns the host's largest node degree — the top rung of the
// degree strata ladder (0 on an empty host). The distributed coordinator
// screens shard eligibility with it: a shard whose densest node cannot
// carry the query's sparsest one can never answer.
func (ix *Index) MaxDegree() int {
	if len(ix.degAtLeast) == 0 {
		return 0
	}
	return len(ix.degAtLeast) - 1
}

// OutDegreeAtLeast returns the nodes with OutDegree ≥ d. Read-only.
func (ix *Index) OutDegreeAtLeast(d int) *sets.Bitset {
	return ladderAt(ix.outDegAtLeast, d, ix.zero)
}

func ladderAt(ladder []*sets.Bitset, d int, zero *sets.Bitset) *sets.Bitset {
	if d < 0 {
		d = 0
	}
	if d >= len(ladder) {
		return zero
	}
	return ladder[d]
}

// AttrAtLeast returns a fresh bitset of the nodes whose numeric attribute
// attr is ≥ x. Integral thresholds on strata attributes are answered from
// the precomputed ladder (one clone); everything else walks the postings
// suffix.
func (ix *Index) AttrAtLeast(attr string, x float64) *sets.Bitset {
	if ladder := ix.strata[attr]; ladder != nil {
		k := int(x)
		if float64(k) == x && k >= 1 && k <= len(ladder) {
			return ladder[k-1].Clone()
		}
	}
	out := sets.NewBitset(ix.n)
	if pp := ix.postings[attr]; pp != nil {
		for i := pp.ge(x, -1<<31); i < len(pp.ids); i++ {
			out.Set(pp.ids[i])
		}
	}
	return out
}

// AttrPostings returns the sorted postings for a numeric node attribute
// (nil when no node carries it). Read-only.
func (ix *Index) AttrPostings(attr string) *Postings { return ix.postings[attr] }

// Apply returns a new snapshot reflecting next (= old.ApplyDelta(d)),
// stamped with version. Attribute edits and edge add/remove are patched
// copy-on-write: only the adjacency rows, ladder rungs, postings and
// strata the delta touches are copied, everything else is shared with ix
// — including every cached attribute column the delta does not name.
// Node add/remove changes the ID universe and falls back to Build. The
// receiver is never modified.
func (ix *Index) Apply(old, next *graph.Graph, d *graph.Delta, version uint64) *Index {
	if d.Empty() {
		out := *ix
		out.version = version
		out.cols = ix.cols.carry(old, next, d)
		return &out
	}
	if len(d.AddNodes) > 0 || len(d.RemoveNodes) > 0 || next.NumNodes() != ix.n {
		return Build(next, version, ix.cfg)
	}

	out := *ix // shallow: every slice/map is COW-cloned before writing
	out.version = version
	out.cols = ix.cols.carry(old, next, d)

	if len(d.AddEdges) > 0 || len(d.RemoveEdges) > 0 {
		out.patchStructure(old, next, d)
		// Adjacency changed: any cached reachability tables are stale for
		// the new snapshot (the old snapshot keeps its own).
		out.reach = newReachCache()
	}
	if len(d.SetNodeAttrs) > 0 {
		out.patchAttrs(old, next, d)
	}
	return &out
}

// patchStructure re-derives adjacency rows and ladder rungs for the nodes
// whose edge set changed. IDs are stable here: the delta has no node
// add/remove, so ApplyDelta kept the node ordering.
func (out *Index) patchStructure(old, next *graph.Graph, d *graph.Delta) {
	touched := make(map[graph.NodeID]bool, 2*(len(d.AddEdges)+len(d.RemoveEdges)))
	mark := func(g *graph.Graph, source, target string) {
		if u, ok := g.NodeByName(source); ok {
			touched[u] = true
		}
		if v, ok := g.NodeByName(target); ok {
			touched[v] = true
		}
	}
	for _, ref := range d.RemoveEdges {
		mark(old, ref.Source, ref.Target)
	}
	for _, spec := range d.AddEdges {
		mark(next, spec.Source, spec.Target)
	}

	out.adjOut = append([]*sets.Bitset(nil), out.adjOut...)
	if out.directed {
		out.adjIn = append([]*sets.Bitset(nil), out.adjIn...)
	}
	for r := range touched {
		out.adjOut[r] = adjacencyBits(out.n, next.Arcs(r))
		if out.directed {
			out.adjIn[r] = adjacencyBits(out.n, next.InArcs(r))
		}
	}

	out.degAtLeast = patchLadder(out.degAtLeast, out.n, touched,
		func(r graph.NodeID) int { return old.Degree(r) },
		func(r graph.NodeID) int { return next.Degree(r) })
	if out.directed {
		out.outDegAtLeast = patchLadder(out.outDegAtLeast, out.n, touched,
			func(r graph.NodeID) int { return old.OutDegree(r) },
			func(r graph.NodeID) int { return next.OutDegree(r) })
	} else {
		out.outDegAtLeast = out.degAtLeast
	}
}

// patchLadder moves the touched nodes between ladder rungs, cloning only
// the rungs whose membership actually changes.
func patchLadder(ladder []*sets.Bitset, n int, touched map[graph.NodeID]bool, oldDeg, newDeg func(graph.NodeID) int) []*sets.Bitset {
	ladder = append([]*sets.Bitset(nil), ladder...)
	cloned := make(map[int]bool)
	rung := func(d int) *sets.Bitset {
		for len(ladder) <= d {
			ladder = append(ladder, sets.NewBitset(n))
			cloned[len(ladder)-1] = true
		}
		if !cloned[d] {
			ladder[d] = ladder[d].Clone()
			cloned[d] = true
		}
		return ladder[d]
	}
	for r := range touched {
		o, w := oldDeg(r), newDeg(r)
		for d := o + 1; d <= w; d++ {
			rung(d).Set(r)
		}
		for d := w + 1; d <= o; d++ {
			rung(d).Clear(r)
		}
	}
	// Trim rungs that went empty at the top so the ladder length stays
	// the maximum degree + 1.
	for len(ladder) > 1 && !ladder[len(ladder)-1].Any() {
		ladder = ladder[:len(ladder)-1]
	}
	return ladder
}

// patchAttrs re-derives postings and strata for the (node, attribute)
// pairs the delta edits. Within one delta the last write wins, matching
// graph.ApplyDelta's patch order.
//
//netembedvet:allow cowwrite the cloned flag gates every map write below behind clonePostingsMaps, which re-binds both postings and strata to fresh maps before the first write
func (out *Index) patchAttrs(old, next *graph.Graph, d *graph.Delta) {
	// final[attr][id] records each touched pair once, with its final
	// numeric value (nil = absent/non-numeric after the delta).
	final := make(map[string]map[graph.NodeID]*float64)
	record := func(id graph.NodeID, attr string, v *float64) {
		m := final[attr]
		if m == nil {
			m = make(map[graph.NodeID]*float64)
			final[attr] = m
		}
		m[id] = v
	}
	for _, up := range d.SetNodeAttrs {
		id, ok := next.NodeByName(up.Node)
		if !ok {
			continue // ApplyDelta would have rejected the delta
		}
		for attr := range up.Set {
			if f, ok := up.Set[attr].Float(); ok {
				record(id, attr, &f)
			} else {
				record(id, attr, nil)
			}
		}
		for _, attr := range up.Unset {
			record(id, attr, nil)
		}
	}

	cloned := false
	for attr, nodes := range final {
		var patchedPP *Postings
		for id, newVal := range nodes {
			var oldVal *float64
			if f, ok := old.Node(id).Attrs.Float(attr); ok {
				oldVal = &f
			}
			if !floatPtrEq(oldVal, newVal) {
				if patchedPP == nil {
					if pp := out.postings[attr]; pp != nil {
						patchedPP = pp.clone()
					} else {
						patchedPP = &Postings{}
					}
				}
				patchedPP.splice(id, oldVal, newVal)
			}
		}
		if patchedPP == nil {
			continue
		}
		if !cloned {
			out.clonePostingsMaps()
			cloned = true
		}
		if patchedPP.Len() == 0 {
			delete(out.postings, attr)
		} else {
			out.postings[attr] = patchedPP
		}
		if _, isStrata := out.strata[attr]; isStrata || containsAttr(out.cfg.StrataAttrs, attr) {
			out.strata[attr] = out.buildStrata(attr)
		}
	}
}

func (out *Index) clonePostingsMaps() {
	postings := make(map[string]*Postings, len(out.postings))
	for k, v := range out.postings {
		postings[k] = v
	}
	out.postings = postings
	strata := make(map[string][]*sets.Bitset, len(out.strata))
	for k, v := range out.strata {
		strata[k] = v
	}
	out.strata = strata
}

func containsAttr(attrs []string, attr string) bool {
	for _, a := range attrs {
		if a == attr {
			return true
		}
	}
	return false
}

func floatPtrEq(a, b *float64) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}
