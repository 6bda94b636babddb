// Package index maintains a persistent, version-stamped capability index
// over the hosting network's topology: per-node adjacency bitsets and
// degree strata (nodes with degree ≥ d, one bitset per d), beside the
// lazily-built hop-bounded reachability tables (reach.go) and attribute
// columns with their range indexes (columns.go). Host attributes are read
// from the graph's bags or, in bulk, from those columns; the index keeps
// no attribute form of its own.
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
// patches the touched rows and rungs, and an attribute edit — the
// monitoring feed's bread and butter — only carries the column cache.
package index

import (
	"netembed/internal/graph"
	"netembed/internal/sets"
)

// Config has no fields: the index has nothing left to tune. Kept for
// benchmark/ until ROADMAP item 0.
type Config struct{}

// Index is one immutable capability snapshot of a hosting network. All
// accessors return structures shared with the index; callers must treat
// them as read-only (Clone before mutating). Building or patching an
// Index never blocks readers of earlier snapshots.
type Index struct {
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
// reflects. The Config is not read.
func Build(g *graph.Graph, version uint64, _ Config) *Index {
	n := g.NumNodes()
	ix := &Index{
		version:  version,
		directed: g.Directed(),
		n:        n,
		adjOut:   make([]*sets.Bitset, n),
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

// Apply returns a new snapshot reflecting next (= old.ApplyDelta(d)),
// stamped with version. Edge add/remove is patched copy-on-write: only
// the adjacency rows and ladder rungs the delta touches are copied,
// everything else is shared with ix. An attribute edit touches no
// topology, so all it costs is carrying the column cache, which keeps
// every column the delta does not name. Node add/remove changes the ID
// universe and falls back to Build. The receiver is never modified.
func (ix *Index) Apply(old, next *graph.Graph, d *graph.Delta, version uint64) *Index {
	if len(d.AddNodes) > 0 || len(d.RemoveNodes) > 0 || next.NumNodes() != ix.n {
		return Build(next, version, Config{})
	}

	out := *ix // shallow: every slice is COW-cloned before writing
	out.version = version
	out.cols = ix.cols.carry(old, next, d)

	if len(d.AddEdges) > 0 || len(d.RemoveEdges) > 0 {
		out.patchStructure(old, next, d)
		// Adjacency changed: any cached reachability tables are stale for
		// the new snapshot (the old snapshot keeps its own).
		out.reach = newReachCache()
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
