package core

import (
	"fmt"
	"math/rand"
	"testing"

	"netembed/internal/expr"
	"netembed/internal/graph"
	"netembed/internal/index"
	"netembed/internal/topo"
	"netembed/internal/trace"
)

// These property tests pin the tentpole contract of the index-backed
// filter fast path: for every problem shape — with and without node/edge
// constraints, degree filtering on and off, loose and tight base sets,
// directed and undirected — BuildFilters with Options.Index produces
// candidate sets identical to today's full scan, which remains the
// oracle.

// sameFilters compares every observable candidate set of two filter
// builds: node admissibility, base sets, and the per-arc rows for every
// (tail, head, host) triple.
func sameFilters(t *testing.T, label string, p *Problem, oracle, indexed *Filters) {
	t.Helper()
	nq, nr := p.Query.NumNodes(), p.Host.NumNodes()
	for q := 0; q < nq; q++ {
		qid := graph.NodeID(q)
		if got, want := fmt.Sprint(indexed.nodePass[q]), fmt.Sprint(oracle.nodePass[q]); got != want {
			t.Fatalf("%s: nodePass[%d] = %v, want %v", label, q, got, want)
		}
		if got, want := fmt.Sprint(indexed.Base(qid)), fmt.Sprint(oracle.Base(qid)); got != want {
			t.Fatalf("%s: Base(%d) = %v, want %v", label, q, got, want)
		}
	}
	for tail := 0; tail < nq; tail++ {
		for head := 0; head < nq; head++ {
			for r := 0; r < nr; r++ {
				got := indexed.CandidatesGiven(graph.NodeID(tail), graph.NodeID(head), graph.NodeID(r))
				want := oracle.CandidatesGiven(graph.NodeID(tail), graph.NodeID(head), graph.NodeID(r))
				if len(got) != len(want) {
					t.Fatalf("%s: CandidatesGiven(%d,%d,%d) has %d rows, want %d",
						label, tail, head, r, len(got), len(want))
				}
				for i := range got {
					if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
						t.Fatalf("%s: CandidatesGiven(%d,%d,%d) row %d = %v, want %v",
							label, tail, head, r, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// indexProblem builds a random problem plus a matching host index. Every
// host node carries a numeric cpu attribute so node constraints have
// something to bite on.
func indexProblem(t *testing.T, seed int64, directed bool, edgeC, nodeC *expr.Program) (*Problem, *index.Index) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	host := graph.New(directed)
	nr := 8 + rng.Intn(12)
	for i := 0; i < nr; i++ {
		host.AddNode("", graph.Attrs{}.SetNum("cpu", float64(1+rng.Intn(4))))
	}
	for u := 0; u < nr; u++ {
		for v := 0; v < nr; v++ {
			if u == v || (!directed && u > v) {
				continue
			}
			if rng.Float64() < 0.35 {
				d := 1 + rng.Float64()*99
				host.MustAddEdge(graph.NodeID(u), graph.NodeID(v), graph.Attrs{}.
					SetNum("minDelay", d*0.9).SetNum("avgDelay", d).SetNum("maxDelay", d*1.2))
			}
		}
	}
	query := graph.New(directed)
	nq := 2 + rng.Intn(4)
	for i := 0; i < nq; i++ {
		query.AddNode("", graph.Attrs{}.SetNum("cpu", float64(1+rng.Intn(3))))
	}
	for i := 1; i < nq; i++ {
		lo, hi := rng.Float64()*40, 60+rng.Float64()*80
		query.MustAddEdge(graph.NodeID(rng.Intn(i)), graph.NodeID(i), graph.Attrs{}.
			SetNum("minDelay", lo).SetNum("maxDelay", hi))
	}
	p, err := NewProblem(query, host, edgeC, nodeC)
	if err != nil {
		t.Fatal(err)
	}
	return p, index.Build(host, 1, index.Config{})
}

var (
	cpuFits = expr.MustCompile("rNode.cpu >= vNode.cpu")
	// orientedWindow tells an undirected host edge's two orientations
	// apart, so the fill evaluates it once per orientation.
	orientedWindow = expr.MustCompile("rEdge.minDelay >= vEdge.minDelay && rSource.cpu >= rTarget.cpu")
)

// TestIndexedFiltersMatchOracle pins the one dense fill — rows from the
// index's adjacency, or from the constraint's mask-adjacency, with and
// without an index, serial and sharded — pair by pair against
// Problem.EdgeFeasible/NodeFeasible, and the index-served build against
// the index-less one.
func TestIndexedFiltersMatchOracle(t *testing.T) {
	type shape struct {
		name  string
		edgeC *expr.Program
		nodeC *expr.Program
		opt   Options
	}
	shapes := []shape{
		{"topology-only", nil, nil, Options{}},
		{"node-constraint", nil, cpuFits, Options{}},
		{"edge-constraint", delayWindow, nil, Options{}},
		{"both-constraints", delayWindow, cpuFits, Options{}},
		{"oriented-constraint", orientedWindow, cpuFits, Options{}},
		{"no-degree-filter", nil, cpuFits, Options{NoDegreeFilter: true}},
		{"loose-root", delayWindow, nil, Options{LooseRoot: true}},
	}
	for _, directed := range []bool{false, true} {
		for _, sh := range shapes {
			for seed := int64(1); seed <= 8; seed++ {
				p, idx := indexProblem(t, seed, directed, sh.edgeC, sh.nodeC)
				fwd, bwd, base := bruteForceTables(p)
				if sh.opt.LooseRoot {
					base = nil // the brute force builds the tight base sets
				}
				for _, workers := range []int{1, 4} {
					label := fmt.Sprintf("%s directed=%v seed=%d workers=%d", sh.name, directed, seed, workers)

					scanOpt := sh.opt
					scanOpt.Repr = ReprBitset // same representation, no index
					scanOpt.Workers = workers
					oracle := BuildFilters(p, &scanOpt)

					idxOpt := sh.opt
					idxOpt.Index = idx
					idxOpt.Workers = workers
					indexed := BuildFilters(p, &idxOpt)
					if !indexed.Dense() {
						t.Fatalf("%s: index-backed filters must be dense", label)
					}
					if !sh.opt.NoDegreeFilter { // the brute force applies the degree filter
						matchBruteForce(t, label+" (no index)", p, oracle, fwd, bwd, base)
						matchBruteForce(t, label+" (index)", p, indexed, fwd, bwd, base)
					}
					sameFilters(t, label, p, oracle, indexed)

					// The searches over both builds enumerate identical sets.
					a := ECF(p, scanOpt)
					b := ECF(p, idxOpt)
					sameSolutionSets(t, label, b.Solutions, a.Solutions)
					if a.Status != b.Status || a.Exhausted != b.Exhausted {
						t.Fatalf("%s: outcome classification differs", label)
					}
				}
			}
		}
	}
}

// attrSibling returns g with set applied to the nodes of ids through
// ApplyDelta: the same node IDs and edge pages under a new identity, with
// other node values — the graph an index built over g must not describe
// column by column.
func attrSibling(t *testing.T, g *graph.Graph, ids []graph.NodeID, set graph.Attrs) *graph.Graph {
	t.Helper()
	d := &graph.Delta{}
	for _, r := range ids {
		d.SetNodeAttrs = append(d.SetNodeAttrs, graph.NodeAttrUpdate{Node: g.Node(r).Name, Set: set})
	}
	next, err := g.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	return next
}

// TestAttrSiblingReadsItsOwnColumns: BuildFilters over a node-attribute
// sibling of the indexed host builds every column it reads from the
// sibling itself — its node columns carry values the snapshot's lack, and
// none of the snapshot's columns or range indexes is read or armed — and
// builds the tables a scratch build with no index does.
func TestAttrSiblingReadsItsOwnColumns(t *testing.T) {
	guard := expr.MustCompile("!has(rNode.reserved) && rNode.cpu >= vNode.cpu")
	for seed := int64(1); seed <= 6; seed++ {
		p, idx := indexProblem(t, 300+seed, seed%2 == 0, delayWindow, nil)
		marked := attrSibling(t, p.Host, []graph.NodeID{0, 2, 5}, graph.Attrs{}.SetBool("reserved", true))
		mp, err := NewProblem(p.Query, marked, delayWindow, guard)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("seed %d", seed)
		snapshot := idx.ColumnsFor(p.Host)
		for pass := 0; pass < 2; pass++ { // the second runs on recycled scratch
			f := BuildFilters(mp, &Options{Index: idx})
			for _, attr := range []string{"minDelay", "maxDelay"} {
				if f.scratchCols.EdgeColumn(attr) == snapshot.EdgeColumn(attr) {
					t.Fatalf("%s: the sibling build read the snapshot's %s column", label, attr)
				}
			}
			if f.scratchCols.NodeColumn("reserved") == nil {
				t.Fatalf("%s: the sibling build did not read the sibling's node columns", label)
			}
			sameFilters(t, label, mp, BuildFilters(mp, &Options{Repr: ReprBitset}), f)
			f.release()
		}
		if col := snapshot.EdgeColumn("minDelay"); snapshot.Armed(col) {
			t.Fatalf("%s: sibling builds armed the snapshot's range index", label)
		}
	}
}

// TestRangeIndexArmsOnFirstRequest: on the paper-sized host (29k edges)
// the delay columns' range indexes are absent before any request and
// present after one 8-node/12-edge window request; an index-less build's
// scratch columns, reset per build, never arm.
func TestRangeIndexArmsOnFirstRequest(t *testing.T) {
	host := trace.SyntheticPlanetLab(trace.Config{Sites: 296}, rand.New(rand.NewSource(1)))
	idx := index.Build(host, 1, index.Config{})
	rng := rand.New(rand.NewSource(2))
	request := func() *Problem {
		q, _, err := topo.Subgraph(host, 8, 12, rng)
		if err != nil {
			t.Fatal(err)
		}
		topo.WidenDelayWindows(q, 0.1)
		p, err := NewProblem(q, host, delayWindow, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cols := idx.ColumnsFor(host)
	armed := func(cols *index.Columns) bool {
		return cols.Armed(cols.EdgeColumn("minDelay")) || cols.Armed(cols.EdgeColumn("maxDelay"))
	}
	if armed(cols) {
		t.Fatal("a range index armed before any request")
	}
	BuildFilters(request(), &Options{Index: idx}).release()
	if !cols.Armed(cols.EdgeColumn("minDelay")) || !cols.Armed(cols.EdgeColumn("maxDelay")) {
		t.Fatal("the range indexes did not arm during the first request")
	}
	f := BuildFilters(request(), &Options{})
	if armed(f.scratchCols) {
		t.Fatal("scratch columns armed")
	}
	f.release()
}

// TestIndexedFiltersSliceOracle cross-checks against the sparse
// representation too — the original full-scan path untouched by any
// bitset machinery.
func TestIndexedFiltersSliceOracle(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		p, idx := indexProblem(t, 50+seed, false, delayWindow, cpuFits)
		oracle := ECF(p, Options{Repr: ReprSlice})
		indexed := ECF(p, Options{Index: idx})
		sameSolutionSets(t, fmt.Sprintf("slice oracle seed %d", seed), indexed.Solutions, oracle.Solutions)
	}
}

// TestIndexedFiltersAfterDeltas pins the end-to-end invariant the delta
// pipeline rests on: a chain of incremental index patches yields filters
// identical to a full scan of the final graph.
func TestIndexedFiltersAfterDeltas(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(900 + seed))
		p, idx := indexProblem(t, 200+seed, false, nil, cpuFits)
		host := p.Host
		for step := 0; step < 5; step++ {
			d := &graph.Delta{}
			// Capacity edit on a random node.
			r := graph.NodeID(rng.Intn(host.NumNodes()))
			d.SetNodeAttrs = append(d.SetNodeAttrs, graph.NodeAttrUpdate{
				Node: host.Node(r).Name,
				Set:  graph.Attrs{}.SetNum("cpu", float64(1+rng.Intn(4))),
			})
			// Occasionally rewire an edge.
			if host.NumEdges() > 0 && rng.Float64() < 0.5 {
				e := host.Edge(graph.EdgeID(rng.Intn(host.NumEdges())))
				d.RemoveEdges = append(d.RemoveEdges, graph.EdgeRef{
					Source: host.Node(e.From).Name, Target: host.Node(e.To).Name,
				})
			}
			next, err := host.ApplyDelta(d)
			if err != nil {
				t.Fatal(err)
			}
			idx = idx.Apply(host, next, d, uint64(step+2))
			host = next
		}
		p2, err := NewProblem(p.Query, host, nil, cpuFits)
		if err != nil {
			t.Fatal(err)
		}
		oracle := BuildFilters(p2, &Options{Repr: ReprBitset})
		indexed := BuildFilters(p2, &Options{Index: idx})
		sameFilters(t, fmt.Sprintf("after deltas seed %d", seed), p2, oracle, indexed)
	}
}

// TestIndexIgnoredWhenIncompatible: a stale index (wrong universe) or a
// forced sparse representation must fall back to the scan, not crash or
// mis-filter.
func TestIndexIgnoredWhenIncompatible(t *testing.T) {
	p, _ := indexProblem(t, 3, false, nil, nil)
	smaller := graph.NewUndirected()
	smaller.AddNodes(2)
	stale := index.Build(smaller, 1, index.Config{})
	f := BuildFilters(p, &Options{Index: stale})
	oracle := BuildFilters(p, &Options{})
	sameFilters(t, "stale index", p, oracle, f)

	p2, idx := indexProblem(t, 4, false, nil, nil)
	sliceF := BuildFilters(p2, &Options{Index: idx, Repr: ReprSlice})
	if sliceF.Dense() {
		t.Error("ReprSlice with an index should fall back to sparse scan")
	}
}
