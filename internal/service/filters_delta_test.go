package service

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"netembed/internal/core"
	"netembed/internal/expr"
	"netembed/internal/graph"
	"netembed/internal/index"
	"netembed/internal/sets"
)

// deltaChainHost is a host whose node and edge bags have holes, so a delta
// can set, overwrite, change the kind of, and unset attributes.
func deltaChainHost(rng *rand.Rand, directed bool) *graph.Graph {
	g := graph.New(directed)
	n := 8 + rng.Intn(6)
	for i := 0; i < n; i++ {
		a := graph.Attrs{}.SetNum("cpu", float64(rng.Intn(5)))
		if rng.Intn(2) == 0 {
			a = a.SetStr("os", []string{"linux", "bsd"}[rng.Intn(2)])
		}
		g.AddNode(fmt.Sprintf("h%d", i), a)
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || (!directed && u > v) || rng.Float64() > 0.45 {
				continue
			}
			g.MustAddEdge(graph.NodeID(u), graph.NodeID(v), graph.Attrs{}.SetNum("d", float64(rng.Intn(100))))
		}
	}
	return g
}

// randomModelDelta mixes the three delta families the column cache treats
// differently: edge-attribute edits, node-attribute edits, and edge
// add/remove.
func randomModelDelta(rng *rand.Rand, g *graph.Graph) *graph.Delta {
	var d graph.Delta
	name := func(r graph.NodeID) string { return g.Node(r).Name }
	if family := rng.Intn(4); family == 0 || family == 3 {
		for i := 0; i < 1+rng.Intn(3) && g.NumEdges() > 0; i++ {
			e := g.Edge(graph.EdgeID(rng.Intn(g.NumEdges())))
			up := graph.EdgeAttrUpdate{Source: name(e.From), Target: name(e.To)}
			switch rng.Intn(4) {
			case 0, 1:
				up.Set = graph.Attrs{}.SetNum("d", float64(rng.Intn(100)))
			case 2:
				up.Set = graph.Attrs{}.SetBool("flag", rng.Intn(2) == 0)
			default:
				up.Unset = []string{"d"}
			}
			d.SetEdgeAttrs = append(d.SetEdgeAttrs, up)
		}
	}
	if family := rng.Intn(4); family == 1 || family == 3 || d.Empty() {
		for i := 0; i < 1+rng.Intn(3); i++ {
			up := graph.NodeAttrUpdate{Node: name(graph.NodeID(rng.Intn(g.NumNodes())))}
			switch rng.Intn(4) {
			case 0:
				up.Set = graph.Attrs{}.SetNum("cpu", float64(rng.Intn(5)))
			case 1:
				up.Set = graph.Attrs{}.SetStr("os", "linux")
			case 2:
				up.Set = graph.Attrs{}.SetStr("cpu", "busted") // number -> string
			default:
				up.Unset = []string{"os"}
			}
			d.SetNodeAttrs = append(d.SetNodeAttrs, up)
		}
	}
	if rng.Intn(3) == 0 {
		if g.NumEdges() > 0 {
			e := g.Edge(graph.EdgeID(rng.Intn(g.NumEdges())))
			d.RemoveEdges = append(d.RemoveEdges, graph.EdgeRef{Source: name(e.From), Target: name(e.To)})
			// An attribute edit of the edge being removed would be rejected.
			d.SetEdgeAttrs = nil
		}
		if u, v := graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes())); u != v && !g.HasEdge(u, v) && !g.HasEdge(v, u) {
			d.AddEdges = append(d.AddEdges, graph.EdgeSpec{Source: name(u), Target: name(v),
				Attrs: graph.Attrs{}.SetNum("d", float64(rng.Intn(100)))})
		}
	}
	return &d
}

var deltaChainConstraints = []struct{ edge, node string }{
	{"rEdge.d >= vEdge.lo && rEdge.d <= vEdge.hi", ""},
	{"rEdge.d <= vEdge.hi && rSource.cpu >= rTarget.cpu", "rNode.cpu >= vNode.cpu"},
	{"has(rEdge.flag) || isBoundTo(vSource.os, rSource.os)", "rNode.os != 'bsd'"},
	{"", "isBoundTo(vNode.os, rNode.os) && rNode.cpu >= 1"},
	{"!has(rEdge.d) || rEdge.d / rTarget.cpu < 40", ""},
}

// checkFiltersAgainstFeasible compares every filter row and base set of a
// BuildFilters run with the per-pair reference on p.
func checkFiltersAgainstFeasible(t *testing.T, label string, p *core.Problem, f *core.Filters) {
	t.Helper()
	nr := p.Host.NumNodes()
	admissible := func(q, r graph.NodeID) bool {
		return p.Host.Degree(r) >= p.Query.Degree(q) && p.Host.OutDegree(r) >= p.Query.OutDegree(q) &&
			p.NodeFeasible(q, r)
	}
	heads := make([][]sets.Set, p.Query.NumNodes()) // per node, one candidate union per incident edge
	for i := 0; i < p.Query.NumEdges(); i++ {
		qe := p.Query.Edge(graph.EdgeID(i))
		fwd, bwd := make([]sets.Set, nr), make([]sets.Set, nr)
		var allHeads, allTails sets.Set
		for rs := graph.NodeID(0); int(rs) < nr; rs++ {
			for rt := graph.NodeID(0); int(rt) < nr; rt++ {
				if rs != rt && admissible(qe.From, rs) && admissible(qe.To, rt) && p.EdgeFeasible(qe, rs, rt) {
					fwd[rs], bwd[rt] = append(fwd[rs], rt), append(bwd[rt], rs)
					allHeads, allTails = append(allHeads, rt), append(allTails, rs)
				}
			}
		}
		for r := graph.NodeID(0); int(r) < nr; r++ {
			// The query is a tree, so each ordered node pair has one table.
			if got := f.CandidatesGiven(qe.From, qe.To, r)[0]; !slices.Equal(got, fwd[r]) {
				t.Fatalf("%s: edge %d, tail at %d: candidates %v, want %v", label, i, r, got, fwd[r])
			}
			if got := f.CandidatesGiven(qe.To, qe.From, r)[0]; !slices.Equal(got, sortedSet(bwd[r])) {
				t.Fatalf("%s: edge %d, head at %d: candidates %v, want %v", label, i, r, got, bwd[r])
			}
		}
		heads[qe.To] = append(heads[qe.To], sortedSet(allHeads))
		heads[qe.From] = append(heads[qe.From], sortedSet(allTails))
	}
	for q, unions := range heads {
		want := unions[0]
		for _, u := range unions[1:] {
			want = slices.DeleteFunc(want, func(x int32) bool { return !slices.Contains(u, x) })
		}
		if got := f.Base(graph.NodeID(q)); !slices.Equal(got, want) {
			t.Fatalf("%s: base[%d] = %v, want %v", label, q, got, want)
		}
	}
}

// sortedSet sorts s in place and drops duplicates.
func sortedSet(s sets.Set) sets.Set {
	slices.Sort(s)
	return slices.Compact(s)
}

// sameColumn reports whether two columns hold the same elements; an
// attribute nothing defines has the nil column on both sides.
func sameColumn(got, want *graph.Column) bool {
	if got == nil || want == nil {
		return got == want
	}
	if !slices.Equal(got.Tags, want.Tags) {
		return false
	}
	for i, tag := range want.Tags {
		if tag == graph.TagNumber && got.Nums[i] != want.Nums[i] ||
			tag == graph.TagString && got.Strs[i] != want.Strs[i] {
			return false
		}
	}
	return true
}

// TestFiltersAcrossDeltaChainMatchBruteForce publishes random chains of
// edge-attribute, node-attribute and structural deltas through
// Model.Apply with the snapshot's column cache warm at every step, and
// checks at every version that (1) the snapshot's index serves columns
// for its own graph only, each equal to one rebuilt from that graph — a
// cached column is never served for a graph it was not built from — and
// (2) filters built through the cache equal the per-pair reference.
func TestFiltersAcrossDeltaChainMatchBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		directed := seed%3 == 0
		model := NewModel(deltaChainHost(rng, directed))

		query := graph.New(directed)
		for i := 0; i < 3; i++ {
			a := graph.Attrs{}.SetNum("cpu", float64(rng.Intn(3)))
			if i == 0 {
				a = a.SetStr("os", "linux")
			}
			query.AddNode("", a)
		}
		query.MustAddEdge(0, 1, graph.Attrs{}.SetNum("lo", 10).SetNum("hi", 70))
		query.MustAddEdge(1, 2, graph.Attrs{}.SetNum("lo", 0).SetNum("hi", 50))

		var prevHost *graph.Graph
		var prevIdx *index.Index
		applied := &graph.Delta{} // what led from prevHost to this version
		prevNodeCols := map[string]*graph.Column{}
		for step := 0; step < 14; step++ {
			host, idx, version := model.SnapshotIndexed()
			label := fmt.Sprintf("seed %d step %d (v%d)", seed, step, version)
			cols := idx.ColumnsFor(host)
			if cols == nil {
				t.Fatalf("%s: snapshot index does not serve its own graph", label)
			}
			if prevIdx != nil && (idx.ColumnsFor(prevHost) != nil || prevIdx.ColumnsFor(host) != nil) {
				t.Fatalf("%s: a snapshot's columns are offered for another version's graph", label)
			}
			for _, c := range deltaChainConstraints {
				var edgeC, nodeC *expr.Program
				if c.edge != "" {
					edgeC = expr.MustCompile(c.edge)
				}
				if c.node != "" {
					nodeC = expr.MustCompile(c.node)
				}
				p, err := core.NewProblem(query, host, edgeC, nodeC)
				if err != nil {
					t.Fatal(err)
				}
				f := core.BuildFilters(p, &core.Options{Index: idx})
				checkFiltersAgainstFeasible(t, fmt.Sprintf("%s, edge %q, node %q", label, c.edge, c.node), p, f)
			}
			// Whatever the builds above cached (or carried over from the
			// previous version) must describe this graph.
			for _, attr := range []string{"d", "flag"} {
				if got, want := cols.EdgeColumn(attr), host.EdgeColumn(attr, nil); !sameColumn(got, want) {
					t.Fatalf("%s: cached edge column %q = %+v, graph says %+v", label, attr, got, want)
				}
			}
			// Edge add/remove shifts edge IDs, so the endpoint arrays must
			// have been rebuilt with the edge columns.
			wantFrom, wantTo := host.Endpoints(nil, nil)
			if from, to := cols.Endpoints(); !slices.Equal(from, wantFrom) || !slices.Equal(to, wantTo) {
				t.Fatalf("%s: cached endpoints do not describe the graph", label)
			}
			for _, attr := range []string{"cpu", "os"} {
				got, want := cols.NodeColumn(attr), host.NodeColumn(attr, nil)
				if !sameColumn(got, want) {
					t.Fatalf("%s: cached node column %q = %+v, graph says %+v", label, attr, got, want)
				}
				// Node IDs and bags outlive edge add/remove: the column is
				// the previous version's own unless the delta named it.
				named := step == 0
				for _, up := range applied.SetNodeAttrs {
					named = named || up.Set.Has(attr) || slices.Contains(up.Unset, attr)
				}
				if !named && got != prevNodeCols[attr] {
					t.Fatalf("%s: node column %q was rebuilt although the delta did not name it", label, attr)
				}
				prevNodeCols[attr] = got
			}

			prevHost, prevIdx = host, idx
			applied = randomModelDelta(rng, host)
			if _, err := model.Apply(applied); err != nil {
				t.Fatalf("%s: delta rejected: %v", label, err)
			}
		}
	}
}
