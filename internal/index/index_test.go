package index

import (
	"fmt"
	"math/rand"
	"testing"

	"netembed/internal/graph"
	"netembed/internal/sets"
)

// randomGraph builds a random attributed graph for index testing.
func randomGraph(rng *rand.Rand, directed bool) *graph.Graph {
	g := graph.New(directed)
	n := 6 + rng.Intn(20)
	for i := 0; i < n; i++ {
		attrs := graph.Attrs{}
		if rng.Float64() < 0.8 {
			attrs = attrs.SetNum("slots", float64(1+rng.Intn(5)))
		}
		if rng.Float64() < 0.6 {
			attrs = attrs.SetNum("cpu", rng.Float64()*16)
		}
		if rng.Float64() < 0.3 {
			attrs = attrs.SetStr("os", "linux") // non-numeric: not indexed
		}
		g.AddNode(fmt.Sprintf("h%d", i), attrs)
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || (!directed && u > v) {
				continue
			}
			if rng.Float64() < 0.25 {
				g.MustAddEdge(graph.NodeID(u), graph.NodeID(v), graph.Attrs{}.SetNum("delay", rng.Float64()*100))
			}
		}
	}
	return g
}

// checkAgainstGraph verifies every index query against a direct scan of g.
func checkAgainstGraph(t *testing.T, label string, ix *Index, g *graph.Graph) {
	t.Helper()
	n := g.NumNodes()
	if ix.NumNodes() != n || ix.Directed() != g.Directed() {
		t.Fatalf("%s: shape mismatch", label)
	}
	maxDeg := 0
	for r := 0; r < n; r++ {
		if d := g.Degree(graph.NodeID(r)); d > maxDeg {
			maxDeg = d
		}
	}
	for d := 0; d <= maxDeg+2; d++ {
		got := ix.DegreeAtLeast(d)
		gotOut := ix.OutDegreeAtLeast(d)
		for r := 0; r < n; r++ {
			rid := graph.NodeID(r)
			if got.Has(rid) != (g.Degree(rid) >= d) {
				t.Fatalf("%s: DegreeAtLeast(%d) wrong at node %d", label, d, r)
			}
			if gotOut.Has(rid) != (g.OutDegree(rid) >= d) {
				t.Fatalf("%s: OutDegreeAtLeast(%d) wrong at node %d", label, d, r)
			}
		}
	}
	for r := 0; r < n; r++ {
		rid := graph.NodeID(r)
		nb := ix.Neighbors(rid)
		want := sets.NewBitset(n)
		for _, a := range g.Arcs(rid) {
			want.Set(a.To)
		}
		if !nb.Equal(want) {
			t.Fatalf("%s: Neighbors(%d) mismatch", label, r)
		}
		in := ix.InNeighbors(rid)
		wantIn := sets.NewBitset(n)
		for _, a := range g.InArcs(rid) {
			wantIn.Set(a.To)
		}
		if !in.Equal(wantIn) {
			t.Fatalf("%s: InNeighbors(%d) mismatch", label, r)
		}
	}
	cols := ix.ColumnsFor(g)
	if cols == nil {
		t.Fatalf("%s: no column cache for the indexed graph", label)
	}
	for _, attr := range []string{"slots", "cpu", "missing"} {
		if got, want := cols.NodeColumn(attr), g.NodeColumn(attr, nil); !sameColumn(got, want) {
			t.Fatalf("%s: node column %q = %+v, want %+v", label, attr, got, want)
		}
	}
}

func TestBuildMatchesGraph(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		directed := seed%2 == 0
		g := randomGraph(rng, directed)
		ix := Build(g, 7, Config{})
		if ix.Version() != 7 {
			t.Fatal("version not stamped")
		}
		checkAgainstGraph(t, fmt.Sprintf("seed %d", seed), ix, g)
	}
}

// randomAttrDelta edits random node attributes (the monitor capacity-
// update shape).
func randomAttrDelta(rng *rand.Rand, g *graph.Graph) *graph.Delta {
	var d graph.Delta
	count := 1 + rng.Intn(4)
	for i := 0; i < count; i++ {
		r := graph.NodeID(rng.Intn(g.NumNodes()))
		up := graph.NodeAttrUpdate{Node: g.Node(r).Name}
		switch rng.Intn(4) {
		case 0:
			up.Set = graph.Attrs{}.SetNum("slots", float64(1+rng.Intn(6)))
		case 1:
			up.Set = graph.Attrs{}.SetNum("cpu", rng.Float64()*20)
		case 2:
			up.Unset = []string{"slots"}
		case 3:
			up.Set = graph.Attrs{}.SetStr("cpu", "busted") // numeric -> string: the column gains a string payload
		}
		d.SetNodeAttrs = append(d.SetNodeAttrs, up)
	}
	return &d
}

// randomStructDelta adds/removes edges between existing nodes.
func randomStructDelta(rng *rand.Rand, g *graph.Graph) *graph.Delta {
	var d graph.Delta
	n := g.NumNodes()
	if g.NumEdges() > 0 && rng.Float64() < 0.7 {
		e := g.Edge(graph.EdgeID(rng.Intn(g.NumEdges())))
		d.RemoveEdges = append(d.RemoveEdges, graph.EdgeRef{
			Source: g.Node(e.From).Name, Target: g.Node(e.To).Name,
		})
	}
	for try := 0; try < 10 && len(d.AddEdges) < 2; try++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		dup := false
		for _, spec := range d.AddEdges {
			su, _ := g.NodeByName(spec.Source)
			sv, _ := g.NodeByName(spec.Target)
			if (su == u && sv == v) || (!g.Directed() && su == v && sv == u) {
				dup = true
			}
		}
		if dup {
			continue
		}
		d.AddEdges = append(d.AddEdges, graph.EdgeSpec{
			Source: g.Node(u).Name, Target: g.Node(v).Name,
			Attrs: graph.Attrs{}.SetNum("delay", rng.Float64()*100),
		})
	}
	return &d
}

// TestApplyMatchesRebuild drives random delta sequences through Apply and
// checks after every step that the patched index and a from-scratch Build
// over the new graph both answer exactly like a direct scan of it — the
// node columns the patched snapshot carries included — and that the
// pre-delta snapshot still answers like the old graph (persistence).
func TestApplyMatchesRebuild(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		directed := seed%2 == 0
		g := randomGraph(rng, directed)
		ix := Build(g, 1, Config{})
		for step := 0; step < 8; step++ {
			var d *graph.Delta
			switch rng.Intn(3) {
			case 0:
				d = randomAttrDelta(rng, g)
			case 1:
				d = randomStructDelta(rng, g)
			default:
				d = randomAttrDelta(rng, g)
				sd := randomStructDelta(rng, g)
				d.RemoveEdges, d.AddEdges = sd.RemoveEdges, sd.AddEdges
			}
			next, err := g.ApplyDelta(d)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			patched := ix.Apply(g, next, d, uint64(step+2))
			if patched.Version() != uint64(step+2) {
				t.Fatal("Apply did not stamp the new version")
			}
			label := fmt.Sprintf("seed %d step %d", seed, step)
			checkAgainstGraph(t, label+" (patched)", patched, next)
			checkAgainstGraph(t, label+" (rebuilt)", Build(next, 1, Config{}), next)
			// Persistence: the old snapshot still describes the old graph.
			checkAgainstGraph(t, label+" (old snapshot)", ix, g)
			g, ix = next, patched
		}
	}
}

// TestApplyUniverseChangeRebuilds pins the documented fallback: node
// add/remove renumbers the universe, so Apply rebuilds.
func TestApplyUniverseChangeRebuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := randomGraph(rng, false)
	ix := Build(g, 1, Config{})
	d := &graph.Delta{
		AddNodes: []graph.NodeSpec{{Name: "fresh", Attrs: graph.Attrs{}.SetNum("slots", 9)}},
		AddEdges: []graph.EdgeSpec{{Source: "fresh", Target: g.Node(0).Name}},
	}
	next, err := g.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	patched := ix.Apply(g, next, d, 2)
	checkAgainstGraph(t, "after node add", patched, next)

	d2 := &graph.Delta{RemoveNodes: []string{"fresh"}}
	next2, err := next.ApplyDelta(d2)
	if err != nil {
		t.Fatal(err)
	}
	patched2 := patched.Apply(next, next2, d2, 3)
	checkAgainstGraph(t, "after node remove", patched2, next2)
}
