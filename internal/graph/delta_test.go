package graph

import (
	"errors"
	"testing"
)

func deltaHost() *Graph {
	g := NewUndirected()
	a := g.AddNode("a", Attrs{}.SetNum("cpu", 4).SetNum("slots", 2))
	b := g.AddNode("b", Attrs{}.SetNum("cpu", 2))
	c := g.AddNode("c", Attrs{}.SetStr("os", "linux"))
	g.MustAddEdge(a, b, Attrs{}.SetNum("delay", 10))
	g.MustAddEdge(b, c, Attrs{}.SetNum("delay", 20))
	return g
}

func TestApplyDeltaEmpty(t *testing.T) {
	g := deltaHost()
	next, err := g.ApplyDelta(&Delta{})
	if err != nil {
		t.Fatal(err)
	}
	if next != g {
		t.Error("empty delta should return the receiver unchanged")
	}
	if next, err = g.ApplyDelta(nil); err != nil || next != g {
		t.Error("nil delta should return the receiver unchanged")
	}
}

func TestApplyDeltaAttrsOnlyIsCopyOnWrite(t *testing.T) {
	g := deltaHost()
	next, err := g.ApplyDelta(&Delta{
		SetNodeAttrs: []NodeAttrUpdate{
			{Node: "a", Set: Attrs{}.SetNum("cpu", 8), Unset: []string{"slots"}},
		},
		SetEdgeAttrs: []EdgeAttrUpdate{
			{Source: "c", Target: "b", Set: Attrs{}.SetNum("delay", 25)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The structure is shared, not copied.
	if &next.out[0] != &g.out[0] {
		t.Error("attribute-only delta should share adjacency")
	}
	if len(next.index) != len(g.index) || len(next.names) != len(g.names) {
		t.Error("attribute-only delta should share the edge/name indexes")
	}
	// New values visible on the new snapshot.
	if v, _ := next.nodes[0].Attrs.Float("cpu"); v != 8 {
		t.Errorf("cpu = %v, want 8", v)
	}
	if next.nodes[0].Attrs.Has("slots") {
		t.Error("slots should have been unset")
	}
	id, _ := next.EdgeBetween(1, 2)
	if v, _ := next.Edge(id).Attrs.Float("delay"); v != 25 {
		t.Errorf("edge delay = %v, want 25", v)
	}
	// Old snapshot untouched.
	if v, _ := g.nodes[0].Attrs.Float("cpu"); v != 4 {
		t.Errorf("old snapshot cpu = %v, want 4", v)
	}
	if !g.nodes[0].Attrs.Has("slots") {
		t.Error("old snapshot lost its slots attribute")
	}
	oldID, _ := g.EdgeBetween(1, 2)
	if v, _ := g.Edge(oldID).Attrs.Float("delay"); v != 20 {
		t.Errorf("old snapshot edge delay = %v, want 20", v)
	}
	// Untouched attribute bags are shared by identity.
	if &next.nodes[1].Attrs != &next.nodes[1].Attrs {
		t.Fatal("unreachable")
	}
	if err := next.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyDeltaStructural(t *testing.T) {
	g := deltaHost()
	next, err := g.ApplyDelta(&Delta{
		RemoveEdges: []EdgeRef{{Source: "b", Target: "a"}}, // order-insensitive
		RemoveNodes: []string{"c"},                         // takes edge b-c along
		AddNodes:    []NodeSpec{{Name: "d", Attrs: Attrs{}.SetNum("cpu", 16)}},
		AddEdges:    []EdgeSpec{{Source: "a", Target: "d", Attrs: Attrs{}.SetNum("delay", 5)}},
		SetNodeAttrs: []NodeAttrUpdate{
			{Node: "d", Set: Attrs{}.SetNum("slots", 3)}, // may reference added nodes
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if next.NumNodes() != 3 || next.NumEdges() != 1 {
		t.Fatalf("got %d nodes / %d edges, want 3 / 1", next.NumNodes(), next.NumEdges())
	}
	if _, ok := next.NodeByName("c"); ok {
		t.Error("removed node still resolvable")
	}
	d, ok := next.NodeByName("d")
	if !ok {
		t.Fatal("added node missing")
	}
	if v, _ := next.Node(d).Attrs.Float("slots"); v != 3 {
		t.Errorf("added node slots = %v, want 3", v)
	}
	a, _ := next.NodeByName("a")
	if !next.HasEdge(a, d) {
		t.Error("added edge missing")
	}
	if err := next.Validate(); err != nil {
		t.Fatal(err)
	}
	// The original is fully intact.
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Error("structural delta modified the original graph")
	}
}

func TestApplyDeltaNodeReplacement(t *testing.T) {
	g := deltaHost()
	next, err := g.ApplyDelta(&Delta{
		RemoveNodes: []string{"b"},
		AddNodes:    []NodeSpec{{Name: "b", Attrs: Attrs{}.SetNum("cpu", 99)}},
		AddEdges:    []EdgeSpec{{Source: "a", Target: "b"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := next.NodeByName("b")
	if v, _ := next.Node(b).Attrs.Float("cpu"); v != 99 {
		t.Errorf("replaced node cpu = %v, want 99", v)
	}
	if next.NumEdges() != 1 {
		t.Errorf("replacement should drop the old incident edges, got %d edges", next.NumEdges())
	}
}

func TestApplyDeltaErrors(t *testing.T) {
	g := deltaHost()
	cases := []struct {
		name       string
		delta      Delta
		unresolved bool // a name-resolution failure (ErrUnresolved), not a malformed delta
	}{
		{"unknown node attrs", Delta{SetNodeAttrs: []NodeAttrUpdate{{Node: "zz"}}}, true},
		{"unknown edge attrs", Delta{SetEdgeAttrs: []EdgeAttrUpdate{{Source: "a", Target: "c"}}}, true},
		{"remove unknown node", Delta{RemoveNodes: []string{"zz"}}, true},
		{"remove missing edge", Delta{RemoveEdges: []EdgeRef{{Source: "a", Target: "c"}}}, true},
		{"add duplicate node", Delta{AddNodes: []NodeSpec{{Name: "a"}}}, true},
		{"add duplicate edge", Delta{AddEdges: []EdgeSpec{{Source: "a", Target: "b"}}}, true},
		{"add duplicate edge beside a node add", Delta{AddNodes: []NodeSpec{{Name: "d"}}, AddEdges: []EdgeSpec{{Source: "a", Target: "b"}}}, true},
		{"add edge to unknown node", Delta{AddEdges: []EdgeSpec{{Source: "a", Target: "zz"}}}, true},
		{"add self-loop", Delta{AddEdges: []EdgeSpec{{Source: "a", Target: "a"}}}, false},
		{"add unnamed node", Delta{AddNodes: []NodeSpec{{}}}, false},
	}
	for _, c := range cases {
		_, err := g.ApplyDelta(&c.delta)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
		} else if errors.Is(err, ErrUnresolved) != c.unresolved {
			t.Errorf("%s: %v, errors.Is(ErrUnresolved) = %v", c.name, err, !c.unresolved)
		}
	}
	// Errors leave the graph untouched.
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Error("failed delta modified the graph")
	}
}

// TestReplacementYieldsTheNewGraph: the replacement delta turns a graph
// into another one with the same nodes, IDs, edges and attributes.
func TestReplacementYieldsTheNewGraph(t *testing.T) {
	g := deltaHost()
	next := NewUndirected()
	x := next.AddNode("x", Attrs{}.SetNum("cpu", 2))
	a := next.AddNode("a", nil)
	next.MustAddEdge(a, x, Attrs{}.SetNum("avgDelay", 7))
	d, err := Replacement(g, next)
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != 2 || got.Node(0).Name != "x" || got.Node(1).Name != "a" || got.NumEdges() != 1 {
		t.Fatalf("replacement produced %d nodes, %d edges", got.NumNodes(), got.NumEdges())
	}
	if cpu, _ := got.Node(0).Attrs.Float("cpu"); cpu != 2 {
		t.Errorf("node attrs lost: cpu %v", cpu)
	}
	if e := got.Edge(0); e.From != 1 || e.To != 0 || !e.Attrs.Has("avgDelay") {
		t.Errorf("edge 0 = %d-%d %v", e.From, e.To, e.Attrs)
	}
	if _, err := Replacement(g, New(true)); err == nil {
		t.Error("a replacement changed the orientation")
	}
}

func TestDeltaClassification(t *testing.T) {
	var nilDelta *Delta
	if !nilDelta.Empty() || nilDelta.Structural() {
		t.Error("nil delta should be empty and non-structural")
	}
	attrs := &Delta{SetNodeAttrs: []NodeAttrUpdate{{Node: "a"}}}
	if attrs.Empty() || attrs.Structural() {
		t.Error("attr delta misclassified")
	}
	structural := &Delta{AddNodes: []NodeSpec{{Name: "x"}}}
	if structural.Empty() || !structural.Structural() {
		t.Error("structural delta misclassified")
	}
	s, a := structural.Counts()
	if s != 1 || a != 0 {
		t.Errorf("Counts = (%d, %d), want (1, 0)", s, a)
	}
}
