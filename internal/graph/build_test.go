package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// records returns g's nodes and edges as Build takes them, in ID order,
// with fresh attribute bags.
func records(g *Graph) ([]Node, []Edge) {
	nodes := make([]Node, g.NumNodes())
	for u := range nodes {
		n := g.Node(NodeID(u))
		nodes[u] = Node{Name: n.Name, Attrs: n.Attrs.Clone()}
	}
	edges := make([]Edge, g.NumEdges())
	for i := range edges {
		e := g.Edge(EdgeID(i))
		edges[i] = Edge{From: e.From, To: e.To, Attrs: e.Attrs.Clone()}
	}
	return nodes, edges
}

// appendEdge adds one edge between two nodes not yet joined and checks
// that every other node's adjacency is what it was, and that the two
// endpoints gained exactly the new arc. It returns the endpoints.
func appendEdge(t *testing.T, what string, rng *rand.Rand, g *Graph) (NodeID, NodeID) {
	t.Helper()
	before := freeze(g)
	var u, v NodeID
	for {
		u, v = NodeID(rng.Intn(g.NumNodes())), NodeID(rng.Intn(g.NumNodes()))
		if u != v && !g.HasEdge(u, v) {
			break
		}
	}
	id := g.MustAddEdge(u, v, Attrs{}.SetNum("delay", 1))
	after := freeze(g)
	for w := range before.Nodes {
		out, in := before.Out[w], before.In[w]
		switch {
		case NodeID(w) == u && g.Directed():
			out = append(slices.Clone(out), Arc{To: v, Edge: id})
		case NodeID(w) == u:
			out = append(slices.Clone(out), Arc{To: v, Edge: id})
			in = out
		case NodeID(w) == v && g.Directed():
			in = append(slices.Clone(in), Arc{To: u, Edge: id})
		case NodeID(w) == v:
			out = append(slices.Clone(out), Arc{To: u, Edge: id})
			in = out
		}
		if !slices.Equal(after.Out[w], out) || !slices.Equal(after.In[w], in) {
			t.Fatalf("%s: adding edge %d-%d changed node %d's adjacency: out %v in %v, want %v and %v",
				what, u, v, w, after.Out[w], after.In[w], out, in)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("%s: after adding edge %d-%d: %v", what, u, v, err)
	}
	return u, v
}

// TestBuildMatchesIncremental holds Build to AddNode and AddEdge: the
// same graph over random directed and undirected graphs on both sides of
// the edge page boundary, the same rejections, and storage that an edge
// appended later — to the built graph or to its Clone — does not write
// through into any other node's adjacency.
func TestBuildMatchesIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, directed := range []bool{false, true} {
		for _, m := range []int{0, 1, 12, 1023, 1024, 1025, 2049} {
			what := fmt.Sprintf("directed=%v, %d edges", directed, m)
			want := pagedHost(rng, directed, 80, m)
			nodes, edges := records(want)
			got, err := Build(directed, nodes, edges)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			mustEqual(t, what, freeze(got), freeze(want))

			clone := got.Clone()
			kept := freeze(got)
			appendEdge(t, what+", appended to the clone", rng, clone)
			mustEqual(t, what+", the original after its clone grew", freeze(got), kept)

			u, v := appendEdge(t, what+", appended to the built graph", rng, got)
			want.MustAddEdge(u, v, Attrs{}.SetNum("delay", 1))
			mustEqual(t, what+", after one more edge each", freeze(got), freeze(want))
		}
	}

	// Names: generated like AddNode's, duplicates refused where it panics.
	got, err := Build(false, []Node{{Name: "a"}, {}, {Name: "b"}}, nil)
	if err != nil || got.Node(1).Name != "n1" {
		t.Fatalf("generated name: %v, %v", got, err)
	}
	for _, names := range [][]string{{"a", "b", "a"}, {"", "n0"}} {
		nodes := make([]Node, len(names))
		for i, name := range names {
			nodes[i].Name = name
		}
		if _, err := Build(false, nodes, nil); !errors.Is(err, ErrDuplicateName) {
			t.Errorf("names %q: Build error %v, want ErrDuplicateName", names, err)
		}
	}

	// Edges: the first edge AddEdge refuses, Build refuses with its error.
	for _, c := range []struct {
		directed bool
		edges    [][2]NodeID
	}{
		{false, [][2]NodeID{{0, 1}, {1, 2}, {2, 1}}},
		{true, [][2]NodeID{{0, 1}, {1, 0}, {0, 1}}},
		{false, [][2]NodeID{{0, 1}, {2, 2}}},
		{true, [][2]NodeID{{0, 3}}},
		{false, [][2]NodeID{{-1, 0}}},
	} {
		inc := New(c.directed)
		inc.AddNodes(3)
		var want error
		edges := make([]Edge, len(c.edges))
		for i, e := range c.edges {
			edges[i] = Edge{From: e[0], To: e[1]}
			if _, err := inc.AddEdge(e[0], e[1], nil); err != nil && want == nil {
				want = err
			}
		}
		if want == nil {
			t.Fatalf("%v: AddEdge refused nothing", c.edges)
		}
		nodes, _ := records(inc)
		if _, err := Build(c.directed, nodes, edges); err != want {
			t.Errorf("directed=%v %v: Build error %v, AddEdge's %v", c.directed, c.edges, err, want)
		}
	}
}
