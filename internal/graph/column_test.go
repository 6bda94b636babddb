package graph

import (
	"math"
	"slices"
	"testing"
)

func columnFixture() *Graph {
	g := NewUndirected()
	g.AddNode("a", Attrs{}.SetNum("x", 1.5).SetStr("os", "linux"))
	g.AddNode("b", Attrs{}.SetBool("x", true))
	g.AddNode("c", nil)
	g.AddNode("d", Attrs{}.SetBool("x", false).Set("os", Value{}))
	g.MustAddEdge(0, 1, Attrs{}.SetNum("d", math.Inf(1)))
	g.MustAddEdge(2, 1, Attrs{}.SetStr("d", "slow"))
	g.MustAddEdge(3, 0, nil)
	return g
}

// valueAt reassembles element i of col.
func valueAt(col *Column, i int) Value {
	switch col.Tags[i] {
	case TagNumber:
		return Num(col.Nums[i])
	case TagString:
		return Str(col.Strs[i])
	case TagFalse, TagTrue:
		return BoolVal(col.Tags[i] == TagTrue)
	}
	return Value{}
}

// TestColumnsRoundTrip: element i of a column is exactly Attrs.Get on
// element i, for every kind including absent and explicitly-missing.
func TestColumnsRoundTrip(t *testing.T) {
	g := columnFixture()
	for _, attr := range []string{"x", "os"} {
		col := g.NodeColumn(attr, nil)
		if len(col.Tags) != g.NumNodes() || len(col.Nums) != g.NumNodes() {
			t.Fatalf("node column %q has %d tags, %d numbers", attr, len(col.Tags), len(col.Nums))
		}
		for i := 0; i < g.NumNodes(); i++ {
			want := g.Node(NodeID(i)).Attrs.Get(attr)
			if got := valueAt(col, i); !got.Equal(want) || TagOf(want) != col.Tags[i] {
				t.Errorf("node column %q[%d] = %v (tag %d), want %v", attr, i, got, col.Tags[i], want)
			}
		}
	}
	col := g.EdgeColumn("d", nil)
	for i := 0; i < g.NumEdges(); i++ {
		if want := g.Edge(EdgeID(i)).Attrs.Get("d"); !valueAt(col, i).Equal(want) {
			t.Errorf("edge column d[%d] = %v, want %v", i, valueAt(col, i), want)
		}
	}
	if g.NodeColumn("x", nil).Strs != nil {
		t.Error("a column without strings allocated a string payload")
	}
}

// TestUndefinedAttributeHasNoColumn: an attribute no element carries a
// value for — absent everywhere, or only ever set to the missing value —
// yields nil and leaves the storage it was offered alone.
func TestUndefinedAttributeHasNoColumn(t *testing.T) {
	g := columnFixture()
	g.AddNode("e", Attrs{}.Set("ghost", Value{}))
	into := g.NodeColumn("x", nil)
	tags := append([]Tag(nil), into.Tags...)
	for _, attr := range []string{"nope", "ghost"} {
		if col := g.NodeColumn(attr, into); col != nil {
			t.Errorf("NodeColumn(%q) = %v, want nil", attr, col)
		}
		if col := g.EdgeColumn(attr, into); col != nil {
			t.Errorf("EdgeColumn(%q) = %v, want nil", attr, col)
		}
	}
	if !slices.Equal(into.Tags, tags) {
		t.Error("a nil result overwrote the offered storage")
	}
	if NewUndirected().NodeColumn("x", nil) != nil {
		t.Error("the empty graph has a column")
	}
}

// TestColumnStorageReuse: rebuilding into a used column overwrites it
// completely — no stale tags, and no string payload kept alive.
func TestColumnStorageReuse(t *testing.T) {
	g := columnFixture()
	col := g.NodeColumn("os", nil)
	tags := &col.Tags[0]
	col = g.NodeColumn("x", col)
	if &col.Tags[0] != tags {
		t.Error("storage was not reused")
	}
	if col.Strs != nil {
		t.Error("recycled column still pins the previous strings")
	}
	for i := 0; i < g.NumNodes(); i++ {
		if want := g.Node(NodeID(i)).Attrs.Get("x"); !valueAt(col, i).Equal(want) {
			t.Errorf("reused column x[%d] = %v, want %v", i, valueAt(col, i), want)
		}
	}
	if e := g.EdgeColumn("d", col); len(e.Tags) != g.NumEdges() {
		t.Errorf("reshaped column has %d elements, want %d", len(e.Tags), g.NumEdges())
	}
}

func TestEndpoints(t *testing.T) {
	g := columnFixture()
	from, to := g.Endpoints(nil, nil)
	for i := 0; i < g.NumEdges(); i++ {
		if e := g.Edge(EdgeID(i)); from[i] != e.From || to[i] != e.To {
			t.Errorf("endpoints[%d] = %d-%d, want %d-%d", i, from[i], to[i], e.From, e.To)
		}
	}
}
