package graphml

import (
	"math/rand"
	"strings"
	"testing"

	"netembed/internal/graph"
)

const sample = `<?xml version="1.0" encoding="UTF-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key id="d0" for="node" attr.name="osType" attr.type="string"/>
  <key id="d1" for="node" attr.name="cpu" attr.type="double"/>
  <key id="d2" for="edge" attr.name="avgDelay" attr.type="double"/>
  <key id="d3" for="edge" attr.name="up" attr.type="boolean"/>
  <graph id="G" edgedefault="undirected">
    <node id="a">
      <data key="d0">linux</data>
      <data key="d1">4</data>
    </node>
    <node id="b">
      <data key="d0">freebsd</data>
    </node>
    <node id="c"/>
    <edge source="a" target="b">
      <data key="d2">12.5</data>
      <data key="d3">true</data>
    </edge>
    <edge source="b" target="c">
      <data key="d2">7</data>
    </edge>
  </graph>
</graphml>
`

func TestDecodeSample(t *testing.T) {
	g, err := DecodeString(sample)
	if err != nil {
		t.Fatal(err)
	}
	if g.Directed() {
		t.Error("sample should be undirected")
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("decoded %v", g)
	}
	a, ok := g.NodeByName("a")
	if !ok {
		t.Fatal("node a missing")
	}
	if os, _ := g.Node(a).Attrs.Text("osType"); os != "linux" {
		t.Errorf("a.osType = %q", os)
	}
	if cpu, _ := g.Node(a).Attrs.Float("cpu"); cpu != 4 {
		t.Errorf("a.cpu = %v", cpu)
	}
	b, _ := g.NodeByName("b")
	e, ok := g.EdgeBetween(a, b)
	if !ok {
		t.Fatal("edge a-b missing")
	}
	if d, _ := g.Edge(e).Attrs.Float("avgDelay"); d != 12.5 {
		t.Errorf("a-b avgDelay = %v", d)
	}
	if up, ok := g.Edge(e).Attrs.Get("up").Truth(); !ok || !up {
		t.Error("a-b up != true")
	}
}

func TestDecodeDirectedAndDefaults(t *testing.T) {
	src := `<graphml>
  <key id="k" for="edge" attr.name="bw" attr.type="double"><default>100</default></key>
  <graph edgedefault="directed">
    <node id="x"/><node id="y"/>
    <edge source="x" target="y"/>
    <edge source="y" target="x"><data key="k">55</data></edge>
  </graph>
</graphml>`
	g, err := DecodeString(src)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Directed() {
		t.Error("edgedefault=directed ignored")
	}
	x, _ := g.NodeByName("x")
	y, _ := g.NodeByName("y")
	e1, _ := g.EdgeBetween(x, y)
	if bw, _ := g.Edge(e1).Attrs.Float("bw"); bw != 100 {
		t.Errorf("default bw = %v, want 100", bw)
	}
	e2, _ := g.EdgeBetween(y, x)
	if bw, _ := g.Edge(e2).Attrs.Float("bw"); bw != 55 {
		t.Errorf("explicit bw = %v, want 55", bw)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"no graph", `<graphml></graphml>`, "no <graph>"},
		{"dup node", `<graphml><graph edgedefault="undirected"><node id="a"/><node id="a"/></graph></graphml>`, "duplicate node id"},
		{"missing id", `<graphml><graph edgedefault="undirected"><node/></graph></graphml>`, "node without id"},
		{"unknown key", `<graphml><graph edgedefault="undirected"><node id="a"><data key="zz">1</data></node></graph></graphml>`, "undeclared key"},
		{"unknown endpoint", `<graphml><graph edgedefault="undirected"><node id="a"/><edge source="a" target="zz"/></graph></graphml>`, "unknown node"},
		{"bad edgedefault", `<graphml><graph edgedefault="mixed"></graph></graphml>`, "edgedefault"},
		{"bad number", `<graphml><key id="k" for="node" attr.name="n" attr.type="double"/><graph edgedefault="undirected"><node id="a"><data key="k">xyz</data></node></graph></graphml>`, "bad number"},
		{"bad bool", `<graphml><key id="k" for="node" attr.name="n" attr.type="boolean"/><graph edgedefault="undirected"><node id="a"><data key="k">maybe</data></node></graph></graphml>`, "bad boolean"},
		{"bad type", `<graphml><key id="k" for="node" attr.name="n" attr.type="complex"/><graph edgedefault="undirected"><node id="a"><data key="k">1</data></node></graph></graphml>`, "unsupported attr.type"},
		{"self loop", `<graphml><graph edgedefault="undirected"><node id="a"/><edge source="a" target="a"/></graph></graphml>`, "self-loop"},
		{"not xml", `garbage`, "graphml"},
	}
	for _, c := range cases {
		_, err := DecodeString(c.src)
		if err == nil {
			t.Errorf("%s: decode succeeded, want error with %q", c.name, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error = %q, want substring %q", c.name, err, c.wantSub)
		}
	}
}

func buildRandomGraph(seed int64) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	g := graph.New(r.Intn(2) == 0)
	n := 2 + r.Intn(20)
	oses := []string{"linux", "freebsd", "plan9"}
	for i := 0; i < n; i++ {
		attrs := graph.Attrs{}.
			SetNum("cpu", float64(1+r.Intn(8))).
			SetStr("osType", oses[r.Intn(len(oses))]).
			SetBool("up", r.Intn(2) == 0)
		g.AddNode("", attrs)
	}
	for i := 0; i < 3*n; i++ {
		u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
		if u == v {
			continue
		}
		attrs := graph.Attrs{}.
			SetNum("avgDelay", float64(r.Intn(300))+0.5).
			SetNum("minDelay", float64(r.Intn(50)))
		g.AddEdge(u, v, attrs)
	}
	return g
}

func TestRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		orig := buildRandomGraph(seed)
		text, err := EncodeString(orig)
		if err != nil {
			t.Fatalf("seed %d: encode: %v", seed, err)
		}
		got, err := DecodeString(text)
		if err != nil {
			t.Fatalf("seed %d: decode: %v\n%s", seed, err, text)
		}
		if got.Directed() != orig.Directed() {
			t.Fatalf("seed %d: direction flipped", seed)
		}
		if got.NumNodes() != orig.NumNodes() || got.NumEdges() != orig.NumEdges() {
			t.Fatalf("seed %d: size mismatch: %v vs %v", seed, got, orig)
		}
		for i := 0; i < orig.NumNodes(); i++ {
			id := graph.NodeID(i)
			name := orig.Node(id).Name
			gid, ok := got.NodeByName(name)
			if !ok {
				t.Fatalf("seed %d: node %q lost", seed, name)
			}
			if !attrsEqual(orig.Node(id).Attrs, got.Node(gid).Attrs) {
				t.Fatalf("seed %d: node %q attrs %v != %v", seed, name, orig.Node(id).Attrs, got.Node(gid).Attrs)
			}
		}
		for i := 0; i < orig.NumEdges(); i++ {
			e := orig.Edge(graph.EdgeID(i))
			gu, _ := got.NodeByName(orig.Node(e.From).Name)
			gv, _ := got.NodeByName(orig.Node(e.To).Name)
			ge, ok := got.EdgeBetween(gu, gv)
			if !ok {
				t.Fatalf("seed %d: edge %d lost", seed, i)
			}
			if !attrsEqual(e.Attrs, got.Edge(ge).Attrs) {
				t.Fatalf("seed %d: edge attrs mismatch", seed)
			}
		}
	}
}

func attrsEqual(a, b graph.Attrs) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if !v.Equal(b.Get(k)) {
			return false
		}
	}
	return true
}

func TestEncodeRejectsMixedKinds(t *testing.T) {
	g := graph.NewUndirected()
	g.AddNode("a", graph.Attrs{}.SetNum("attr", 1))
	g.AddNode("b", graph.Attrs{}.SetStr("attr", "one"))
	if _, err := EncodeString(g); err == nil || !strings.Contains(err.Error(), "mixed kinds") {
		t.Errorf("mixed kinds not rejected: %v", err)
	}
}

func TestEncodeEmptyGraph(t *testing.T) {
	g := graph.NewUndirected()
	text, err := EncodeString(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeString(text)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != 0 || got.NumEdges() != 0 {
		t.Errorf("empty graph round-trip = %v", got)
	}
}

// TestDefaultDoesNotOverwriteData is the regression test for a key's
// <default> replacing a value the element set explicitly under another
// key of the same attribute name: defaults used to be skipped by key ID,
// not by name.
func TestDefaultDoesNotOverwriteData(t *testing.T) {
	src := `<graphml>
  <key id="d0" for="node" attr.name="w" attr.type="double"/>
  <key id="d1" for="all" attr.name="w" attr.type="double"><default>5</default></key>
  <graph edgedefault="undirected"><node id="a"><data key="d0">1</data></node></graph>
</graphml>`
	g, err := DecodeString(src)
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := g.Node(0).Attrs.Float("w"); w != 1 {
		t.Errorf("w = %v, want the explicit 1", w)
	}
}

// TestFirstDeclaredDefaultWins is the regression test for two defaults
// under one attribute name racing on map order: the first declared wins,
// on every decode.
func TestFirstDeclaredDefaultWins(t *testing.T) {
	src := `<graphml>
  <key id="d0" for="node" attr.name="w" attr.type="double"><default>1</default></key>
  <key id="d1" for="all" attr.name="w" attr.type="double"><default>5</default></key>
  <graph edgedefault="undirected"><node id="a"/></graph>
</graphml>`
	for i := 0; i < 200; i++ {
		g, err := DecodeString(src)
		if err != nil {
			t.Fatal(err)
		}
		if w, _ := g.Node(0).Attrs.Float("w"); w != 1 {
			t.Fatalf("decode %d: w = %v, want the first declared default 1", i, w)
		}
	}
}
