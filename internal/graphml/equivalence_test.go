package graphml

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"netembed/internal/graph"
	"netembed/internal/topo"
	"netembed/internal/trace"
)

// generatedGraphs are the shapes the service actually exchanges: a small
// PlanetLab host, novel_constrained-style planted queries (8 nodes, 12
// edges, ±10% delay windows), the proof_hard skewed ring, and graphs
// whose names and values need every kind of escaping.
func generatedGraphs(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	out := map[string]*graph.Graph{}
	host := trace.SyntheticPlanetLab(trace.Config{Sites: 12}, rand.New(rand.NewSource(1)))
	out["planetlab12"] = host
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3; i++ {
		q, _, err := topo.Subgraph(host, 8, 12, rng)
		if err != nil {
			t.Fatal(err)
		}
		topo.WidenDelayWindows(q, 0.1)
		out[fmt.Sprintf("novel%d", i)] = q
	}
	ringQ, ringH := topo.SkewedRing(3, 2, 5)
	out["skewedring_query"] = ringQ
	out["skewedring_host"] = ringH
	for seed := int64(0); seed < 4; seed++ {
		out[fmt.Sprintf("random%d", seed)] = buildRandomGraph(seed)
	}
	out["escapes"] = escapingGraph()
	out["empty"] = graph.NewDirected()
	return out
}

// escapingGraph carries names and values with markup characters, the
// whitespace Encode must escape, non-ASCII text and invalid UTF-8.
func escapingGraph() *graph.Graph {
	g := graph.NewUndirected()
	odd := []string{`q"uote`, "ap'os", "a&b", "<tag>", "tab\there", "new\nline", "cr\rhere", "naïve", "bad\xffutf8", "\x01ctl", "  padded  "}
	ids := make([]graph.NodeID, len(odd))
	for i, s := range odd {
		ids[i] = g.AddNode(s, graph.Attrs{}.SetStr(s, s).SetNum("n", float64(i)*0.1).SetBool("b", i%2 == 0))
	}
	for i := 1; i < len(ids); i++ {
		g.MustAddEdge(ids[i-1], ids[i], graph.Attrs{}.SetStr("label", odd[i]).SetNum("w", math.Inf(1)))
	}
	return g
}

// TestEncodeMatchesReference holds the direct writer to the encoding/xml
// struct encoder it replaced, byte for byte, including the full
// 296-site host.
func TestEncodeMatchesReference(t *testing.T) {
	graphs := generatedGraphs(t)
	graphs["planetlab296"] = trace.SyntheticPlanetLab(trace.Config{Sites: 296}, rand.New(rand.NewSource(1)))
	for name, g := range graphs {
		got, err := EncodeString(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := encodeXMLString(g)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if got != want {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			lo := max(0, i-80)
			t.Fatalf("%s: Encode differs from the reference at byte %d:\n got …%q\nwant …%q",
				name, i, got[lo:min(len(got), i+80)], want[lo:min(len(want), i+80)])
		}
		var sb strings.Builder
		if err := Encode(&sb, g); err != nil || sb.String() != want {
			t.Fatalf("%s: Encode(w) differs from EncodeString (err %v)", name, err)
		}
	}

	// The one encoder error: a name carrying two kinds on one target.
	g := graph.NewUndirected()
	g.AddNode("a", graph.Attrs{}.SetNum("x", 1))
	g.AddNode("b", graph.Attrs{}.SetStr("x", "one"))
	_, err := EncodeString(g)
	_, want := encodeXMLString(g)
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("mixed kinds: got %v, reference %v", err, want)
	}
}

// decodeSeeds seed both fuzz targets: FuzzDecode's original seven, then
// documents at the edges of the scanner's subset, each of which must
// decode exactly as the reference does, whichever path takes it.
var decodeSeeds = []string{
	sample,
	`<graphml><graph edgedefault="undirected"><node id="a"/></graph></graphml>`,
	`<graphml><graph edgedefault="directed"><node id="a"/><node id="b"/><edge source="a" target="b"/></graph></graphml>`,
	`<graphml><key id="k" for="edge" attr.name="w" attr.type="double"><default>1</default></key><graph edgedefault="undirected"/></graphml>`,
	`not xml at all`,
	`<graphml>`,
	``,
	`<?xml version="1.0" encoding="ISO-8859-1"?><graphml><graph/></graphml>`,
	`<?xml version="1.1"?><graphml><graph/></graphml>`,
	`<!-- c --><graphml><graph><node id="a"/></graph></graphml>`,
	`<graphml><graph><node id="a&amp;b"/></graph></graphml>`,
	`<graphml><key id="k" attr.name="s" attr.type="string"/><graph><node id="a"><data key="k"><![CDATA[x<y]]></data></node></graph></graphml>`,
	`<graphml><key id="k" attr.name="s" attr.type="string"/><graph><node id="a"><data key="k">a&#xA;b</data></node></graph></graphml>`,
	"<graphml><key id=\"k\" attr.name=\"s\"/><graph><node id=\"a\"><data key=\"k\">a\r\nb</data></node></graph></graphml>",
	"<graphml><key id=\"k\" attr.name=\"s\"/><graph><node id=\"a\"><data key=\"k\">\tx y\n</data></node></graph></graphml>",
	"<graphml><graph><node id='a\tb'/><node id=\"c\nd\"/></graph></graphml>",
	`<graphml xmlns:y="urn:y"><graph><y:node id="a"/></graph></graphml>`,
	`<graphml><graph><node id="a"/></graph><graph><node id="b"/></graph></graphml>`,
	`<graphml><graph><node id="a"/></graph></graphml>trailing`,
	`<graphml><graph><edge source="a" target="b"/><node id="a"/><node id="b"/></graph></graphml>`,
	`<graphml><graph><node id="a"/><node id="b"/><edge source="a" target="b"/><node id="c"/><edge source="c" target="a"/></graph></graphml>`,
	`<graphml><graph><node id="a"/><node id="b"/><edge source="a" target="b"/><edge source="b" target="a"/></graph></graphml>`,
	`<graphml><graph edgedefault="directed"><node id="a"/><node id="b"/><edge source="a" target="b"/><edge source="b" target="a"/></graph></graphml>`,
	`<graphml><key id="k" attr.name="x" attr.type="INT"/><graph><node id="a"><data key="k"> 0x1p-2 </data><data key="k">NaN</data></node></graph></graphml>`,
	`<graphml><key id="k" attr.name="x" attr.type="boolean"/><key id="k" attr.name="y"/><graph><node id="a"><data key="k">T</data></node></graph></graphml>`,
	`<graphml><key id="k" attr.type="double"/><graph><node id="a"><data key="k"/></node></graph></graphml>`,
	`<graphml><graph><node id="a" id="b"/></graph></graphml>`,
	`<graphml><graph><node id = "a" extra="1"></node ></graph ></graphml >`,
	`<graphml><graph><node id="a"><desc>x</desc></node></graph></graphml>`,
	`<graphml><graph><data key="k">1</data></graph></graphml>`,
	`<graphml><graph></graph><key id="k"/></graphml>`,
	`<graphml><graph><node id="a">text</node></graph></graphml>`,
	`<graphml><graph><node id="x>y"/></graph></graphml>`,
	"<graphml><graph><node id=\"caf\xc3\xa9\"/></graph></graphml>",
	"<graphml><graph><node id=\"a\x01\"/></graph></graphml>",
	`<graphml/>`,
	`<GraphML><graph/></GraphML>`,
	"\n  <?xml version=\"1.0\" encoding=\"utf-8\"?>\n<graphml><graph/></graphml>\n",
	`<?xml version="1.0"?><?xml version="1.0"?><graphml><graph/></graphml>`,
	`<?xml version="1.0" standalone="yes"?><graphml><graph/></graphml>`,
	`<graphml><key id="k" attr.name="c" attr.type="complex"/><graph><node id="a"/></graph></graphml>`,
	`<graphml><key id="k" attr.name="c" attr.type="complex"/><graph><node id="a"><data key="k">1</data></node></graph></graphml>`,
}

// sameGraph describes the first difference between two decoded graphs:
// orientation, node names and IDs, edge IDs and endpoints, adjacency
// order, and attribute bags down to the bits of each number.
func sameGraph(a, b *graph.Graph) string {
	if a.Directed() != b.Directed() || a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return fmt.Sprintf("shape %v vs %v", a, b)
	}
	for i := 0; i < a.NumNodes(); i++ {
		u := graph.NodeID(i)
		na, nb := a.Node(u), b.Node(u)
		if na.Name != nb.Name {
			return fmt.Sprintf("node %d named %q vs %q", i, na.Name, nb.Name)
		}
		if d := sameAttrs(na.Attrs, nb.Attrs); d != "" {
			return fmt.Sprintf("node %q: %s", na.Name, d)
		}
		if fmt.Sprint(a.Arcs(u), a.InArcs(u)) != fmt.Sprint(b.Arcs(u), b.InArcs(u)) {
			return fmt.Sprintf("node %q adjacency %v/%v vs %v/%v", na.Name, a.Arcs(u), a.InArcs(u), b.Arcs(u), b.InArcs(u))
		}
	}
	for i := 0; i < a.NumEdges(); i++ {
		ea, eb := a.Edge(graph.EdgeID(i)), b.Edge(graph.EdgeID(i))
		if ea.From != eb.From || ea.To != eb.To {
			return fmt.Sprintf("edge %d joins %d-%d vs %d-%d", i, ea.From, ea.To, eb.From, eb.To)
		}
		if d := sameAttrs(ea.Attrs, eb.Attrs); d != "" {
			return fmt.Sprintf("edge %d: %s", i, d)
		}
	}
	return ""
}

func sameAttrs(a, b graph.Attrs) string {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return fmt.Sprintf("bags %v vs %v", a, b)
	}
	for name, va := range a {
		vb, ok := b[name]
		fa, _ := va.Float()
		fb, _ := vb.Float()
		sa, _ := va.Text()
		sb, _ := vb.Text()
		if !ok || va.Kind() != vb.Kind() || math.Float64bits(fa) != math.Float64bits(fb) || sa != sb {
			return fmt.Sprintf("%q = %#v vs %#v", name, va, vb)
		}
	}
	return ""
}

// checkDecodeMatchesReference decodes src both ways and fails on any
// difference: both must reject it with the same message, or both must
// return the same graph.
func checkDecodeMatchesReference(t *testing.T, src string) {
	t.Helper()
	got, err := DecodeString(src)
	want, wantErr := decodeXML(strings.NewReader(src))
	switch {
	case err != nil || wantErr != nil:
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("errors differ: got %v, reference %v\n%q", err, wantErr, src)
		}
	default:
		if d := sameGraph(got, want); d != "" {
			t.Fatalf("graphs differ: %s\n%q", d, src)
		}
	}
}

// FuzzDecodeMatchesReference holds Decode — the one-pass scanner with its
// fallback — to the encoding/xml reference on every input.
func FuzzDecodeMatchesReference(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add(s)
	}
	for _, g := range generatedGraphs(f) {
		text, err := EncodeString(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(text)
	}
	f.Fuzz(checkDecodeMatchesReference)
}

// TestScannerTakesEncodeOutput pins that the fast path is the one taken
// for everything Encode writes except what needs escaping, so the
// equivalence above is not vacuous.
func TestScannerTakesEncodeOutput(t *testing.T) {
	for name, g := range generatedGraphs(t) {
		text, err := EncodeString(g)
		if err != nil {
			t.Fatal(err)
		}
		_, ok := scan(text)
		if ok == (name == "escapes") {
			t.Errorf("%s: scanner took it = %v", name, ok)
		}
	}
}
