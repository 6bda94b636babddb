package graphml

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"

	"netembed/internal/graph"
)

// encodeXML is the encoding/xml struct encoder Encode replaced, kept as
// the byte oracle: Encode must reproduce its output exactly
// (TestEncodeMatchesReference).
func encodeXML(w io.Writer, g *graph.Graph) error {
	type keySlot struct {
		id   string
		kind graph.Kind
	}
	nodeKeys := make(map[string]*keySlot)
	edgeKeys := make(map[string]*keySlot)

	register := func(m map[string]*keySlot, attrs graph.Attrs) error {
		for name, v := range attrs {
			if v.IsMissing() {
				continue
			}
			if slot, ok := m[name]; ok {
				if slot.kind != v.Kind() {
					return fmt.Errorf("graphml: attribute %q has mixed kinds %v and %v", name, slot.kind, v.Kind())
				}
				continue
			}
			m[name] = &keySlot{kind: v.Kind()}
		}
		return nil
	}
	for i := 0; i < g.NumNodes(); i++ {
		if err := register(nodeKeys, g.Node(graph.NodeID(i)).Attrs); err != nil {
			return err
		}
	}
	for i := 0; i < g.NumEdges(); i++ {
		if err := register(edgeKeys, g.Edge(graph.EdgeID(i)).Attrs); err != nil {
			return err
		}
	}
	assignIDs := func(m map[string]*keySlot, prefix string) {
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		for i, name := range names {
			m[name].id = fmt.Sprintf("%s%d", prefix, i)
		}
	}
	assignIDs(nodeKeys, "dn")
	assignIDs(edgeKeys, "de")

	typeName := func(k graph.Kind) string {
		switch k {
		case graph.Number:
			return "double"
		case graph.Bool:
			return "boolean"
		default:
			return "string"
		}
	}

	doc := xmlGraphML{Xmlns: xmlns}
	appendKeys := func(m map[string]*keySlot, target string) {
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			doc.Keys = append(doc.Keys, xmlKey{
				ID:       m[name].id,
				For:      target,
				AttrName: name,
				AttrType: typeName(m[name].kind),
			})
		}
	}
	appendKeys(nodeKeys, "node")
	appendKeys(edgeKeys, "edge")

	dataFor := func(m map[string]*keySlot, attrs graph.Attrs) []xmlData {
		names := make([]string, 0, len(attrs))
		for name, v := range attrs {
			if !v.IsMissing() {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		out := make([]xmlData, 0, len(names))
		for _, name := range names {
			out = append(out, xmlData{Key: m[name].id, Value: attrs.Get(name).String()})
		}
		return out
	}

	edgeDefault := "undirected"
	if g.Directed() {
		edgeDefault = "directed"
	}
	xg := xmlGraph{ID: "G", EdgeDefault: edgeDefault}
	for i := 0; i < g.NumNodes(); i++ {
		n := g.Node(graph.NodeID(i))
		xg.Nodes = append(xg.Nodes, xmlNode{ID: n.Name, Data: dataFor(nodeKeys, n.Attrs)})
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(graph.EdgeID(i))
		xg.Edges = append(xg.Edges, xmlEdge{
			Source: g.Node(e.From).Name,
			Target: g.Node(e.To).Name,
			Data:   dataFor(edgeKeys, e.Attrs),
		})
	}
	doc.Graphs = []xmlGraph{xg}

	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("graphml: %v", err)
	}
	_, err := io.WriteString(w, "\n")
	return err
}

func encodeXMLString(g *graph.Graph) (string, error) {
	var sb strings.Builder
	err := encodeXML(&sb, g)
	return sb.String(), err
}
