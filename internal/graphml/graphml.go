// Package graphml encodes and decodes graphs in the GraphML interchange
// format, the network representation NETEMBED adopts (paper §VI-A).
//
// The subset implemented is the GraphML structural layer used in practice
// by topology tools: a single <graph> element with edgedefault, <key>
// declarations carrying attr.name/attr.type (boolean, int, long, float,
// double, string) with optional <default> values, and <data> elements on
// nodes and edges. Typed attributes round-trip into graph.Attrs values.
//
// Decoding runs in two tiers. A one-pass scanner (scan.go) handles the
// closed subset Encode emits: an optional UTF-8 prolog, <graphml>, <key>
// without <default>, one <graph>, <node>, <edge> and <data>, quoted
// attributes and printable-ASCII character data with no entities. On
// anything else — comments, CDATA, entity or character references,
// namespace prefixes, DTDs, non-ASCII or control bytes, unknown elements —
// and on any check that would fail, it gives the document up and the
// encoding/xml reflection decoder runs instead. That decoder is the
// reference: every error message and every rejection is its own, and
// FuzzDecodeMatchesReference holds the two to identical graphs.
//
// A graph the scanner decodes is exact-sized: it records the document
// first and then builds the graph through graph.Build, so node, name and
// edge-index storage, edge pages, adjacency and every attribute bag are
// allocated once at their final size. Its names and string values are
// copied into one buffer per document; no decoded graph, from either
// decoder, aliases the text it came from.
//
// Encode is a direct writer (encode.go) whose output is byte-identical to
// the encoding/xml struct encoder it replaced; that encoder survives only
// in a test file, as the byte oracle of TestEncodeMatchesReference.
package graphml

import (
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"

	"netembed/internal/graph"
)

// xmlns is the GraphML namespace emitted by Encode.
const xmlns = "http://graphml.graphdrawing.org/xmlns"

type xmlGraphML struct {
	XMLName xml.Name   `xml:"graphml"`
	Xmlns   string     `xml:"xmlns,attr,omitempty"`
	Keys    []xmlKey   `xml:"key"`
	Graphs  []xmlGraph `xml:"graph"`
}

type xmlKey struct {
	ID       string `xml:"id,attr"`
	For      string `xml:"for,attr"`
	AttrName string `xml:"attr.name,attr"`
	AttrType string `xml:"attr.type,attr"`
	Default  string `xml:"default,omitempty"`
}

type xmlGraph struct {
	ID          string    `xml:"id,attr,omitempty"`
	EdgeDefault string    `xml:"edgedefault,attr"`
	Nodes       []xmlNode `xml:"node"`
	Edges       []xmlEdge `xml:"edge"`
}

type xmlNode struct {
	ID   string    `xml:"id,attr"`
	Data []xmlData `xml:"data"`
}

type xmlEdge struct {
	Source string    `xml:"source,attr"`
	Target string    `xml:"target,attr"`
	Data   []xmlData `xml:"data"`
}

type xmlData struct {
	Key   string `xml:"key,attr"`
	Value string `xml:",chardata"`
}

// Decode reads one GraphML document from r and returns its first graph.
func Decode(r io.Reader) (*graph.Graph, error) {
	doc, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("graphml: %w", err)
	}
	return DecodeString(string(doc))
}

// DecodeString decodes a GraphML document held in a string.
func DecodeString(s string) (*graph.Graph, error) {
	g, ok := scan(s)
	if !ok {
		return decodeXML(strings.NewReader(s))
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// parseValue converts the character data of one <data> element (or one
// <default>) under a key of type typ. A string value is a slice of raw:
// the scanner copies it before the graph keeps it, and encoding/xml hands
// decodeXML strings of its own.
func parseValue(typ, raw string) (graph.Value, bool) {
	raw = strings.TrimSpace(raw)
	switch typ {
	case "boolean":
		b, err := strconv.ParseBool(raw)
		return graph.BoolVal(b), err == nil
	case "int", "long", "float", "double":
		f, err := strconv.ParseFloat(raw, 64)
		return graph.Num(f), err == nil
	case "string", "":
		return graph.Str(raw), true
	}
	return graph.Value{}, false
}

// decodeXML is the encoding/xml decoder: the fallback for every document
// the scanner gives up, and the reference it is fuzzed against.
func decodeXML(r io.Reader) (*graph.Graph, error) {
	var doc xmlGraphML
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("graphml: %v", err)
	}
	if len(doc.Graphs) == 0 {
		return nil, fmt.Errorf("graphml: document contains no <graph>")
	}
	xg := doc.Graphs[0]

	type keyInfo struct {
		name   string
		typ    string
		target string // "node", "edge", "all"
		def    string
		hasDef bool
	}
	keys := make(map[string]keyInfo, len(doc.Keys))
	order := make([]string, 0, len(doc.Keys)) // key IDs, first declaration first
	for _, k := range doc.Keys {
		name := k.AttrName
		if name == "" {
			name = k.ID
		}
		target := k.For
		if target == "" {
			target = "all"
		}
		if _, redeclared := keys[k.ID]; !redeclared {
			order = append(order, k.ID)
		}
		keys[k.ID] = keyInfo{
			name:   name,
			typ:    strings.ToLower(k.AttrType),
			target: target,
			def:    k.Default,
			hasDef: strings.TrimSpace(k.Default) != "",
		}
	}

	parse := func(ki keyInfo, raw string) (graph.Value, error) {
		v, ok := parseValue(ki.typ, raw)
		if ok {
			return v, nil
		}
		raw = strings.TrimSpace(raw)
		switch ki.typ {
		case "boolean":
			return graph.Value{}, fmt.Errorf("graphml: bad boolean %q for key %q", raw, ki.name)
		case "int", "long", "float", "double":
			return graph.Value{}, fmt.Errorf("graphml: bad number %q for key %q", raw, ki.name)
		}
		return graph.Value{}, fmt.Errorf("graphml: unsupported attr.type %q", ki.typ)
	}

	collect := func(data []xmlData, target string) (graph.Attrs, error) {
		var attrs graph.Attrs
		for _, d := range data {
			ki, ok := keys[d.Key]
			if !ok {
				return nil, fmt.Errorf("graphml: <data> references undeclared key %q", d.Key)
			}
			v, err := parse(ki, d.Value)
			if err != nil {
				return nil, err
			}
			attrs = attrs.Set(ki.name, v)
		}
		// A declared default fills an attribute the element left unset;
		// defaults apply in declaration order, so the first one declared
		// for a name wins.
		for _, id := range order {
			ki := keys[id]
			if !ki.hasDef || attrs.Has(ki.name) {
				continue
			}
			if ki.target != target && ki.target != "all" {
				continue
			}
			v, err := parse(ki, ki.def)
			if err != nil {
				return nil, err
			}
			attrs = attrs.Set(ki.name, v)
		}
		return attrs, nil
	}

	directed := false
	switch xg.EdgeDefault {
	case "directed":
		directed = true
	case "undirected", "":
	default:
		return nil, fmt.Errorf("graphml: unsupported edgedefault %q", xg.EdgeDefault)
	}

	g := graph.New(directed)
	ids := make(map[string]graph.NodeID, len(xg.Nodes))
	for _, xn := range xg.Nodes {
		if xn.ID == "" {
			return nil, fmt.Errorf("graphml: node without id")
		}
		if _, dup := ids[xn.ID]; dup {
			return nil, fmt.Errorf("graphml: duplicate node id %q", xn.ID)
		}
		attrs, err := collect(xn.Data, "node")
		if err != nil {
			return nil, err
		}
		ids[xn.ID] = g.AddNode(xn.ID, attrs)
	}
	for _, xe := range xg.Edges {
		u, ok := ids[xe.Source]
		if !ok {
			return nil, fmt.Errorf("graphml: edge references unknown node %q", xe.Source)
		}
		v, ok := ids[xe.Target]
		if !ok {
			return nil, fmt.Errorf("graphml: edge references unknown node %q", xe.Target)
		}
		attrs, err := collect(xe.Data, "edge")
		if err != nil {
			return nil, err
		}
		if _, err := g.AddEdge(u, v, attrs); err != nil {
			return nil, fmt.Errorf("graphml: edge %q->%q: %v", xe.Source, xe.Target, err)
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
