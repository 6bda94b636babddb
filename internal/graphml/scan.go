package graphml

import (
	"strings"

	"netembed/internal/graph"
)

// scan decodes s in one pass if it lies inside the subset Encode emits
// (see the package doc) and every check passes: keys resolve, numbers
// parse, node IDs are unique, endpoints exist, and no edge is a duplicate
// or a self-loop. Otherwise it reports false, having reported nothing
// else: DecodeString then runs decodeXML, which owns every message.
//
// The pass records the document's nodes, edges and values with every
// string still pointing into s; build then makes the graph with each
// piece of storage allocated once at its final size, the strings copied
// into one buffer. Nodes and edges keep document order. Since an edge may
// only name nodes declared before it, that gives the node IDs, edge IDs
// and adjacency order decodeXML gives by adding every node first.
func scan(s string) (*graph.Graph, bool) {
	sc := scanner{s: s}
	sc.size()
	if !sc.prolog() {
		return nil, false
	}
	if name, empty, ok := sc.startTag(); !ok || name != "graphml" || empty {
		return nil, false
	}
	for {
		sc.space()
		if strings.HasPrefix(sc.s[sc.i:], "</") {
			if !sc.endTag("graphml") || !sc.seenGraph {
				return nil, false
			}
			sc.space()
			if sc.i != len(sc.s) {
				return nil, false
			}
			return sc.build()
		}
		name, empty, ok := sc.startTag()
		switch {
		case !ok || sc.seenGraph: // keys follow the one graph, or a second graph
			return nil, false
		case name == "key":
			ok = sc.key(empty)
		case name == "graph":
			ok = sc.graph(empty)
		default:
			ok = false
		}
		if !ok {
			return nil, false
		}
	}
}

// maxTagAttrs bounds the attributes one start tag may carry; Encode writes
// at most four.
const maxTagAttrs = 8

type tagAttr struct{ name, value string }

type scanKey struct{ name, typ string }

// datum is one <data> value. A string value still points into the
// document until build copies it.
type datum struct {
	key int32 // index into scanner.keyList
	v   graph.Value
}

// element is one <node> or <edge> in document order; its values are
// data[end of the element before it : end].
type element struct {
	edge bool
	id   int32 // index into scanner.nodes or scanner.edges
	end  int32
}

type scanner struct {
	s         string
	i         int
	directed  bool
	seenGraph bool
	keys      map[string]int32 // key ID → index into keyList
	keyList   []scanKey
	ids       map[string]graph.NodeID // node ID → NodeID
	nodes     []graph.Node            // names point into s until build
	edges     []graph.Edge
	elems     []element
	data      []datum
	text      int // bytes build copies: key names, node names, string values
	attrs     [maxTagAttrs]tagAttr
	nattr     int // attributes of the last start tag
}

// size allocates the scanner's lists at the number of start tags of each
// kind in s. Inside the subset every '<' followed by a name opens
// <graphml>, <key>, <graph>, <node>, <edge> or <data>, so a document the
// scanner takes fills each list exactly; any other document is given up.
func (sc *scanner) size() {
	var keys, nodes, edges, data int
	for rest := sc.s; ; {
		j := strings.IndexByte(rest, '<')
		if j < 0 {
			break
		}
		rest = rest[j+1:]
		switch {
		case strings.HasPrefix(rest, "data"):
			data++
		case strings.HasPrefix(rest, "edge"):
			edges++
		case strings.HasPrefix(rest, "node"):
			nodes++
		case strings.HasPrefix(rest, "key"):
			keys++
		}
	}
	sc.keys = make(map[string]int32, keys)
	sc.keyList = make([]scanKey, 0, keys)
	sc.ids = make(map[string]graph.NodeID, nodes)
	sc.nodes = make([]graph.Node, 0, nodes)
	sc.edges = make([]graph.Edge, 0, edges)
	sc.elems = make([]element, 0, nodes+edges)
	sc.data = make([]datum, 0, data)
}

// prologs are the XML declarations the scanner accepts: version 1.0, in
// UTF-8 if an encoding is named at all.
var prologs = [...]string{
	`<?xml version="1.0" encoding="UTF-8"?>`,
	`<?xml version="1.0" encoding="utf-8"?>`,
	`<?xml version="1.0"?>`,
}

func (sc *scanner) prolog() bool {
	sc.space()
	if !strings.HasPrefix(sc.s[sc.i:], "<?") {
		return true
	}
	for _, p := range prologs {
		if strings.HasPrefix(sc.s[sc.i:], p) {
			sc.i += len(p)
			sc.space()
			return true
		}
	}
	return false
}

// space skips blanks. A carriage return is not one: encoding/xml rewrites
// it, so a document holding one is left to it.
func (sc *scanner) space() int {
	start := sc.i
	for sc.i < len(sc.s) && (sc.s[sc.i] == ' ' || sc.s[sc.i] == '\t' || sc.s[sc.i] == '\n') {
		sc.i++
	}
	return sc.i - start
}

func nameStart(c byte) bool { return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_' }

// nameByte admits what encoding/xml does in a name except ':', so a
// namespace prefix always falls back.
func nameByte(c byte) bool {
	return nameStart(c) || '0' <= c && c <= '9' || c == '.' || c == '-'
}

func (sc *scanner) name() (string, bool) {
	start := sc.i
	if sc.i == len(sc.s) || !nameStart(sc.s[sc.i]) {
		return "", false
	}
	for sc.i < len(sc.s) && nameByte(sc.s[sc.i]) {
		sc.i++
	}
	return sc.s[start:sc.i], true
}

// startTag reads the start tag at sc.i into its name and sc.attrs, and
// reports whether it closes itself. Comments, processing instructions,
// CDATA, DTDs and end tags all fail the name check.
func (sc *scanner) startTag() (name string, empty, ok bool) {
	if sc.i == len(sc.s) || sc.s[sc.i] != '<' {
		return "", false, false
	}
	sc.i++
	if name, ok = sc.name(); !ok {
		return "", false, false
	}
	sc.nattr = 0
	for {
		sep := sc.space()
		if strings.HasPrefix(sc.s[sc.i:], "/>") {
			sc.i += 2
			return name, true, true
		}
		if sc.i < len(sc.s) && sc.s[sc.i] == '>' {
			sc.i++
			return name, false, true
		}
		if sep == 0 || sc.nattr == maxTagAttrs || !sc.attr() {
			return "", false, false
		}
	}
}

// attr reads one name="value" pair (either quote) into sc.attrs. Values
// hold printable ASCII, tabs and newlines, and no '<' or '&'.
func (sc *scanner) attr() bool {
	name, ok := sc.name()
	if !ok {
		return false
	}
	for _, a := range sc.attrs[:sc.nattr] {
		if a.name == name {
			return false
		}
	}
	sc.space()
	if sc.i == len(sc.s) || sc.s[sc.i] != '=' {
		return false
	}
	sc.i++
	sc.space()
	if sc.i == len(sc.s) || sc.s[sc.i] != '"' && sc.s[sc.i] != '\'' {
		return false
	}
	quote := sc.s[sc.i]
	sc.i++
	start := sc.i
	for ; sc.i < len(sc.s) && sc.s[sc.i] != quote; sc.i++ {
		if !plain(sc.s[sc.i]) {
			return false
		}
	}
	if sc.i == len(sc.s) {
		return false
	}
	sc.attrs[sc.nattr] = tagAttr{name, sc.s[start:sc.i]}
	sc.nattr++
	sc.i++
	return true
}

// plain reports whether c may appear literally in the subset's character
// data and attribute values.
func plain(c byte) bool {
	return ' ' <= c && c <= '~' && c != '<' && c != '&' && c != '>' || c == '\t' || c == '\n'
}

// get returns the named attribute of the last start tag, "" if absent
// (encoding/xml does not tell the two apart either).
func (sc *scanner) get(name string) string {
	for _, a := range sc.attrs[:sc.nattr] {
		if a.name == name {
			return a.value
		}
	}
	return ""
}

// endTag consumes "</name>" with optional blanks before the '>'.
func (sc *scanner) endTag(name string) bool {
	rest := sc.s[sc.i:]
	if !strings.HasPrefix(rest, "</") || !strings.HasPrefix(rest[2:], name) {
		return false
	}
	sc.i += 2 + len(name)
	sc.space()
	if sc.i == len(sc.s) || sc.s[sc.i] != '>' {
		return false
	}
	sc.i++
	return true
}

// key records one <key> declaration. A <default> child or a repeated ID
// is outside the subset; an attr.type parseValue does not know fails the
// first <data> that uses it.
func (sc *scanner) key(empty bool) bool {
	id, name, typ := sc.get("id"), sc.get("attr.name"), strings.ToLower(sc.get("attr.type"))
	if name == "" {
		name = id
	}
	if _, dup := sc.keys[id]; dup || id == "" {
		return false
	}
	sc.keys[id] = int32(len(sc.keyList))
	sc.keyList = append(sc.keyList, scanKey{name: name, typ: typ})
	sc.text += len(name)
	if empty {
		return true
	}
	sc.space()
	return sc.endTag("key")
}

func (sc *scanner) graph(empty bool) bool {
	switch sc.get("edgedefault") {
	case "directed":
		sc.directed = true
	case "undirected", "":
	default:
		return false
	}
	sc.seenGraph = true
	if empty {
		return true
	}
	for {
		sc.space()
		if strings.HasPrefix(sc.s[sc.i:], "</") {
			return sc.endTag("graph")
		}
		name, empty, ok := sc.startTag()
		switch {
		case !ok:
			return false
		case name == "node":
			ok = sc.node(empty)
		case name == "edge":
			ok = sc.edge(empty)
		default:
			ok = false
		}
		if !ok {
			return false
		}
	}
}

func (sc *scanner) node(empty bool) bool {
	id := sc.get("id")
	if _, dup := sc.ids[id]; dup || id == "" {
		return false
	}
	n := graph.NodeID(len(sc.nodes))
	sc.ids[id] = n
	sc.nodes = append(sc.nodes, graph.Node{Name: id})
	sc.text += len(id)
	return sc.values(element{id: n}, "node", empty)
}

func (sc *scanner) edge(empty bool) bool {
	u, okU := sc.ids[sc.get("source")]
	v, okV := sc.ids[sc.get("target")]
	if !okU || !okV {
		return false
	}
	e := int32(len(sc.edges))
	sc.edges = append(sc.edges, graph.Edge{From: u, To: v})
	return sc.values(element{edge: true, id: e}, "edge", empty)
}

// values reads the <data> children of the element parent up to its end
// tag and records el as ending after them.
func (sc *scanner) values(el element, parent string, empty bool) bool {
	for !empty {
		sc.space()
		if strings.HasPrefix(sc.s[sc.i:], "</") {
			if !sc.endTag(parent) {
				return false
			}
			break
		}
		name, empty, ok := sc.startTag()
		if !ok || name != "data" {
			return false
		}
		k, ok := sc.keys[sc.get("key")]
		if !ok {
			return false
		}
		raw := ""
		if !empty {
			start := sc.i
			for sc.i < len(sc.s) && plain(sc.s[sc.i]) {
				sc.i++
			}
			raw = sc.s[start:sc.i]
			if !sc.endTag("data") {
				return false
			}
		}
		v, ok := parseValue(sc.keyList[k].typ, raw)
		if !ok {
			return false
		}
		if text, ok := v.Text(); ok {
			sc.text += len(text)
		}
		sc.data = append(sc.data, datum{key: k, v: v})
	}
	el.end = int32(len(sc.data))
	sc.elems = append(sc.elems, el)
	return true
}

// build makes the graph the scan recorded. Every string it keeps is
// copied into one buffer of sc.text bytes, so the graph never aliases the
// document; every attribute bag is made at the number of values its
// element carries (later values overwrite earlier ones under one name).
func (sc *scanner) build() (*graph.Graph, bool) {
	var sb strings.Builder
	sb.Grow(sc.text)
	for _, k := range sc.keyList {
		sb.WriteString(k.name)
	}
	for _, n := range sc.nodes {
		sb.WriteString(n.Name)
	}
	for _, d := range sc.data {
		if text, ok := d.v.Text(); ok {
			sb.WriteString(text)
		}
	}
	buf, off := sb.String(), 0
	copied := func(s string) string {
		off += len(s)
		return buf[off-len(s) : off]
	}
	for i := range sc.keyList {
		sc.keyList[i].name = copied(sc.keyList[i].name)
	}
	for i := range sc.nodes {
		sc.nodes[i].Name = copied(sc.nodes[i].Name)
	}
	for i := range sc.data {
		if text, ok := sc.data[i].v.Text(); ok {
			sc.data[i].v = graph.Str(copied(text))
		}
	}
	start := int32(0)
	for _, el := range sc.elems {
		if el.end == start {
			continue
		}
		attrs := make(graph.Attrs, el.end-start)
		for _, d := range sc.data[start:el.end] {
			attrs[sc.keyList[d.key].name] = d.v
		}
		if el.edge {
			sc.edges[el.id].Attrs = attrs
		} else {
			sc.nodes[el.id].Attrs = attrs
		}
		start = el.end
	}
	g, err := graph.Build(sc.directed, sc.nodes, sc.edges)
	return g, err == nil
}
