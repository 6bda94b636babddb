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
// Nodes and edges are added in document order. Since an edge may only
// name nodes declared before it, that gives the node IDs, edge IDs and
// adjacency order decodeXML gives by adding every node first.
func scan(s string) (*graph.Graph, bool) {
	sc := scanner{s: s}
	if !sc.prolog() {
		return nil, false
	}
	if name, empty, ok := sc.startTag(); !ok || name != "graphml" || empty {
		return nil, false
	}
	for {
		sc.space()
		if strings.HasPrefix(sc.s[sc.i:], "</") {
			if !sc.endTag("graphml") || sc.g == nil {
				return nil, false
			}
			sc.space()
			return sc.g, sc.i == len(sc.s)
		}
		name, empty, ok := sc.startTag()
		switch {
		case !ok || sc.g != nil: // keys follow the one graph, or a second graph
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

type scanner struct {
	s     string
	i     int
	g     *graph.Graph
	keys  map[string]scanKey // by key ID; IDs are not copied, names are
	attrs [maxTagAttrs]tagAttr
	nattr int // attributes of the last start tag
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
	if sc.keys == nil {
		sc.keys = make(map[string]scanKey)
	}
	if _, dup := sc.keys[id]; dup || id == "" {
		return false
	}
	sc.keys[id] = scanKey{name: strings.Clone(name), typ: typ}
	if empty {
		return true
	}
	sc.space()
	return sc.endTag("key")
}

func (sc *scanner) graph(empty bool) bool {
	switch sc.get("edgedefault") {
	case "directed":
		sc.g = graph.New(true)
	case "undirected", "":
		sc.g = graph.New(false)
	default:
		return false
	}
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
	if _, dup := sc.g.NodeByName(id); dup || id == "" {
		return false
	}
	attrs, ok := sc.data("node", empty)
	if !ok {
		return false
	}
	sc.g.AddNode(strings.Clone(id), attrs)
	return true
}

func (sc *scanner) edge(empty bool) bool {
	u, okU := sc.g.NodeByName(sc.get("source"))
	v, okV := sc.g.NodeByName(sc.get("target"))
	if !okU || !okV {
		return false
	}
	attrs, ok := sc.data("edge", empty)
	if !ok {
		return false
	}
	_, err := sc.g.AddEdge(u, v, attrs)
	return err == nil
}

// data reads the <data> children of the element parent up to its end
// tag. Later values overwrite earlier ones under the same name.
func (sc *scanner) data(parent string, empty bool) (graph.Attrs, bool) {
	var attrs graph.Attrs
	if empty {
		return attrs, true
	}
	for {
		sc.space()
		if strings.HasPrefix(sc.s[sc.i:], "</") {
			return attrs, sc.endTag(parent)
		}
		name, empty, ok := sc.startTag()
		if !ok || name != "data" {
			return nil, false
		}
		k, ok := sc.keys[sc.get("key")]
		if !ok {
			return nil, false
		}
		raw := ""
		if !empty {
			start := sc.i
			for sc.i < len(sc.s) && plain(sc.s[sc.i]) {
				sc.i++
			}
			raw = sc.s[start:sc.i]
			if !sc.endTag("data") {
				return nil, false
			}
		}
		v, ok := parseValue(k.typ, raw)
		if !ok {
			return nil, false
		}
		attrs = attrs.Set(k.name, v)
	}
}
