package graphml

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"netembed/internal/graph"
)

// Encode writes g to w as a GraphML document. Attribute keys are declared
// per target (node/edge) with types inferred from the values; mixing types
// under one attribute name on the same target is rejected. Key IDs are
// canonical: attribute names are collected first and IDs assigned in
// sorted-name order (dn0, dn1, … for nodes; de0, de1, … for edges), so
// equal graphs always serialize to identical bytes — golden files and
// fingerprints over the encoding are stable across runs.
//
// The layout is the encoding/xml struct encoder's under a two-space
// indent, byte for byte: elements without children close on their own
// line's end ("<node id=\"c\"></node>"), and attribute values and
// character data are escaped as xml.EscapeText escapes them.
func Encode(w io.Writer, g *graph.Graph) error {
	var sb strings.Builder
	if err := write(&sb, g); err != nil {
		return err
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// EncodeString renders g as a GraphML document string.
func EncodeString(g *graph.Graph) (string, error) {
	var sb strings.Builder
	if err := write(&sb, g); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// keySlot is one declared key: its attribute name and value kind. Its
// index in its target's sorted list is the number in its ID.
type keySlot struct {
	name string
	kind graph.Kind
}

// keySet collects the attribute names of one target (node or edge),
// sorted by name as they are registered: map iteration order must never
// leak into the document.
type keySet struct {
	prefix string // "dn" or "de"
	slots  []keySlot
	values int // non-missing values seen, to size the output
}

// register adds the bag's names. keySet travels by value so that slots
// may stay in the caller's stack array.
func (ks keySet) register(attrs graph.Attrs) (keySet, error) {
	for name, v := range attrs {
		if v.IsMissing() {
			continue
		}
		ks.values++
		i, found := ks.find(name)
		if !found {
			ks.slots = slices.Insert(ks.slots, i, keySlot{name: name, kind: v.Kind()})
		} else if ks.slots[i].kind != v.Kind() {
			return ks, fmt.Errorf("graphml: attribute %q has mixed kinds %v and %v", name, ks.slots[i].kind, v.Kind())
		}
	}
	return ks, nil
}

// find returns the index of name's slot, or where it would be inserted.
func (ks keySet) find(name string) (int, bool) {
	return slices.BinarySearchFunc(ks.slots, name, func(k keySlot, name string) int {
		return strings.Compare(k.name, name)
	})
}

// maxStackKeys is how many keys per target, and values per element, the
// writer holds without a heap allocation; more only cost one.
const maxStackKeys = 16

func write(sb *strings.Builder, g *graph.Graph) error {
	var nodeSlots, edgeSlots [maxStackKeys]keySlot
	nodeKeys := keySet{prefix: "dn", slots: nodeSlots[:0]}
	edgeKeys := keySet{prefix: "de", slots: edgeSlots[:0]}
	var err error
	for i := 0; i < g.NumNodes(); i++ {
		if nodeKeys, err = nodeKeys.register(g.Node(graph.NodeID(i)).Attrs); err != nil {
			return err
		}
	}
	for i := 0; i < g.NumEdges(); i++ {
		if edgeKeys, err = edgeKeys.register(g.Edge(graph.EdgeID(i)).Attrs); err != nil {
			return err
		}
	}

	w := writer{sb: sb}
	sb.Grow(256 + 64*(len(nodeKeys.slots)+len(edgeKeys.slots)) + 40*(g.NumNodes()+g.NumEdges()) +
		48*(nodeKeys.values+edgeKeys.values))
	sb.WriteString(`<?xml version="1.0" encoding="UTF-8"?>` + "\n")
	sb.WriteString(`<graphml xmlns="` + xmlns + `">`)
	w.keys(nodeKeys, "node")
	w.keys(edgeKeys, "edge")
	edgeDefault := "undirected"
	if g.Directed() {
		edgeDefault = "directed"
	}
	sb.WriteString("\n  <graph id=\"G\" edgedefault=\"")
	sb.WriteString(edgeDefault)
	sb.WriteString(`">`)
	for i := 0; i < g.NumNodes(); i++ {
		n := g.Node(graph.NodeID(i))
		sb.WriteString("\n    <node id=\"")
		escape(sb, n.Name)
		sb.WriteString(`">`)
		w.data(nodeKeys, n.Attrs, "node")
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(graph.EdgeID(i))
		sb.WriteString("\n    <edge source=\"")
		escape(sb, g.Node(e.From).Name)
		sb.WriteString(`" target="`)
		escape(sb, g.Node(e.To).Name)
		sb.WriteString(`">`)
		w.data(edgeKeys, e.Attrs, "edge")
	}
	if g.NumNodes()+g.NumEdges() > 0 {
		sb.WriteString("\n  ")
	}
	sb.WriteString("</graph>\n</graphml>\n")
	return nil
}

// writer holds the scratch space reused across elements.
type writer struct {
	sb  *strings.Builder
	num [32]byte // the longest float64 'g' form is 24 bytes
}

func (w *writer) keys(ks keySet, target string) {
	for id, k := range ks.slots {
		w.sb.WriteString("\n  <key id=\"")
		w.id(ks, id)
		w.sb.WriteString(`" for="` + target + `" attr.name="`)
		escape(w.sb, k.name)
		w.sb.WriteString(`" attr.type="`)
		switch k.kind {
		case graph.Number:
			w.sb.WriteString("double")
		case graph.Bool:
			w.sb.WriteString("boolean")
		default:
			w.sb.WriteString("string")
		}
		w.sb.WriteString(`"></key>`)
	}
}

func (w *writer) id(ks keySet, id int) {
	w.sb.WriteString(ks.prefix)
	w.sb.Write(strconv.AppendInt(w.num[:0], int64(id), 10))
}

// data writes the bag's values in sorted name order, then the end tag of
// the element (node or edge) they belong to.
func (w *writer) data(ks keySet, attrs graph.Attrs, element string) {
	var buf [maxStackKeys]string
	names := buf[:0]
	for name, v := range attrs {
		if !v.IsMissing() {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	for _, name := range names {
		id, _ := ks.find(name)
		w.sb.WriteString("\n      <data key=\"")
		w.id(ks, id)
		w.sb.WriteString(`">`)
		switch v := attrs[name]; v.Kind() {
		case graph.Number:
			f, _ := v.Float()
			w.sb.Write(strconv.AppendFloat(w.num[:0], f, 'g', -1, 64))
		case graph.String:
			s, _ := v.Text()
			escape(w.sb, s)
		default:
			w.sb.WriteString(v.String())
		}
		w.sb.WriteString("</data>")
	}
	if len(names) > 0 {
		w.sb.WriteString("\n    ")
	}
	w.sb.WriteString("</" + element + ">")
}

// escape writes s as xml.EscapeText would: the five markup characters,
// tab, newline and carriage return as references, and every byte that is
// not valid UTF-8 or not an XML character as U+FFFD.
func escape(sb *strings.Builder, s string) {
	last := 0
	for i := 0; i < len(s); {
		r, width := utf8.DecodeRuneInString(s[i:])
		i += width
		var esc string
		switch r {
		case '"':
			esc = "&#34;"
		case '\'':
			esc = "&#39;"
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
			if !xmlChar(r) || r == utf8.RuneError && width == 1 {
				esc = "\uFFFD"
				break
			}
			continue
		}
		sb.WriteString(s[last : i-width])
		sb.WriteString(esc)
		last = i
	}
	sb.WriteString(s[last:])
}

// xmlChar reports whether r is in XML 1.0's Char production.
func xmlChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}
