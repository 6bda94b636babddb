// Package expr implements NETEMBED's constraint expression language: a
// Java-like boolean expression evaluated for every pairing of a query
// (virtual) edge with a hosting (real) edge, with the endpoint nodes of
// both edges in scope (paper §VI-B, Table I).
//
// The language provides boolean operators (&&, ||, !), relational
// operators (==, !=, <, >, <=, >=), arithmetic (+, -, *, /), the functions
// abs, sqrt, floor, ceil, min, max, the presence test has, and the
// paper's isBoundTo binding helper. Attribute access uses dot notation on
// the objects of Table I: vEdge, rEdge, vSource, vTarget, rSource,
// rTarget. As an extension, node-level constraints may reference vNode and
// rNode and are evaluated per (query node, hosting node) pair.
//
// Missing attributes follow Kleene three-valued logic: any computation
// over an absent attribute is "unknown", and an unknown constraint is not
// satisfied. isBoundTo(v, r) is the exception: a query object without the
// attribute is unconstrained.
//
// Example (paper §VI-B): accept a hosting link whose average delay is
// within 10% of the requested delay:
//
//	vEdge.avgDelay >= 0.90*rEdge.avgDelay && vEdge.avgDelay <= 1.10*rEdge.avgDelay
//
// # Two compiled forms
//
// Compile parses once into an operator tree that is evaluated two ways.
//
// The per-pair form (EvalEdge, EvalNode, EvalConst) decides one pairing
// from attribute bags. It allocates nothing and is what single-pair callers
// use: Problem.Verify and EdgeFeasible/NodeFeasible, the LNS, repair and
// consolidation searchers, and the coordinator's cut-edge screens. It is
// also the reference semantics.
//
// The batch form (EvalEdgeBatch, EvalNodeBatch; batch.go) decides one
// query element against every hosting element at once, one operator at a
// time over typed attribute columns, and returns the satisfied set as a
// bitmask. core.BuildFilters uses it for every constraint it evaluates:
// filter construction (§V-A) is |Eq| batch evaluations, not |Eq|·|Er|
// per-pair ones. It accepts every program the parser does — there is no
// fallback to the per-pair form. One shape has a second route: &&, ||
// and ! over comparisons of a hosting column with a query-side operand
// (the paper's delay window) is answered from range-encoded bitmap
// indexes (range.go) when the Columns keeps them; every other program,
// and that one over plain columns, runs chunked.
//
// The forms are pinned equal, element by element, by a property test over
// random programs from the full grammar and random attribute bags (all
// kinds mixed in one column, ±Inf, NaN, ÷0, absent attributes), run
// through plain and range-indexed columns alike, and by
// FuzzBatchEqualsScalar.
package expr

import (
	"errors"
	"fmt"

	"netembed/internal/graph"
)

// AttrRef names one attribute access in a program, e.g. rEdge.avgDelay.
type AttrRef struct {
	Object Object
	Attr   string
}

// String renders the reference in source form.
func (r AttrRef) String() string { return r.Object.String() + "." + r.Attr }

// Program is a compiled constraint expression. Programs are immutable and
// safe for concurrent evaluation: each Eval* call uses its own binding (and,
// in batch form, its own Scratch).
type Program struct {
	src    string
	root   *node
	uses   uint16
	refs   []AttrRef
	ranged bool // rangeable(root): range indexes can answer it
}

// maxRegs bounds how deep operators may nest in their right-hand operands
// (a + (b + (c + …))): every such level holds one more batch register —
// batchChunk elements that a pooled Scratch then keeps — while chains,
// unary operators and left nesting hold none. Hand-written constraints
// need two or three.
const maxRegs = 16

// Compile parses and compiles src. The empty expression compiles to a
// program that accepts everything (no constraint beyond topology).
func Compile(src string) (*Program, error) {
	p := newParser(src)
	if err := p.advance(); err != nil {
		return nil, err
	}
	if p.tok.kind == tokEOF {
		return &Program{src: src, root: p.literal(graph.BoolVal(true))}, nil
	}
	root, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errf("trailing input starting with %v", p.tok.kind)
	}
	if root.regs > maxRegs {
		return nil, &SyntaxError{Src: src, Pos: 0,
			Msg: fmt.Sprintf("operands nest %d deep on the right, limit %d", root.regs, maxRegs)}
	}
	return &Program{src: src, root: root, uses: p.uses, refs: p.refs, ranged: rangeable(root)}, nil
}

// MustCompile is Compile panicking on error, for constant expressions.
func MustCompile(src string) *Program {
	p, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return p
}

// String returns the original source text.
func (p *Program) String() string { return p.src }

// Uses reports whether the program references the given object.
func (p *Program) Uses(o Object) bool { return p.uses&(1<<o) != 0 }

// Refs lists the distinct attribute references of the program in source
// order. Service layers use this to warn when a constraint touches an
// attribute the hosting network never defines (a typo would otherwise
// silently reject every pairing under three-valued logic).
func (p *Program) Refs() []AttrRef {
	out := make([]AttrRef, len(p.refs))
	copy(out, p.refs)
	return out
}

const edgeObjMask = 1<<ObjVEdge | 1<<ObjREdge | 1<<ObjVSource | 1<<ObjVTarget | 1<<ObjRSource | 1<<ObjRTarget
const nodeObjMask = 1<<ObjVNode | 1<<ObjRNode

// Errors reported by the context checks.
var (
	ErrNotEdgeProgram = errors.New("expr: program references vNode/rNode and cannot run in edge context")
	ErrNotNodeProgram = errors.New("expr: program references edge objects and cannot run in node context")
)

// CheckEdgeContext verifies the program only references edge-context
// objects (Table I), so it can be evaluated with EvalEdge.
func (p *Program) CheckEdgeContext() error {
	if p.uses&nodeObjMask != 0 {
		return ErrNotEdgeProgram
	}
	return nil
}

// CheckNodeContext verifies the program only references vNode/rNode, so it
// can be evaluated with EvalNode.
func (p *Program) CheckNodeContext() error {
	if p.uses&edgeObjMask != 0 {
		return ErrNotNodeProgram
	}
	return nil
}

// EdgeBinding supplies the six Table-I objects for one evaluation: a query
// edge (with its source/target nodes) paired with a hosting edge (with its
// source/target nodes).
type EdgeBinding struct {
	VEdge, REdge     graph.Attrs
	VSource, VTarget graph.Attrs
	RSource, RTarget graph.Attrs
}

// EvalEdge evaluates the program against an edge pairing. It returns true
// only if the expression evaluates to boolean true.
func (p *Program) EvalEdge(b *EdgeBinding) bool {
	var e env
	e.objs[ObjVEdge] = b.VEdge
	e.objs[ObjREdge] = b.REdge
	e.objs[ObjVSource] = b.VSource
	e.objs[ObjVTarget] = b.VTarget
	e.objs[ObjRSource] = b.RSource
	e.objs[ObjRTarget] = b.RTarget
	v, ok := p.root.eval(&e).Truth()
	return ok && v
}

// NodeBinding supplies the node-context objects: one query node paired
// with one hosting node.
type NodeBinding struct {
	VNode, RNode graph.Attrs
}

// EvalNode evaluates the program against a node pairing. It returns true
// only if the expression evaluates to boolean true.
func (p *Program) EvalNode(b *NodeBinding) bool {
	var e env
	e.objs[ObjVNode] = b.VNode
	e.objs[ObjRNode] = b.RNode
	v, ok := p.root.eval(&e).Truth()
	return ok && v
}

// EvalConst evaluates a program with no object references (a constant
// expression), returning its boolean result.
func (p *Program) EvalConst() bool {
	var e env
	v, ok := p.root.eval(&e).Truth()
	return ok && v
}
