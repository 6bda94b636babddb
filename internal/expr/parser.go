package expr

import (
	"fmt"

	"netembed/internal/graph"
)

// parser is a recursive-descent parser over the token stream, following
// Java's operator precedence:
//
//	||  <  &&  <  == !=  <  < > <= >=  <  + -  <  * /  <  unary ! -
//
// It builds the node tree both evaluators run on and records which objects
// the expression references.
type parser struct {
	lex  lexer
	tok  token
	uses uint16    // bitmask of referenced Objects
	refs []AttrRef // distinct attribute references in source order
	// The slabs the tree is carved from: its nodes, and every node's
	// operand list.
	nodes []node
	args  []*node
}

// newParser makes a parser over src with its slabs and refs allocated
// once, at bounds a lexing pass reads off the tokens. Every node owns one
// token: its literal, operator, function name or object name. No node
// owns a parenthesis, a comma, a dot or the attribute name after a dot, so
// the remaining tokens bound the nodes, and every node but the root is one
// operand of another. A dot only occurs in an attribute access, so the
// dots bound the references. The empty program is one literal. The count
// stops where lexing fails, which is where the parse fails too.
func newParser(src string) parser {
	l := lexer{src: src}
	nodes, refs := 0, 0
	for {
		at := l.pos
		t, err := l.next()
		if err != nil || t.kind == tokEOF || l.pos == at {
			break // an identifier of no width fails the parse where it stands
		}
		switch t.kind {
		case tokDot:
			nodes--
			refs++
		case tokLParen, tokRParen, tokComma:
		default:
			nodes++
		}
	}
	nodes = max(nodes, 1)
	p := parser{lex: lexer{src: src}, nodes: make([]node, 0, nodes), args: make([]*node, 0, nodes-1)}
	if refs > 0 {
		p.refs = make([]AttrRef, 0, refs)
	}
	return p
}

// newNode carves a node applying op to args out of the slabs. Past a
// slab's end (newParser's bound makes that unreachable) it starts another, so
// the nodes already handed out never move.
func (p *parser) newNode(op opKind, args ...*node) *node {
	if len(p.nodes) == cap(p.nodes) {
		p.nodes = make([]node, 0, 8)
	}
	p.nodes = append(p.nodes, node{op: op, regs: 1})
	n := &p.nodes[len(p.nodes)-1]
	if len(args) > 0 {
		if cap(p.args)-len(p.args) < len(args) {
			p.args = make([]*node, 0, max(8, len(args)))
		}
		lo := len(p.args)
		p.args = append(p.args, args...)
		n.args = p.args[lo:len(p.args):len(p.args)]
	}
	for i, a := range args {
		r := a.regs
		if i > 0 {
			r++
		}
		if r > n.regs {
			n.regs = r
		}
	}
	return n
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// refIndex returns ref's position in p.refs, recording it on first sight.
func (p *parser) refIndex(ref AttrRef) int {
	for i, r := range p.refs {
		if r == ref {
			return i
		}
	}
	p.refs = append(p.refs, ref)
	return len(p.refs) - 1
}

func (p *parser) expect(k tokKind) error {
	if p.tok.kind != k {
		return p.errf("expected %v, found %v", k, p.tok.kind)
	}
	return p.advance()
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &SyntaxError{Src: p.lex.src, Pos: p.tok.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) parseExpr() (*node, error) { return p.parseOr() }

func (p *parser) parseOr() (*node, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOr {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = p.newNode(opOr, left, right)
	}
	return left, nil
}

func (p *parser) parseAnd() (*node, error) {
	left, err := p.parseEquality()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokAnd {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseEquality()
		if err != nil {
			return nil, err
		}
		left = p.newNode(opAnd, left, right)
	}
	return left, nil
}

func (p *parser) parseEquality() (*node, error) {
	left, err := p.parseRelational()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokEq || p.tok.kind == tokNeq {
		op := p.tok.kind
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseRelational()
		if err != nil {
			return nil, err
		}
		left = p.newNode(binaryOps[op], left, right)
	}
	return left, nil
}

func (p *parser) parseRelational() (*node, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokLt || p.tok.kind == tokGt || p.tok.kind == tokLeq || p.tok.kind == tokGeq {
		op := p.tok.kind
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		left = p.newNode(binaryOps[op], left, right)
	}
	return left, nil
}

func (p *parser) parseAdditive() (*node, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokPlus || p.tok.kind == tokMinus {
		op := p.tok.kind
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = p.newNode(binaryOps[op], left, right)
	}
	return left, nil
}

func (p *parser) parseMultiplicative() (*node, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokStar || p.tok.kind == tokSlash {
		op := p.tok.kind
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = p.newNode(binaryOps[op], left, right)
	}
	return left, nil
}

func (p *parser) parseUnary() (*node, error) {
	switch p.tok.kind {
	case tokNot:
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return p.newNode(opNot, x), nil
	case tokMinus:
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return p.newNode(opNeg, x), nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (*node, error) {
	switch p.tok.kind {
	case tokNumber:
		v := graph.Num(p.tok.num)
		if err := p.advance(); err != nil {
			return nil, err
		}
		return p.literal(v), nil
	case tokString:
		v := graph.Str(p.tok.text)
		if err := p.advance(); err != nil {
			return nil, err
		}
		return p.literal(v), nil
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return x, nil
	case tokIdent:
		return p.parseIdent()
	}
	return nil, p.errf("unexpected %v", p.tok.kind)
}

func (p *parser) parseIdent() (*node, error) {
	name := p.tok.text
	namePos := p.tok.pos
	if err := p.advance(); err != nil {
		return nil, err
	}
	switch {
	case name == "true":
		return p.literal(graph.BoolVal(true)), nil
	case name == "false":
		return p.literal(graph.BoolVal(false)), nil
	case p.tok.kind == tokDot:
		obj, ok := objectNames[name]
		if !ok {
			return nil, &SyntaxError{Src: p.lex.src, Pos: namePos,
				Msg: fmt.Sprintf("unknown object %q (want vEdge, rEdge, vSource, vTarget, rSource, rTarget, vNode or rNode)", name)}
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokIdent {
			return nil, p.errf("expected attribute name after %q", name+".")
		}
		attr := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		p.uses |= 1 << obj
		n := p.newNode(opAttr)
		n.obj, n.attr, n.ref = obj, attr, p.refIndex(AttrRef{Object: obj, Attr: attr})
		return n, nil
	case p.tok.kind == tokLParen:
		return p.parseCall(name, namePos)
	}
	return nil, &SyntaxError{Src: p.lex.src, Pos: namePos,
		Msg: fmt.Sprintf("bare identifier %q (objects need '.attr', functions need '(...)')", name)}
}

func (p *parser) parseCall(name string, namePos int) (*node, error) {
	if err := p.advance(); err != nil { // consume '('
		return nil, err
	}
	var buf [4]*node // most calls take one or two arguments
	args := buf[:0]
	if p.tok.kind != tokRParen {
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if p.tok.kind != tokComma {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	fn, ok := functions[name]
	if !ok {
		return nil, &SyntaxError{Src: p.lex.src, Pos: namePos,
			Msg: fmt.Sprintf("unknown function %q", name)}
	}
	if len(args) < fn.args || (len(args) > fn.args && !fn.variadic) {
		return nil, &SyntaxError{Src: p.lex.src, Pos: namePos,
			Msg: fmt.Sprintf("%s takes %s, got %d argument(s)", name, fn.want, len(args))}
	}
	return p.newNode(fn.op, args...), nil
}

// functions is the language's call table: operator, minimum arity,
// whether more arguments are accepted, and the arity as error text.
var functions = map[string]struct {
	op       opKind
	args     int
	variadic bool
	want     string
}{
	"abs":       {opAbs, 1, false, "1 argument"},
	"sqrt":      {opSqrt, 1, false, "1 argument"},
	"floor":     {opFloor, 1, false, "1 argument"},
	"ceil":      {opCeil, 1, false, "1 argument"},
	"min":       {opMin, 2, true, "2+ arguments"},
	"max":       {opMax, 2, true, "2+ arguments"},
	"isBoundTo": {opIsBoundTo, 2, false, "2 arguments"},
	"has":       {opHas, 1, false, "1 argument"},
}

// binaryOps maps an infix operator token to its node kind.
var binaryOps = map[tokKind]opKind{
	tokEq: opEq, tokNeq: opNeq,
	tokLt: opLt, tokGt: opGt, tokLeq: opLeq, tokGeq: opGeq,
	tokPlus: opAdd, tokMinus: opSub, tokStar: opMul, tokSlash: opDiv,
}

func (p *parser) literal(v graph.Value) *node {
	n := p.newNode(opLit)
	n.lit = v
	return n
}
