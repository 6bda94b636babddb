package expr

import (
	"math"

	"netembed/internal/graph"
)

// Object identifies one of the bindable graph objects available inside a
// constraint expression (Table I of the paper, plus the node-level
// extension objects vNode/rNode).
type Object uint8

// The bindable objects. Edge-context programs may reference the first six;
// node-context programs the last two.
const (
	ObjVEdge Object = iota
	ObjREdge
	ObjVSource
	ObjVTarget
	ObjRSource
	ObjRTarget
	ObjVNode
	ObjRNode
	numObjects
)

var objectNames = map[string]Object{
	"vEdge":   ObjVEdge,
	"rEdge":   ObjREdge,
	"vSource": ObjVSource,
	"vTarget": ObjVTarget,
	"rSource": ObjRSource,
	"rTarget": ObjRTarget,
	"vNode":   ObjVNode,
	"rNode":   ObjRNode,
}

func (o Object) String() string {
	for name, obj := range objectNames {
		if obj == o {
			return name
		}
	}
	return "object(?)"
}

// opKind names one operator of the language.
type opKind uint8

const (
	opLit opKind = iota
	opAttr
	opAnd
	opOr
	opNot
	opNeg
	opAdd
	opSub
	opMul
	opDiv
	opLt
	opGt
	opLeq
	opGeq
	opEq
	opNeq
	opIsBoundTo
	opHas
	opAbs
	opSqrt
	opFloor
	opCeil
	opMin
	opMax
)

// node is one operator application of a parsed expression, carved out of
// its compile's slab (parser.newNode). Both compiled forms hang off this
// tree: the per-pair evaluator below walks it with one value per node,
// the batch evaluator (batch.go) with one column per node.
type node struct {
	op   opKind
	lit  graph.Value // opLit
	obj  Object      // opAttr
	attr string      // opAttr
	ref  int         // opAttr: index into Program.refs
	args []*node     // operands, left to right
	// regs is the number of batch registers evaluating this subtree
	// occupies: the first operand is computed into the node's own
	// register, every later one into the next while the first is held.
	regs int
}

// env carries the attribute bags bound to each object during one per-pair
// evaluation.
type env struct {
	objs [numObjects]graph.Attrs
}

// Three-valued (Kleene) logic over graph.Value: Missing acts as "unknown".
// A constraint is satisfied only when it evaluates to boolean true, so an
// expression touching an absent attribute rejects the pair — except under
// isBoundTo/has, which test presence explicitly.

// eval computes the node's value under e. The recursion is direct calls
// only, so e never escapes and a per-pair evaluation allocates nothing.
func (n *node) eval(e *env) graph.Value {
	switch n.op {
	case opLit:
		return n.lit
	case opAttr:
		return e.objs[n.obj].Get(n.attr)
	case opAnd:
		lv := n.args[0].eval(e)
		if b, ok := lv.Truth(); ok && !b {
			return graph.BoolVal(false) // false && x == false
		}
		rv := n.args[1].eval(e)
		if b, ok := rv.Truth(); ok && !b {
			return graph.BoolVal(false) // unknown && false == false
		}
		_, lok := lv.Truth()
		_, rok := rv.Truth()
		if lok && rok {
			return graph.BoolVal(true)
		}
		return graph.Value{}
	case opOr:
		lv := n.args[0].eval(e)
		if b, ok := lv.Truth(); ok && b {
			return graph.BoolVal(true) // true || x == true
		}
		rv := n.args[1].eval(e)
		if b, ok := rv.Truth(); ok && b {
			return graph.BoolVal(true) // unknown || true == true
		}
		_, lok := lv.Truth()
		_, rok := rv.Truth()
		if lok && rok {
			return graph.BoolVal(false)
		}
		return graph.Value{}
	case opNot:
		if b, ok := n.args[0].eval(e).Truth(); ok {
			return graph.BoolVal(!b)
		}
		return graph.Value{}
	case opNeg:
		if f, ok := n.args[0].eval(e).Float(); ok {
			return graph.Num(-f)
		}
		return graph.Value{}
	case opAdd, opSub, opMul, opDiv:
		lf, lok := n.args[0].eval(e).Float()
		rf, rok := n.args[1].eval(e).Float()
		if !lok || !rok {
			return graph.Value{}
		}
		if n.op == opDiv && rf == 0 {
			return graph.Value{} // division by zero is unsatisfiable, not a panic
		}
		return graph.Num(arith(n.op, lf, rf))
	case opLt, opGt, opLeq, opGeq:
		lv, rv := n.args[0].eval(e), n.args[1].eval(e)
		if lf, lok := lv.Float(); lok {
			if rf, rok := rv.Float(); rok {
				return graph.BoolVal(cmpFloat(n.op, lf, rf))
			}
			return graph.Value{}
		}
		if ls, lok := lv.Text(); lok {
			if rs, rok := rv.Text(); rok {
				return graph.BoolVal(cmpString(n.op, ls, rs))
			}
		}
		return graph.Value{}
	case opEq, opNeq:
		lv, rv := n.args[0].eval(e), n.args[1].eval(e)
		if lv.IsMissing() || rv.IsMissing() {
			return graph.Value{}
		}
		return graph.BoolVal(lv.Equal(rv) == (n.op == opEq))
	case opIsBoundTo:
		// The paper's isBoundTo(vAttr, rAttr): a query object that does not
		// define the attribute is unconstrained (true); if it does, the
		// hosting object must match it exactly.
		lv := n.args[0].eval(e)
		if lv.IsMissing() {
			return graph.BoolVal(true)
		}
		return graph.BoolVal(lv.Equal(n.args[1].eval(e)))
	case opHas:
		return graph.BoolVal(!n.args[0].eval(e).IsMissing())
	case opAbs, opSqrt, opFloor, opCeil:
		v, ok := n.args[0].eval(e).Float()
		if !ok {
			return graph.Value{}
		}
		r := unaryMath(n.op, v)
		if math.IsNaN(r) {
			return graph.Value{}
		}
		return graph.Num(r)
	default: // opMin, opMax
		acc, ok := n.args[0].eval(e).Float()
		if !ok {
			return graph.Value{}
		}
		for _, a := range n.args[1:] {
			v, ok := a.eval(e).Float()
			if !ok {
				return graph.Value{}
			}
			acc = fold(n.op, acc, v)
		}
		return graph.Num(acc)
	}
}

func arith(op opKind, a, b float64) float64 {
	switch op {
	case opAdd:
		return a + b
	case opSub:
		return a - b
	case opMul:
		return a * b
	default: // opDiv
		return a / b
	}
}

func cmpFloat(op opKind, a, b float64) bool {
	switch op {
	case opLt:
		return a < b
	case opGt:
		return a > b
	case opLeq:
		return a <= b
	default: // opGeq
		return a >= b
	}
}

func cmpString(op opKind, a, b string) bool {
	switch op {
	case opLt:
		return a < b
	case opGt:
		return a > b
	case opLeq:
		return a <= b
	default: // opGeq
		return a >= b
	}
}

func unaryMath(op opKind, v float64) float64 {
	switch op {
	case opAbs:
		return math.Abs(v)
	case opSqrt:
		return math.Sqrt(v)
	case opFloor:
		return math.Floor(v)
	default: // opCeil
		return math.Ceil(v)
	}
}

func fold(op opKind, a, b float64) float64 {
	if op == opMin {
		return math.Min(a, b)
	}
	return math.Max(a, b)
}
