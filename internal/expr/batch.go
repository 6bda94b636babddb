package expr

import (
	"encoding/binary"
	"math"

	"netembed/internal/graph"
	"netembed/internal/sets"
)

// This file is the batch form of a Program: the same expression tree the
// per-pair evaluator walks, evaluated one operator at a time over all n
// hosting elements (host edges in edge context, host nodes in node
// context) for one fixed query element. The query side (vEdge, vSource,
// vTarget, vNode) is constant across the batch; the hosting side is read
// from typed attribute columns (graph.Column), rSource/rTarget gathered
// through the host edges' endpoints. Every intermediate is a column of
// (tag, number) pairs, so the whole language — Kleene unknowns,
// mixed-kind attributes, ÷0 and NaN → unknown — has exactly the per-pair
// semantics; batch_test.go pins bit i of the result to EvalEdge/EvalNode
// on element i.
//
// Evaluation runs in chunks of batchChunk elements so the live registers
// stay cache-resident and the scratch is a fixed few kilobytes per
// register whatever n is.

// Columns supplies the hosting side of a batch evaluation: attribute attr
// over every host edge (by EdgeID) or host node (by NodeID), or nil for an
// attribute no element carries — it reads as missing everywhere.
// index.Columns implements it, and Ranges.
type Columns interface {
	EdgeColumn(attr string) *graph.Column
	NodeColumn(attr string) *graph.Column
}

// EdgeBatch binds one query edge (with its endpoint nodes) against every
// host edge. RSource[i] and RTarget[i] are the host nodes playing rSource
// and rTarget for host edge i — its From/To, or swapped to evaluate an
// undirected host edge in the reverse orientation; they are read only
// when the program references rSource or rTarget.
type EdgeBatch struct {
	VEdge, VSource, VTarget graph.Attrs
	Host                    Columns
	RSource, RTarget        []graph.NodeID
}

// NodeBatch binds one query node against every host node.
type NodeBatch struct {
	VNode graph.Attrs
	Host  Columns
}

// batchChunk is the number of elements evaluated per pass over the tree;
// a multiple of 64 so chunks fill whole result words.
const batchChunk = 1024

// vec is one operand: element i is (tags[i&mask], nums[i&mask],
// strs[i&mask]) in graph.Column's encoding. mask is 0 for a constant
// (element 0 stands for every i) and -1 for one value per element. strs
// is nil when no element is a string.
type vec struct {
	tags []graph.Tag
	nums []float64
	strs []string
	mask int
}

// register is the storage one tree depth computes into: columns for
// per-element results and a one-element cell for constant ones.
type register struct {
	tags []graph.Tag
	nums []float64
	strs []string // allocated on first string gather
	ct   [1]graph.Tag
	cf   [1]float64
	cs   [1]string
}

// source is one resolved attribute reference of the program: a column on
// the hosting side, else one value for the whole batch — the query side's
// attribute, or missing for a hosting attribute without a column.
type source struct {
	col    *graph.Column
	gather []graph.NodeID // col is read through edge endpoints; nil = by element
	val    graph.Value
	rng    *Range // col's range index, for programs that can use one
}

// Scratch is the reusable working storage of batch evaluations. The zero
// value is ready; one Scratch serves any number of programs in turn but
// only one evaluation at a time.
type Scratch struct {
	regs []register
	srcs []source
	bits []*sets.Bitset // the range path's later operands, by depth
}

// EvalEdgeBatch evaluates the program for b's query edge against every
// host edge: on return out holds exactly the host edges i for which
// EvalEdge would answer true. out's universe is the number of host edges.
func (p *Program) EvalEdgeBatch(b *EdgeBatch, s *Scratch, out *sets.Bitset) {
	var query env
	query.objs[ObjVEdge] = b.VEdge
	query.objs[ObjVSource] = b.VSource
	query.objs[ObjVTarget] = b.VTarget
	p.evalBatch(&query, b.Host, b.RSource, b.RTarget, s, out)
}

// EvalNodeBatch evaluates the program for b's query node against every
// host node: out holds exactly the host nodes for which EvalNode would
// answer true. out's universe is the number of host nodes.
func (p *Program) EvalNodeBatch(b *NodeBatch, s *Scratch, out *sets.Bitset) {
	var query env
	query.objs[ObjVNode] = b.VNode
	p.evalBatch(&query, b.Host, nil, nil, s, out)
}

// evalBatch resolves every attribute reference once — the query side to
// its value, the hosting side to its column — then answers the program
// from range indexes when it is rangeable and every column it reads has
// one (range.go), and otherwise runs the tree chunk by chunk over out's
// universe.
func (p *Program) evalBatch(query *env, host Columns, rSource, rTarget []graph.NodeID, s *Scratch, out *sets.Bitset) {
	s.srcs = s.srcs[:0]
	for _, ref := range p.refs {
		var src source
		switch ref.Object {
		case ObjREdge:
			src.col = host.EdgeColumn(ref.Attr)
		case ObjRNode:
			src.col = host.NodeColumn(ref.Attr)
		case ObjRSource:
			src.col, src.gather = host.NodeColumn(ref.Attr), rSource
		case ObjRTarget:
			src.col, src.gather = host.NodeColumn(ref.Attr), rTarget
		default:
			src.val = query.objs[ref.Object].Get(ref.Attr)
		}
		s.srcs = append(s.srcs, src)
	}
	if p.ranged && s.rangesReady(host, out.Len()) && s.evalRange(p.root, true, 0, query, out) {
		return
	}
	for len(s.regs) < p.root.regs {
		s.regs = append(s.regs, register{
			tags: make([]graph.Tag, batchChunk),
			nums: make([]float64, batchChunk),
		})
	}
	n := out.Len()
	for lo := 0; lo < n; lo += batchChunk {
		hi := min(lo+batchChunk, n)
		v := s.eval(p.root, 0, lo, hi)
		for w := lo; w < hi; w += 64 {
			out.SetWord(w/64, trueBits(&v, w-lo, min(w+64, hi)-lo))
		}
	}
}

// constant stores v in the register's constant cell and returns its view.
func (r *register) constant(v graph.Value) vec {
	r.ct[0] = graph.TagOf(v)
	r.cf[0], _ = v.Float()
	r.cs[0], _ = v.Text()
	return vec{tags: r.ct[:], nums: r.cf[:], strs: r.cs[:]}
}

// result returns the view an operator over m elements writes into: the
// constant cell when every operand was constant (the result then is too),
// the register's columns otherwise. Operators never produce strings.
func (r *register) result(m int, konst bool) vec {
	if konst {
		return vec{tags: r.ct[:], nums: r.cf[:]}
	}
	return vec{tags: r.tags[:m], nums: r.nums[:m], mask: -1}
}

// eval computes node n over elements [lo, hi) into register d. Operand
// i > 0 goes to register d+1, so a node's first operand may be overwritten
// in place by its result: every kernel reads element i of its operands
// before writing element i.
func (s *Scratch) eval(n *node, d, lo, hi int) vec {
	r := &s.regs[d]
	m := hi - lo
	switch n.op {
	case opLit:
		return r.constant(n.lit)
	case opAttr:
		src := &s.srcs[n.ref]
		if src.col == nil {
			return r.constant(src.val)
		}
		if src.gather == nil {
			v := vec{tags: src.col.Tags[lo:hi], nums: src.col.Nums[lo:hi], mask: -1}
			if src.col.Strs != nil {
				v.strs = src.col.Strs[lo:hi]
			}
			return v
		}
		v := r.result(m, false)
		for i, id := range src.gather[lo:hi] {
			v.tags[i], v.nums[i] = src.col.Tags[id], src.col.Nums[id]
		}
		if src.col.Strs != nil {
			if r.strs == nil {
				r.strs = make([]string, batchChunk)
			}
			v.strs = r.strs[:m]
			for i, id := range src.gather[lo:hi] {
				v.strs[i] = src.col.Strs[id]
			}
		}
		return v
	}
	acc := s.eval(n.args[0], d, lo, hi)
	if len(n.args) == 1 {
		return unaryKernel(n.op, r.result(m, acc.mask == 0), acc)
	}
	// Binary operators have one later operand; min/max fold each of
	// theirs into the accumulator.
	for _, arg := range n.args[1:] {
		x := s.eval(arg, d+1, lo, hi)
		acc = binaryKernel(n.op, r.result(m, acc.mask == 0 && x.mask == 0), acc, x)
	}
	return acc
}

// The kernels below apply one operator to every element. Tags and
// comparison outcomes are data — a branch on them mispredicts — so results
// are computed with bitwise arithmetic on the tag flags, and where every
// operand has one tag per element, eight tags at a time in one word.

const (
	tMissing = graph.TagMissing
	tTrue    = graph.TagTrue
	tFalse   = graph.TagFalse
	tNumber  = graph.TagNumber
	tString  = graph.TagString

	lanes = 0x0101010101010101 // one tag's bit 0 in each of eight lanes
)

// tags8 loads the tags of elements i..i+7 into the eight lanes of a word
// (a constant fills every lane).
func tags8(v *vec, i int) uint64 {
	if v.mask == 0 {
		return uint64(v.tags[0]) * lanes
	}
	return binary.LittleEndian.Uint64(v.tags[i : i+8])
}

// kleene is the three-valued and/or of two tags — or of eight tag pairs
// lane by lane, the arithmetic being bitwise: and is true when both are,
// false when either is; or the reverse. A tag that is not a boolean has
// neither bit and comes out unknown.
func kleene(op opKind, a, b uint64) uint64 {
	if op == opAnd {
		return a&b&(lanes*uint64(tTrue)) | (a|b)&(lanes*uint64(tFalse))
	}
	return (a|b)&(lanes*uint64(tTrue)) | a&b&(lanes*uint64(tFalse))
}

func kleeneKernel(op opKind, out, l, r *vec) {
	ot := out.tags
	i := 0
	for ; i+8 <= len(ot); i += 8 {
		binary.LittleEndian.PutUint64(ot[i:i+8], kleene(op, tags8(l, i), tags8(r, i)))
	}
	for ; i < len(ot); i++ {
		ot[i] = graph.Tag(kleene(op, uint64(l.tags[i&l.mask]), uint64(r.tags[i&r.mask])))
	}
}

// trueBits returns, as bit i-from, whether element i of v is true, for
// from <= i < to <= from+64.
func trueBits(v *vec, from, to int) uint64 {
	var word uint64
	i := from
	for ; i+8 <= to; i += 8 {
		// Each lane's bit 0 is the tag's true flag; the multiplication
		// gathers the eight of them into the top byte (every partial
		// product lands on a distinct bit, so nothing carries).
		word |= (tags8(v, i) & lanes * 0x0102040810204080 >> 56) << uint(i-from)
	}
	for ; i < to; i++ {
		word |= uint64(v.tags[i&v.mask]&tTrue) << uint(i-from)
	}
	return word
}

func boolTag(b bool) graph.Tag {
	if b {
		return tTrue
	}
	return tFalse
}

func unaryKernel(op opKind, out, x vec) vec {
	ot, of := out.tags, out.nums
	xt, xf, xm := x.tags, x.nums, x.mask
	switch op {
	case opNot:
		for i := range ot {
			t := xt[i&xm]
			ot[i] = t&tTrue<<1 | t&tFalse>>1 // the two flags are adjacent bits
		}
	case opHas:
		for i := range ot {
			ot[i] = boolTag(xt[i&xm] != tMissing)
		}
	case opNeg:
		for i := range ot {
			ot[i], of[i] = xt[i&xm]&tNumber, -xf[i&xm]
		}
	default: // opAbs, opSqrt, opFloor, opCeil
		for i := range ot {
			f := unaryMath(op, xf[i&xm])
			t := xt[i&xm] & tNumber
			if math.IsNaN(f) {
				t = tMissing
			}
			ot[i], of[i] = t, f
		}
	}
	return out
}

// binaryKernel dispatches to one small function per operator family: each
// keeps its few slices in registers, which one function holding every loop
// cannot.
func binaryKernel(op opKind, out, l, r vec) vec {
	switch op {
	case opAnd, opOr:
		kleeneKernel(op, &out, &l, &r)
	case opAdd, opSub, opMul, opDiv, opMin, opMax:
		arithKernel(op, &out, &l, &r)
	case opLt, opLeq:
		compareKernel(op, &out, &l, &r)
	case opGt:
		compareKernel(opLt, &out, &r, &l) // x > y == y < x
	case opGeq:
		compareKernel(opLeq, &out, &r, &l)
	default: // opEq, opNeq, opIsBoundTo
		equalKernel(op, &out, &l, &r)
	}
	return out
}

func arithKernel(op opKind, out, l, r *vec) {
	ot, of := out.tags, out.nums
	lt, lf, lm := l.tags, l.nums, l.mask
	rt, rf, rm := r.tags, r.nums, r.mask
	for i := range ot {
		x, y := lf[i&lm], rf[i&rm]
		t := lt[i&lm] & rt[i&rm] & tNumber
		var f float64
		switch op {
		case opAdd:
			f = x + y
		case opSub:
			f = x - y
		case opMul:
			f = x * y
		case opDiv:
			f = x / y
			if y == 0 {
				t = tMissing
			}
		default: // opMin, opMax
			f = fold(op, x, y)
		}
		ot[i], of[i] = t, f
	}
}

// compareKernel is l < r (opLt) or l <= r (opLeq); the caller has swapped
// the operands of > and >=. Tags are screened eight at a time: a run of
// blocks whose sixteen operand tags all say number goes through the
// compare-and-store loop, any other block through the general path.
func compareKernel(op opKind, out, l, r *vec) {
	ot := out.tags
	numbers := func(i int) bool {
		const all = lanes * uint64(tNumber)
		return i+8 <= len(ot) && tags8(l, i)&tags8(r, i)&all == all
	}
	for i := 0; i < len(ot); {
		end := i
		for numbers(end) {
			end += 8
		}
		if end > i {
			// Already-screened operand tags may be overwritten (out can
			// alias l), which is why the screen runs first.
			compareNumbers(op, ot[i:end], window(l.nums, l.mask, i, end), l.mask, window(r.nums, r.mask, i, end), r.mask)
			i = end
			continue
		}
		for end = min(i+8, len(ot)); i < end; i++ {
			ot[i] = compareAt(op, l, i&l.mask, r, i&r.mask)
		}
	}
}

// window returns elements [from, to) of a per-element operand, or the one
// element of a constant.
func window(nums []float64, mask, from, to int) []float64 {
	if mask == 0 {
		return nums[:1]
	}
	return nums[from:to]
}

// compareNumbers is the all-numbers loop of compareKernel: one loop per
// operator so each is a single compare-and-store (a NaN operand compares
// false either way), in a leaf small enough to keep everything in
// registers — which it loses when inlined into its caller.
//
//go:noinline
func compareNumbers(op opKind, ot []graph.Tag, lf []float64, lm int, rf []float64, rm int) {
	if op == opLt {
		for j := range ot {
			var less graph.Tag
			if lf[j&lm] < rf[j&rm] {
				less = 1
			}
			ot[j] = tFalse - less // tFalse-1 == tTrue
		}
		return
	}
	for j := range ot {
		var lessEq graph.Tag
		if lf[j&lm] <= rf[j&rm] {
			lessEq = 1
		}
		ot[j] = tFalse - lessEq
	}
}

// compareAt orders one pair of any kinds: numbers numerically, strings
// lexically, anything else unknown.
func compareAt(op opKind, l *vec, li int, r *vec, ri int) graph.Tag {
	switch l.tags[li] & r.tags[ri] {
	case tNumber:
		return boolTag(cmpFloat(op, l.nums[li], r.nums[ri]))
	case tString:
		return boolTag(cmpString(op, l.strs[li], r.strs[ri]))
	}
	return tMissing
}

// equalAt is graph.Value.Equal over element i of l and element j of r.
func equalAt(l *vec, i int, r *vec, j int) bool {
	t := l.tags[i]
	if t != r.tags[j] {
		return false
	}
	switch t {
	case tNumber:
		return l.nums[i] == r.nums[j]
	case tString:
		return l.strs[i] == r.strs[j]
	}
	return true // Missing, or booleans whose tags carry the value
}

func equalKernel(op opKind, out, l, r *vec) {
	ot := out.tags
	for i := range ot {
		li, ri := i&l.mask, i&r.mask
		eq := equalAt(l, li, r, ri)
		var t graph.Tag
		switch {
		case op == opIsBoundTo:
			t = boolTag(l.tags[li] == tMissing || eq)
		case l.tags[li] == tMissing || r.tags[ri] == tMissing:
			t = tMissing
		default:
			t = boolTag(eq == (op == opEq))
		}
		ot[i] = t
	}
}
