package expr

import (
	"math"

	"netembed/internal/graph"
	"netembed/internal/sets"
)

// This file is the range-index form of batch evaluation. The paper's
// delay-window constraint (§VII-A) compares two hosting columns with
// constants of the query edge, and each conjunct keeps about half the host
// edges, so a posting list — whose cost follows the result size — does
// not pay. A range-encoded bitmap index (Chan & Ioannidis, SIGMOD 1998)
// does: any comparison of the column with a constant is one word-wise
// pass plus at most two bands of ⌈m/64⌉ element IDs, whatever its
// selectivity.

// Range is a range-encoded bitmap index over one column without a string
// payload. NewRange builds it; index.Columns keeps one beside each column
// a rangeable program has read (see Ranges). Immutable and safe for
// concurrent use.
type Range struct {
	// perm lists the elements tagged number and not NaN, ascending by
	// value, and vals[i] is perm[i]'s value. NaN compares false either way
	// and a missing value is unknown, so neither is in any interval.
	perm []int32
	vals []float64
	// suffix[j] = {perm[i] : i ≥ j·step} for the band width step =
	// ⌈m/64⌉ (at least 1) of m = len(perm); the last suffix is empty.
	step   int
	suffix []sets.Bitset
	// numbers are the elements tagged number, NaN included: an ordering
	// comparison with a number decides exactly these. present are the
	// elements not missing: (in)equality with a number decides those too,
	// a boolean being unequal to every number.
	numbers, present *sets.Bitset
}

// Ranges is implemented by a Columns that keeps range indexes beside its
// columns. Range returns col's index — index.Columns builds it on the
// first call — or nil when it has none: the evaluation then runs chunked.
type Ranges interface {
	Range(col *graph.Column) *Range
}

// NewRange builds the range index of col, or returns nil when col has a
// string payload: strings order among themselves and are unknown against
// numbers, which the chunked path keeps.
func NewRange(col *graph.Column) *Range {
	if col.Strs != nil {
		return nil
	}
	n := len(col.Tags)
	r := &Range{perm: make([]int32, 0, n), numbers: sets.NewBitset(n), present: sets.NewBitset(n)}
	for i, t := range col.Tags {
		if t == tMissing {
			continue
		}
		r.present.Set(int32(i))
		if t == tNumber {
			r.numbers.Set(int32(i))
			if !math.IsNaN(col.Nums[i]) {
				r.perm = append(r.perm, int32(i))
			}
		}
	}
	r.perm, r.vals = sortByValue(r.perm, col.Nums)
	m := len(r.perm)
	r.step = max(1, (m+63)/64)
	bands := (m + r.step - 1) / r.step
	r.suffix = sets.MakeBitsets(n, bands+1)
	for j := bands - 1; j >= 0; j-- {
		r.suffix[j].CopyFrom(&r.suffix[j+1])
		for _, id := range r.perm[j*r.step : min((j+1)*r.step, m)] {
			r.suffix[j].Set(id)
		}
	}
	return r
}

// sortByValue returns ids ordered by nums[id] ascending, with the sorted
// values beside them: an LSD radix sort, one byte per pass, on the values'
// order-preserving bit patterns (sign bit flipped for positives, every bit
// for negatives), skipping the bytes all keys share. A comparison sort of
// the 29k delay values of the paper-sized host takes several times longer.
func sortByValue(ids []int32, nums []float64) ([]int32, []float64) {
	type entry struct {
		key uint64
		id  int32
	}
	m := len(ids)
	entries, spare := make([]entry, m), make([]entry, m)
	var counts [8][256]int32
	for i, id := range ids {
		k := math.Float64bits(nums[id])
		if k>>63 != 0 {
			k = ^k
		} else {
			k |= 1 << 63
		}
		entries[i] = entry{k, id}
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
	}
	for d := range counts {
		c := &counts[d]
		if m == 0 || int(c[byte(entries[0].key>>(8*d))]) == m {
			continue
		}
		var sum int32
		for b, k := range c {
			c[b], sum = sum, sum+k
		}
		for _, e := range entries {
			b := byte(e.key >> (8 * d))
			spare[c[b]] = e
			c[b]++
		}
		entries, spare = spare, entries
	}
	vals := make([]float64, m)
	for i, e := range entries {
		ids[i], vals[i] = e.id, nums[e.id]
	}
	return ids, vals
}

// below returns how many sorted values are < c, or ≤ c when orEqual.
func (r *Range) below(c float64, orEqual bool) int {
	lo, hi := 0, len(r.vals)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v := r.vals[mid]; v < c || orEqual && v == c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// interval sets out to {perm[i] : lo ≤ i < hi}: the suffix difference
// covering whole bands, plus the partial band below lo, minus the one
// from hi.
func (r *Range) interval(lo, hi int, out *sets.Bitset) {
	s, m := r.step, len(r.perm)
	from, to := (lo+s-1)/s, (hi+s-1)/s
	sets.DifferenceInto(out, &r.suffix[from], &r.suffix[to])
	for _, id := range r.perm[lo:min(from*s, m)] {
		out.Set(id)
	}
	for _, id := range r.perm[hi:min(to*s, m)] {
		out.Clear(id)
	}
}

// leaf sets out to the elements on which `x op c` is true (want) or false
// (!want), x being the indexed column and op one of the six comparisons.
// The true set is a sorted interval — its complement within the decided
// elements for != — and the false set is the decided elements minus the
// true set.
func (r *Range) leaf(op opKind, c float64, want bool, out *sets.Bitset) {
	lo, hi, decided := 0, len(r.perm), r.numbers
	switch op {
	case opGeq:
		lo = r.below(c, false)
	case opGt:
		lo = r.below(c, true)
	case opLt:
		hi = r.below(c, false)
	case opLeq:
		hi = r.below(c, true)
	default: // opEq, opNeq
		lo, hi, decided = r.below(c, false), r.below(c, true), r.present
	}
	if math.IsNaN(c) {
		lo, hi = 0, 0 // no number compares true with NaN, nor equals it
	}
	r.interval(lo, hi, out)
	if (op == opNeq) == want {
		sets.DifferenceInto(out, decided, out)
	}
}

// rangeable reports whether the tree is &&, || and ! over comparisons of
// a hosting column (rEdge.x in edge context, rNode.x in node context) with
// an operand that reads no hosting object: the programs range indexes can
// answer.
func rangeable(n *node) bool {
	switch n.op {
	case opAnd, opOr, opNot:
		for _, a := range n.args {
			if !rangeable(a) {
				return false
			}
		}
		return true
	case opLt, opGt, opLeq, opGeq, opEq, opNeq:
		l, r := n.args[0], n.args[1]
		return column(l) && !readsHost(r) || column(r) && !readsHost(l)
	}
	return false
}

// column reports whether n reads a hosting column directly, not through
// the rSource/rTarget gathers.
func column(n *node) bool {
	return n.op == opAttr && (n.obj == ObjREdge || n.obj == ObjRNode)
}

func readsHost(n *node) bool {
	if n.op == opAttr {
		return n.obj == ObjREdge || n.obj == ObjRNode || n.obj == ObjRSource || n.obj == ObjRTarget
	}
	for _, a := range n.args {
		if readsHost(a) {
			return true
		}
	}
	return false
}

// mirror returns the comparison with its operands swapped: c < x is x > c.
func mirror(op opKind) opKind {
	switch op {
	case opLt:
		return opGt
	case opGt:
		return opLt
	case opLeq:
		return opGeq
	case opGeq:
		return opLeq
	}
	return op
}

// rangesReady fetches the range index of every hosting column the
// program reads, reporting whether each has one over n elements. A column
// with a string payload never has one (NewRange), so such a program is
// sent to the chunked path before any index is asked for: it neither
// builds the indexes of its other columns nor takes the cache's lock.
func (s *Scratch) rangesReady(host Columns, n int) bool {
	rc, ok := host.(Ranges)
	if !ok {
		return false
	}
	for i := range s.srcs {
		if col := s.srcs[i].col; col != nil && col.Strs != nil {
			return false
		}
	}
	ready := true
	for i := range s.srcs {
		src := &s.srcs[i]
		if src.rng = nil; src.col != nil {
			src.rng = rc.Range(src.col)
			ready = ready && src.rng != nil && src.rng.numbers.Len() == n
		}
	}
	return ready
}

// evalRange computes into out the elements on which the rangeable tree n
// is true (want) or false (!want): T(a && b) = Ta ∩ Tb and F(a && b) =
// Fa ∪ Fb, || is the dual and ! swaps the two, so every node computes one
// of its sets. A later operand at depth d goes to s.bits[d]. It reports
// false, leaving out undefined, when a comparison's constant operand is
// not a number.
func (s *Scratch) evalRange(n *node, want bool, d int, query *env, out *sets.Bitset) bool {
	switch n.op {
	case opNot:
		return s.evalRange(n.args[0], !want, d, query, out)
	case opAnd, opOr:
		if !s.evalRange(n.args[0], want, d, query, out) {
			return false
		}
		if len(s.bits) <= d {
			s.bits = append(s.bits, nil)
		}
		s.bits[d] = sets.ReuseBitset(s.bits[d], out.Len())
		if !s.evalRange(n.args[1], want, d+1, query, s.bits[d]) {
			return false
		}
		if (n.op == opAnd) == want {
			out.IntersectWith(s.bits[d])
		} else {
			out.UnionWith(s.bits[d])
		}
		return true
	}
	col, konst, op := n.args[0], n.args[1], n.op
	if !column(col) {
		col, konst, op = konst, col, mirror(op)
	}
	r := s.srcs[col.ref].rng
	if r == nil {
		out.Reset() // no column: unknown on every element
		return true
	}
	c, ok := konst.eval(query).Float()
	if !ok {
		return false
	}
	r.leaf(op, c, want, out)
	return true
}
