package sets

import "math/bits"

// Bitset is the candidate-set representation: a fixed-universe bitmap
// over [0, n) packed into 64-bit words. Its set algebra — intersection,
// subtraction, union, cardinality — is word-parallel, every binary
// operation costing ⌈n/64⌉ machine ops regardless of cardinality. The
// search inner loops use it both for candidate sets (filter rows, live
// domains) and for O(1) membership marks (hosts in use during a search).
//
// The zero Bitset is empty with universe 0; use NewBitset or FromSet to
// size one. All binary operations require operands with equal universe.
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset returns an empty bitset over the universe [0, n).
func NewBitset(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// MakeBitsets returns count empty bitsets over the universe [0, n), all
// backed by a single contiguous words allocation. Table-shaped layouts
// (one row per host node) use this to cut allocator traffic from one
// object per row to two per table; the rows stay independent — writing
// one never touches another's words.
func MakeBitsets(n, count int) []Bitset {
	words := (n + 63) / 64
	backing := make([]uint64, words*count)
	out := make([]Bitset, count)
	for i := range out {
		out[i] = Bitset{words: backing[i*words : (i+1)*words : (i+1)*words], n: n}
	}
	return out
}

// FromSet returns a bitset over [0, n) holding the elements of s, in any
// order.
func FromSet(n int, s Set) *Bitset {
	b := NewBitset(n)
	b.AddSet(s)
	return b
}

// ReuseBitsets is MakeBitsets recycling prior backing storage: rows and
// backing come from an earlier call (or are nil) and are re-sliced into
// count zeroed bitsets over [0, n), allocating only when the recycled
// capacity is too small. It is the allocation-free steady state of the
// pooled search structures — a warm worker re-shapes the same two
// allocations for every query instead of paying MakeBitsets per search.
func ReuseBitsets(rows []Bitset, backing []uint64, n, count int) ([]Bitset, []uint64) {
	if need := (n + 63) / 64 * count; cap(backing) >= need {
		clear(backing[:need])
	}
	return ReshapeBitsets(rows, backing, n, count)
}

// ReshapeBitsets is ReuseBitsets without the clearing: recycled rows hold
// whatever their backing held, for a caller that overwrites every word.
// Freshly allocated rows are empty.
func ReshapeBitsets(rows []Bitset, backing []uint64, n, count int) ([]Bitset, []uint64) {
	words := (n + 63) / 64
	need := words * count
	if cap(backing) < need {
		backing = make([]uint64, need)
	} else {
		backing = backing[:need]
	}
	if cap(rows) < count {
		rows = make([]Bitset, count)
	} else {
		rows = rows[:count]
	}
	for i := range rows {
		rows[i] = Bitset{words: backing[i*words : (i+1)*words : (i+1)*words], n: n}
	}
	return rows, backing
}

// BitsetOver returns a bitset over [0, 64·len(words)) that reads and
// writes words in place, member 64w+i being bit i of words[w]. Over the
// backing of a MakeBitsets/ReuseBitsets table of rows over [0, 64k) it is
// the whole table as one set: member 64k·r+t is t in row r.
func BitsetOver(words []uint64) Bitset {
	return Bitset{words: words, n: 64 * len(words)}
}

// ReuseBitset re-shapes b into an empty bitset over [0, n), reusing its
// words when they fit and allocating otherwise. A nil b allocates fresh.
func ReuseBitset(b *Bitset, n int) *Bitset {
	words := (n + 63) / 64
	if b == nil {
		return NewBitset(n)
	}
	if cap(b.words) < words {
		b.words = make([]uint64, words)
	} else {
		b.words = b.words[:words]
		clear(b.words)
	}
	b.n = n
	return b
}

// Len returns the universe size n.
func (b *Bitset) Len() int { return b.n }

// WordOf returns the index of the word holding member x.
func WordOf(x int32) int { return int(x >> 6) }

// SaveSpan appends the words in [w0, w0+n) to dst and returns the
// extended slice. Together with RestoreSpan it is the trail primitive of
// the forward-checking search: before a domain is pruned, the touched
// word span is saved onto a shared arena; backtracking copies it back.
func (b *Bitset) SaveSpan(dst []uint64, w0, n int) []uint64 {
	return append(dst, b.words[w0:w0+n]...)
}

// RestoreSpan copies src back over the words starting at w0, undoing the
// mutations made since the matching SaveSpan.
func (b *Bitset) RestoreSpan(src []uint64, w0 int) {
	copy(b.words[w0:], src)
}

// Set marks x as a member.
func (b *Bitset) Set(x int32) { b.words[x>>6] |= 1 << (uint(x) & 63) }

// Clear removes x.
func (b *Bitset) Clear(x int32) { b.words[x>>6] &^= 1 << (uint(x) & 63) }

// Has reports whether x is a member.
func (b *Bitset) Has(x int32) bool { return b.words[x>>6]&(1<<(uint(x)&63)) != 0 }

// SetWord overwrites members [64w, 64w+64) with the bits of x, bit i
// standing for member 64w+i — the bulk store for producers that compute
// membership a word at a time. Bits at or beyond the universe must be 0.
func (b *Bitset) SetWord(w int, x uint64) { b.words[w] = x }

// Word returns members [64w, 64w+64) as the bits of one word, bit i
// standing for member 64w+i — the bulk load for consumers that walk
// members without a callback per member.
func (b *Bitset) Word(w int) uint64 { return b.words[w] }

// Reset empties the bitset.
func (b *Bitset) Reset() {
	clear(b.words)
}

// Count returns the cardinality by popcount.
func (b *Bitset) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Any reports whether the bitset is non-empty.
func (b *Bitset) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// AddSet marks every element of s, in any order.
func (b *Bitset) AddSet(s Set) {
	for _, x := range s {
		b.Set(x)
	}
}

// CopyFrom overwrites b with o's contents. The universes must match.
func (b *Bitset) CopyFrom(o *Bitset) {
	copy(b.words, o.words)
}

// Clone returns an independent copy of b.
func (b *Bitset) Clone() *Bitset {
	out := &Bitset{words: make([]uint64, len(b.words)), n: b.n}
	copy(out.words, b.words)
	return out
}

// IntersectWith replaces b with b ∩ o and reports whether the result is
// non-empty, so intersection chains can stop at the first empty set.
func (b *Bitset) IntersectWith(o *Bitset) bool {
	var any uint64
	for i, w := range o.words {
		b.words[i] &= w
		any |= b.words[i]
	}
	return any != 0
}

// IntersectCount replaces b with b ∩ o and returns the resulting
// cardinality in the same pass — the forward-checking prune step, where
// the count both detects wipeouts (0) and keeps the live domain sizes
// the dynamic variable ordering reads.
func (b *Bitset) IntersectCount(o *Bitset) int {
	n := 0
	for i, w := range o.words {
		b.words[i] &= w
		n += bits.OnesCount64(b.words[i])
	}
	return n
}

// Intersects reports whether b ∩ o is non-empty, exiting on the first
// overlapping word — the read-only wipeout probe: a prune that would
// empty the domain can reject its assignment without mutating anything,
// and the common non-empty case usually answers from word zero.
func (b *Bitset) Intersects(o *Bitset) bool {
	for i, w := range b.words {
		if w&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// IntersectSave appends b's current words to arena, then replaces b
// with b ∩ o, reporting the extended arena and whether the result is
// non-empty. Fusing the trail save with the AND reads b's words once —
// the forward-checking prune step at its hottest.
func (b *Bitset) IntersectSave(arena []uint64, o *Bitset) ([]uint64, bool) {
	var any uint64
	for i, w := range b.words {
		arena = append(arena, w)
		b.words[i] = w & o.words[i]
		any |= b.words[i]
	}
	return arena, any != 0
}

// IntersectCountInto sets dst = a ∩ b and returns the resulting
// cardinality. dst may alias a (the in-place prune) or be a separate
// accumulator; all three must share a universe.
func IntersectCountInto(dst, a, b *Bitset) int {
	n := 0
	for i := range dst.words {
		dst.words[i] = a.words[i] & b.words[i]
		n += bits.OnesCount64(dst.words[i])
	}
	return n
}

// DifferenceInto sets dst = a \ b in one pass. dst may alias a or b; all
// three must share a universe.
func DifferenceInto(dst, a, b *Bitset) {
	for i := range dst.words {
		dst.words[i] = a.words[i] &^ b.words[i]
	}
}

// Max returns the largest member, or -1 when the bitset is empty — the
// backjump-target computation over conflict sets.
func (b *Bitset) Max() int32 {
	for i := len(b.words) - 1; i >= 0; i-- {
		if w := b.words[i]; w != 0 {
			return int32(i<<6) + int32(63-bits.LeadingZeros64(w))
		}
	}
	return -1
}

// AndNotWith replaces b with b \ o and reports whether the result is
// non-empty.
func (b *Bitset) AndNotWith(o *Bitset) bool {
	var any uint64
	for i, w := range o.words {
		b.words[i] &^= w
		any |= b.words[i]
	}
	return any != 0
}

// UnionWith replaces b with b ∪ o.
func (b *Bitset) UnionWith(o *Bitset) {
	for i, w := range o.words {
		b.words[i] |= w
	}
}

// Equal reports whether b and o hold the same members.
func (b *Bitset) Equal(o *Bitset) bool {
	if b.n != o.n {
		return false
	}
	for i, w := range b.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// AppendTo appends b's members to dst in ascending order and returns the
// extended slice: the set listed as a Set.
func (b *Bitset) AppendTo(dst Set) Set {
	for i, w := range b.words {
		base := int32(i << 6)
		for w != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// ForEach visits the members in ascending order until visit returns false.
func (b *Bitset) ForEach(visit func(x int32) bool) {
	for i, w := range b.words {
		base := int32(i << 6)
		for w != 0 {
			if !visit(base + int32(bits.TrailingZeros64(w))) {
				return
			}
			w &= w - 1
		}
	}
}

// MinOver returns the minimum of vals[x] over b's members (ok=false for
// the empty set). It is the branch-and-bound lower-bound reduction: with
// vals holding per-host objective terms and b a live candidate domain,
// the answer is the cheapest assignment the domain still admits.
func (b *Bitset) MinOver(vals []float64) (min float64, ok bool) {
	for i, w := range b.words {
		base := int32(i << 6)
		for w != 0 {
			v := vals[base+int32(bits.TrailingZeros64(w))]
			if !ok || v < min {
				min, ok = v, true
			}
			w &= w - 1
		}
	}
	return min, ok
}
