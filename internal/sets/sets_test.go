package sets

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// refSet is a map-based reference implementation for property tests.
type refSet map[int32]bool

func toRef(s Set) refSet {
	m := make(refSet, len(s))
	for _, x := range s {
		m[x] = true
	}
	return m
}

func fromRef(m refSet) Set {
	s := make(Set, 0, len(m))
	for x := range m {
		s = append(s, x)
	}
	slices.Sort(s)
	return s
}

// setOf returns the members of raw as a sorted set, through the reference.
func setOf(raw []int32) Set { return fromRef(toRef(raw)) }

func refInter(a, b refSet) refSet {
	out := make(refSet)
	for x := range a {
		if b[x] {
			out[x] = true
		}
	}
	return out
}

func refUnion(a, b refSet) refSet {
	out := make(refSet, len(a)+len(b))
	for x := range a {
		out[x] = true
	}
	for x := range b {
		out[x] = true
	}
	return out
}

func refMinus(a, b refSet) refSet {
	out := make(refSet)
	for x := range a {
		if !b[x] {
			out[x] = true
		}
	}
	return out
}

func randSet(r *rand.Rand, maxVal int32) Set {
	raw := make([]int32, r.Intn(40))
	for i := range raw {
		raw[i] = r.Int31n(maxVal)
	}
	return setOf(raw)
}

// clip bounds quick-generated values into a small domain so collisions are
// frequent enough to exercise the interesting paths.
func clip(raw []int32) []int32 {
	out := make([]int32, len(raw))
	for i, v := range raw {
		if v < 0 {
			v = -v
		}
		out[i] = v % clipUniverse
	}
	return out
}

const clipUniverse = 97

func TestContains(t *testing.T) {
	s := Set{1, 3, 5, 9, 11, 64}
	b := FromSet(100, s)
	for _, x := range s {
		if !b.Has(x) {
			t.Errorf("Has(%d) = false, want true", x)
		}
	}
	for _, x := range []int32{0, 2, 4, 10, 12, 63, 65, 99} {
		if b.Has(x) {
			t.Errorf("Has(%d) = true, want false", x)
		}
	}
}

func TestIntersectBasic(t *testing.T) {
	cases := []struct {
		a, b, want Set
	}{
		{Set{1, 2, 3}, Set{2, 3, 4}, Set{2, 3}},
		{Set{1, 2, 3}, Set{4, 5}, nil},
		{nil, Set{1}, nil},
		{Set{1, 65, 99}, Set{1, 65, 99}, Set{1, 65, 99}},
		{Set{1}, Set{1}, Set{1}},
	}
	for _, c := range cases {
		for _, ops := range [][2]Set{{c.a, c.b}, {c.b, c.a}} { // symmetric
			got := FromSet(100, ops[0])
			nonempty := got.IntersectWith(FromSet(100, ops[1]))
			if !slices.Equal(got.AppendTo(nil), c.want) || nonempty != (len(c.want) > 0) {
				t.Errorf("%v ∩ %v = %v (non-empty %v), want %v", ops[0], ops[1], got.AppendTo(nil), nonempty, c.want)
			}
		}
	}
}

func TestUnionSubtract(t *testing.T) {
	a, b := Set{1, 3, 65}, Set{2, 3, 66}
	check := func(op string, got *Bitset, want Set) {
		t.Helper()
		if !slices.Equal(got.AppendTo(nil), want) {
			t.Errorf("%s = %v, want %v", op, got.AppendTo(nil), want)
		}
	}
	u := FromSet(100, a)
	u.UnionWith(FromSet(100, b))
	check("a ∪ b", u, Set{1, 2, 3, 65, 66})
	d := FromSet(100, a)
	d.AndNotWith(FromSet(100, b))
	check("a \\ b", d, Set{1, 65})
	d = FromSet(100, b)
	d.AndNotWith(FromSet(100, a))
	check("b \\ a", d, Set{2, 66})
	d = FromSet(100, a)
	d.AndNotWith(NewBitset(100))
	check("a \\ ∅", d, a)
}

func TestInsertRemove(t *testing.T) {
	b := NewBitset(100)
	for _, x := range []int32{5, 1, 3, 3, 2, 70} {
		b.Set(x) // inserting a member again is a no-op
	}
	if got := b.AppendTo(nil); !slices.Equal(got, Set{1, 2, 3, 5, 70}) {
		t.Fatalf("after inserts: %v", got)
	}
	b.Clear(3)
	b.Clear(42) // absent: no-op
	if got := b.AppendTo(nil); !slices.Equal(got, Set{1, 2, 5, 70}) {
		t.Fatalf("after removes: %v", got)
	}
}

func TestClone(t *testing.T) {
	a := FromSet(100, Set{1, 2})
	c := a.Clone()
	c.Clear(1)
	if !a.Has(1) {
		t.Error("Clone aliases input")
	}
	if e := NewBitset(100).Clone(); e.Any() || e.Len() != 100 {
		t.Error("Clone of an empty bitset is not empty over the same universe")
	}
}

func TestSetAlgebraMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		a, b := randSet(r, 130), randSet(r, 130)
		ra, rb := toRef(a), toRef(b)
		ba, bb := FromSet(130, a), FromSet(130, b)

		inter := ba.Clone()
		inter.IntersectWith(bb)
		if got, want := inter.AppendTo(nil), fromRef(refInter(ra, rb)); !slices.Equal(got, want) {
			t.Fatalf("%v ∩ %v = %v, want %v", a, b, got, want)
		}
		union := ba.Clone()
		union.UnionWith(bb)
		if got, want := union.AppendTo(nil), fromRef(refUnion(ra, rb)); !slices.Equal(got, want) {
			t.Fatalf("%v ∪ %v = %v, want %v", a, b, got, want)
		}
		minus := ba.Clone()
		minus.AndNotWith(bb)
		if got, want := minus.AppendTo(nil), fromRef(refMinus(ra, rb)); !slices.Equal(got, want) {
			t.Fatalf("%v \\ %v = %v, want %v", a, b, got, want)
		}
	}
}

func TestQuickIntersectionProperties(t *testing.T) {
	// An intersection is a subset of both inputs holding every common
	// element, and Intersects reports exactly whether it is non-empty.
	f := func(rawA, rawB []int32) bool {
		a, b := FromSet(clipUniverse, clip(rawA)), FromSet(clipUniverse, clip(rawB))
		got := a.Clone()
		nonempty := got.IntersectWith(b)
		for x := int32(0); x < clipUniverse; x++ {
			if got.Has(x) != (a.Has(x) && b.Has(x)) {
				return false
			}
		}
		return nonempty == got.Any() && a.Intersects(b) == got.Any()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickUnionCommutesAndIdempotent(t *testing.T) {
	f := func(rawA, rawB []int32) bool {
		a, b := FromSet(clipUniverse, clip(rawA)), FromSet(clipUniverse, clip(rawB))
		ab, ba, aa := a.Clone(), b.Clone(), a.Clone()
		ab.UnionWith(b)
		ba.UnionWith(a)
		aa.UnionWith(a)
		return ab.Equal(ba) && aa.Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickDeMorganViaSubtract(t *testing.T) {
	// a\(b∪c) == (a\b)∩(a\c)
	f := func(rawA, rawB, rawC []int32) bool {
		a := FromSet(clipUniverse, clip(rawA))
		b := FromSet(clipUniverse, clip(rawB))
		c := FromSet(clipUniverse, clip(rawC))
		bc := b.Clone()
		bc.UnionWith(c)
		left := a.Clone()
		left.AndNotWith(bc)
		right, ac := a.Clone(), a.Clone()
		right.AndNotWith(b)
		ac.AndNotWith(c)
		right.IntersectWith(ac)
		return left.Equal(right)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d", b.Len())
	}
	for _, x := range []int32{0, 63, 64, 129} {
		if b.Has(x) {
			t.Errorf("fresh bitmap has %d", x)
		}
		b.Set(x)
		if !b.Has(x) {
			t.Errorf("Set(%d) not visible", x)
		}
	}
	if got := b.Count(); got != 4 {
		t.Errorf("Count = %d, want 4", got)
	}
	b.Clear(64)
	if b.Has(64) {
		t.Error("Clear(64) not visible")
	}
	b.Reset()
	if got := b.Count(); got != 0 {
		t.Errorf("Count after Reset = %d", got)
	}
}
