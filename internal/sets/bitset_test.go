package sets

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// Every algebraic operation of the bitset is property-tested against the
// map reference (refSet) on randomized inputs, its result listed as a
// sorted set.

const bitsetUniverse = 200 // spans several words, not word-aligned

// clipU maps arbitrary quick-generated values into [0, bitsetUniverse).
func clipU(raw []int32) []int32 {
	out := make([]int32, len(raw))
	for i, v := range raw {
		if v < 0 {
			v = -v
		}
		out[i] = v % bitsetUniverse
	}
	return out
}

func TestBitsetRoundTrip(t *testing.T) {
	f := func(raw []int32) bool {
		s := setOf(clipU(raw))
		b := FromSet(bitsetUniverse, s)
		return slices.Equal(b.AppendTo(nil), s) && b.Count() == len(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBitsetIntersectMatchesSlice(t *testing.T) {
	f := func(rawA, rawB []int32) bool {
		a, b := setOf(clipU(rawA)), setOf(clipU(rawB))
		want := fromRef(refInter(toRef(a), toRef(b)))
		ba := FromSet(bitsetUniverse, a)
		nonempty := ba.IntersectWith(FromSet(bitsetUniverse, b))
		return slices.Equal(ba.AppendTo(nil), want) && nonempty == (len(want) > 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBitsetAndNotMatchesSlice(t *testing.T) {
	f := func(rawA, rawB []int32) bool {
		a, b := setOf(clipU(rawA)), setOf(clipU(rawB))
		want := fromRef(refMinus(toRef(a), toRef(b)))
		ba := FromSet(bitsetUniverse, a)
		nonempty := ba.AndNotWith(FromSet(bitsetUniverse, b))
		// DifferenceInto into a fresh set and aliasing either operand.
		into, da, db := NewBitset(bitsetUniverse), FromSet(bitsetUniverse, a), FromSet(bitsetUniverse, b)
		DifferenceInto(into, da, db)
		aliasB := db.Clone()
		DifferenceInto(aliasB, da, aliasB)
		DifferenceInto(da, da, db)
		return slices.Equal(ba.AppendTo(nil), want) && nonempty == (len(want) > 0) &&
			slices.Equal(into.AppendTo(nil), want) && slices.Equal(aliasB.AppendTo(nil), want) && slices.Equal(da.AppendTo(nil), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBitsetUnionMatchesSlice(t *testing.T) {
	f := func(rawA, rawB []int32) bool {
		a, b := setOf(clipU(rawA)), setOf(clipU(rawB))
		want := fromRef(refUnion(toRef(a), toRef(b)))
		ba := FromSet(bitsetUniverse, a)
		ba.UnionWith(FromSet(bitsetUniverse, b))
		return slices.Equal(ba.AppendTo(nil), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBitsetCardinalityAndMembership(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(300)
		b := NewBitset(n)
		member := make(map[int32]bool)
		for i := 0; i < 2*n; i++ {
			x := int32(rng.Intn(n))
			if rng.Float64() < 0.6 {
				b.Set(x)
				member[x] = true
			} else {
				b.Clear(x)
				delete(member, x)
			}
		}
		if b.Count() != len(member) {
			t.Fatalf("trial %d: Count = %d, want %d", trial, b.Count(), len(member))
		}
		if b.Any() != (len(member) > 0) {
			t.Fatalf("trial %d: Any = %v with %d members", trial, b.Any(), len(member))
		}
		for x := int32(0); int(x) < n; x++ {
			if b.Has(x) != member[x] {
				t.Fatalf("trial %d: Has(%d) = %v, want %v", trial, x, b.Has(x), member[x])
			}
		}
	}
}

func TestBitsetForEachAscendingAndEarlyStop(t *testing.T) {
	s := Set{0, 1, 63, 64, 65, 127, 128, 199}
	b := FromSet(bitsetUniverse, s)
	var got Set
	b.ForEach(func(x int32) bool {
		got = append(got, x)
		return true
	})
	if !slices.Equal(got, s) {
		t.Errorf("ForEach visited %v, want %v", got, s)
	}
	var first Set
	b.ForEach(func(x int32) bool {
		first = append(first, x)
		return len(first) < 3
	})
	if !slices.Equal(first, s[:3]) {
		t.Errorf("early-stopped ForEach visited %v, want %v", first, s[:3])
	}
}

func TestBitsetCopyCloneEqual(t *testing.T) {
	a := FromSet(130, Set{1, 64, 129})
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal to original")
	}
	b.Set(2)
	if a.Equal(b) || a.Has(2) {
		t.Fatal("clone shares storage with original")
	}
	c := NewBitset(130)
	c.CopyFrom(b)
	if !c.Equal(b) {
		t.Fatal("CopyFrom result differs")
	}
	c.Reset()
	if c.Any() || c.Count() != 0 {
		t.Fatal("Reset left members behind")
	}
	if a.Equal(NewBitset(131)) {
		t.Fatal("bitsets with different universes reported equal")
	}
}

func TestBitsetIntersectCount(t *testing.T) {
	f := func(rawA, rawB []int32) bool {
		sa, sb := setOf(clipU(rawA)), setOf(clipU(rawB))
		a, b := FromSet(bitsetUniverse, sa), FromSet(bitsetUniverse, sb)
		want := fromRef(refInter(toRef(sa), toRef(sb)))
		into := NewBitset(bitsetUniverse)
		if n := IntersectCountInto(into, a, b); n != len(want) || !slices.Equal(into.AppendTo(nil), want) {
			return false
		}
		if n := a.IntersectCount(b); n != len(want) {
			return false
		}
		return slices.Equal(a.AppendTo(nil), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBitsetSaveRestoreSpan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := NewBitset(bitsetUniverse)
	for i := 0; i < 120; i++ {
		b.Set(int32(rng.Intn(bitsetUniverse)))
	}
	before := b.AppendTo(nil)
	// Save a span, mutate inside it, restore, and check byte identity.
	w0, n := 1, 2
	saved := b.SaveSpan(nil, w0, n)
	if len(saved) != n {
		t.Fatalf("SaveSpan returned %d words, want %d", len(saved), n)
	}
	for x := int32(64); x < 192; x++ {
		b.Clear(x)
	}
	b.RestoreSpan(saved, w0)
	if !slices.Equal(b.AppendTo(nil), before) {
		t.Fatal("RestoreSpan did not undo the mutation")
	}
	if WordOf(63) != 0 || WordOf(64) != 1 || WordOf(199) != 3 {
		t.Fatal("WordOf wrong")
	}
}

func TestBitsetMax(t *testing.T) {
	b := NewBitset(bitsetUniverse)
	if b.Max() != -1 {
		t.Fatal("empty Max != -1")
	}
	b.Set(3)
	b.Set(130)
	if b.Max() != 130 {
		t.Fatalf("Max = %d, want 130", b.Max())
	}
	b.Clear(130)
	if b.Max() != 3 {
		t.Fatalf("Max after clear = %d, want 3", b.Max())
	}
}
