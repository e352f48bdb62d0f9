package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestZeroValueUsable(t *testing.T) {
	var s Set
	if s.Any() {
		t.Fatal("zero set should be empty")
	}
	if s.Get(100) {
		t.Fatal("unset bit reported set")
	}
	s.Set(100)
	if !s.Get(100) {
		t.Fatal("bit 100 should be set")
	}
	if got := s.Count(); got != 1 {
		t.Fatalf("Count = %d, want 1", got)
	}
}

func TestSetClearGet(t *testing.T) {
	s := New(10)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 1000} {
		s.Set(i)
		if !s.Get(i) {
			t.Errorf("Get(%d) = false after Set", i)
		}
		s.Clear(i)
		if s.Get(i) {
			t.Errorf("Get(%d) = true after Clear", i)
		}
	}
}

func TestSetToMatchesSetClear(t *testing.T) {
	s := New(0)
	s.SetTo(7, true)
	if !s.Get(7) {
		t.Fatal("SetTo(7,true) did not set")
	}
	s.SetTo(7, false)
	if s.Get(7) {
		t.Fatal("SetTo(7,false) did not clear")
	}
}

func TestNegativeIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set(-1) should panic")
		}
	}()
	New(0).Set(-1)
}

func TestClearBeyondLenNoop(t *testing.T) {
	s := New(1)
	s.Clear(5000) // must not panic or grow
	if s.Len() >= 5000 {
		t.Fatal("Clear grew the set")
	}
}

func TestCountNoneAny(t *testing.T) {
	s := New(200)
	if !s.None() || s.Any() {
		t.Fatal("fresh set should be None")
	}
	s.Set(3)
	s.Set(150)
	if s.Count() != 2 {
		t.Fatalf("Count = %d, want 2", s.Count())
	}
	if s.None() || !s.Any() {
		t.Fatal("set with bits should be Any")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := FromIndices(1, 2, 3)
	c := s.Clone()
	c.Set(99)
	if s.Get(99) {
		t.Fatal("mutating clone affected original")
	}
	s.Clear(2)
	if !c.Get(2) {
		t.Fatal("mutating original affected clone")
	}
}

func TestCopyFrom(t *testing.T) {
	s := FromIndices(1, 500)
	o := FromIndices(2, 3)
	s.CopyFrom(o)
	if !s.Equal(o) {
		t.Fatalf("CopyFrom: got %v want %v", s, o)
	}
	if s.Get(500) {
		t.Fatal("stale high bit survived CopyFrom")
	}
}

func TestBooleanOps(t *testing.T) {
	a := FromIndices(1, 2, 3, 100)
	b := FromIndices(2, 3, 4, 200)

	and := a.Clone()
	and.And(b)
	if got, want := and.String(), "{2, 3}"; got != want {
		t.Errorf("And = %s, want %s", got, want)
	}

	or := a.Clone()
	or.Or(b)
	if got, want := or.Count(), 6; got != want {
		t.Errorf("Or count = %d, want %d", got, want)
	}

	diff := a.Clone()
	diff.AndNot(b)
	if got, want := diff.String(), "{1, 100}"; got != want {
		t.Errorf("AndNot = %s, want %s", got, want)
	}
}

func TestAndShrinksHighBits(t *testing.T) {
	a := FromIndices(1, 700)
	b := FromIndices(1)
	a.And(b)
	if a.Get(700) {
		t.Fatal("And left a high bit set beyond the shorter operand")
	}
}

func TestIntersectionCountAndIntersects(t *testing.T) {
	a := FromIndices(0, 64, 128)
	b := FromIndices(64, 128, 256)
	if got := a.IntersectionCount(b); got != 2 {
		t.Fatalf("IntersectionCount = %d, want 2", got)
	}
	if !a.Intersects(b) {
		t.Fatal("Intersects = false, want true")
	}
	c := FromIndices(1, 2)
	if a.Intersects(c) {
		t.Fatal("Intersects = true, want false")
	}
	if got := a.IntersectionCount(c); got != 0 {
		t.Fatalf("IntersectionCount = %d, want 0", got)
	}
}

func TestSubsetEqual(t *testing.T) {
	a := FromIndices(1, 2)
	b := FromIndices(1, 2, 3)
	if !a.IsSubsetOf(b) {
		t.Fatal("a should be subset of b")
	}
	if b.IsSubsetOf(a) {
		t.Fatal("b should not be subset of a")
	}
	if !a.IsSubsetOf(a.Clone()) {
		t.Fatal("a should be subset of itself")
	}
	// Equal must ignore trailing zero words.
	c := New(1000)
	c.Set(1)
	c.Set(2)
	if !a.Equal(c) {
		t.Fatal("Equal should ignore capacity differences")
	}
}

func TestForEachOrderAndEarlyStop(t *testing.T) {
	s := FromIndices(5, 1, 300, 64)
	var got []int
	s.ForEach(func(i int) bool {
		got = append(got, i)
		return true
	})
	want := []int{1, 5, 64, 300}
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach visited %v, want %v", got, want)
		}
	}
	n := 0
	s.ForEach(func(i int) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("early stop visited %d, want 2", n)
	}
}

func TestIndices(t *testing.T) {
	s := FromIndices(9, 0, 63, 64)
	got := s.Indices()
	want := []int{0, 9, 63, 64}
	if len(got) != len(want) {
		t.Fatalf("Indices = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Indices = %v, want %v", got, want)
		}
	}
}

func TestComplementWithin(t *testing.T) {
	universe := FromIndices(0, 1, 2, 3, 4)
	s := FromIndices(1, 3, 9) // 9 outside universe must be ignored
	c := s.ComplementWithin(universe)
	if got, want := c.String(), "{0, 2, 4}"; got != want {
		t.Fatalf("ComplementWithin = %s, want %s", got, want)
	}
}

func TestReset(t *testing.T) {
	s := FromIndices(1, 2, 3)
	s.Reset()
	if s.Any() {
		t.Fatal("Reset left bits set")
	}
}

func TestString(t *testing.T) {
	if got := New(0).String(); got != "{}" {
		t.Fatalf("empty String = %q", got)
	}
	if got := FromIndices(2, 7).String(); got != "{2, 7}" {
		t.Fatalf("String = %q", got)
	}
}

// reference is a map-backed model used by the property tests.
type reference map[int]bool

func (r reference) toSet() *Set {
	s := New(0)
	for i, v := range r {
		if v {
			s.Set(i)
		}
	}
	return s
}

// TestQuickAgainstReference drives random operation sequences against both
// the bitset and a map model and requires identical observable state.
func TestQuickAgainstReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(0)
		ref := reference{}
		for step := 0; step < 300; step++ {
			i := rng.Intn(300)
			switch rng.Intn(3) {
			case 0:
				s.Set(i)
				ref[i] = true
			case 1:
				s.Clear(i)
				delete(ref, i)
			case 2:
				if s.Get(i) != ref[i] {
					return false
				}
			}
		}
		count := 0
		for _, v := range ref {
			if v {
				count++
			}
		}
		return s.Count() == count && s.Equal(ref.toSet())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBooleanLaws checks algebraic identities on random pairs.
func TestQuickBooleanLaws(t *testing.T) {
	gen := func(rng *rand.Rand) *Set {
		s := New(0)
		n := rng.Intn(100)
		for i := 0; i < n; i++ {
			s.Set(rng.Intn(256))
		}
		return s
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := gen(rng), gen(rng)

		// |a ∩ b| + |a \ b| == |a|
		ab := a.Clone()
		ab.And(b)
		diff := a.Clone()
		diff.AndNot(b)
		if ab.Count()+diff.Count() != a.Count() {
			return false
		}
		// De Morgan within a universe: U\(a ∪ b) == (U\a) ∩ (U\b)
		u := New(0)
		for i := 0; i < 256; i++ {
			u.Set(i)
		}
		union := a.Clone()
		union.Or(b)
		lhs := union.ComplementWithin(u)
		rhs := a.ComplementWithin(u)
		rhs.And(b.ComplementWithin(u))
		if !lhs.Equal(rhs) {
			return false
		}
		// IntersectionCount agrees with materialized And.
		if a.IntersectionCount(b) != ab.Count() {
			return false
		}
		// subset relations
		if !ab.IsSubsetOf(a) || !ab.IsSubsetOf(b) || !a.IsSubsetOf(union) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSetGet(b *testing.B) {
	s := New(4096)
	for i := 0; i < b.N; i++ {
		s.Set(i % 4096)
		_ = s.Get((i * 7) % 4096)
	}
}

func BenchmarkAnd(b *testing.B) {
	x := New(40000)
	y := New(40000)
	for i := 0; i < 40000; i += 3 {
		x.Set(i)
	}
	for i := 0; i < 40000; i += 5 {
		y.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := x.Clone()
		c.And(y)
	}
}
