// Package bitset provides a dynamically sized bit set.
//
// GC+ uses bit sets pervasively: a cached query's answer set and its
// dataset-graph-validity indicator CGvalid (Algorithm 2 of the paper) are
// both bit sets indexed by dataset graph id, and the candidate set handed
// to Method M is a bit set over the live dataset. The implementation is a
// plain []uint64 with copy-on-grow semantics; it is not safe for
// concurrent mutation.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a dynamically sized bit set. The zero value is an empty set ready
// to use. Bits beyond the highest ever set are implicitly zero.
type Set struct {
	words []uint64
}

// New returns a set with capacity preallocated for bits [0, n).
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromIndices builds a set containing exactly the given indices.
func FromIndices(idx ...int) *Set {
	s := &Set{}
	for _, i := range idx {
		s.Set(i)
	}
	return s
}

func (s *Set) grow(word int) {
	if word < len(s.words) {
		return
	}
	nw := make([]uint64, word+1)
	copy(nw, s.words)
	s.words = nw
}

// Set sets bit i to true. Negative indices panic.
func (s *Set) Set(i int) {
	if i < 0 {
		panic(fmt.Sprintf("bitset: negative index %d", i))
	}
	w := i / wordBits
	s.grow(w)
	s.words[w] |= 1 << uint(i%wordBits)
}

// Clear sets bit i to false.
func (s *Set) Clear(i int) {
	if i < 0 {
		panic(fmt.Sprintf("bitset: negative index %d", i))
	}
	w := i / wordBits
	if w < len(s.words) {
		s.words[w] &^= 1 << uint(i%wordBits)
	}
}

// SetTo sets bit i to v.
func (s *Set) SetTo(i int, v bool) {
	if v {
		s.Set(i)
	} else {
		s.Clear(i)
	}
}

// Get reports whether bit i is set. Out-of-range indices report false.
func (s *Set) Get(i int) bool {
	if i < 0 {
		return false
	}
	w := i / wordBits
	if w >= len(s.words) {
		return false
	}
	return s.words[w]&(1<<uint(i%wordBits)) != 0
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// None reports whether no bit is set.
func (s *Set) None() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Any reports whether at least one bit is set.
func (s *Set) Any() bool { return !s.None() }

// Len returns one past the highest bit that could be set without growth
// (the current capacity in bits). It mirrors java.util.BitSet.size() as
// used by Algorithm 2's length check.
func (s *Set) Len() int { return len(s.words) * wordBits }

// Clone returns a deep copy.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// CopyFrom overwrites s with the contents of o.
func (s *Set) CopyFrom(o *Set) {
	if len(s.words) < len(o.words) {
		s.words = make([]uint64, len(o.words))
	} else {
		for i := len(o.words); i < len(s.words); i++ {
			s.words[i] = 0
		}
		s.words = s.words[:maxInt(len(s.words), len(o.words))]
	}
	copy(s.words, o.words)
}

// Reset clears all bits, retaining capacity.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// And intersects s with o in place.
func (s *Set) And(o *Set) {
	n := len(s.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		s.words[i] &= o.words[i]
	}
	for i := n; i < len(s.words); i++ {
		s.words[i] = 0
	}
}

// Or unions o into s.
func (s *Set) Or(o *Set) {
	if len(o.words) > len(s.words) {
		s.grow(len(o.words) - 1)
	}
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// AndNot removes every bit of o from s (set difference).
func (s *Set) AndNot(o *Set) {
	n := len(s.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		s.words[i] &^= o.words[i]
	}
}

// IntersectionCount returns |s ∩ o| without allocating.
func (s *Set) IntersectionCount(o *Set) int {
	n := len(s.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	c := 0
	for i := 0; i < n; i++ {
		c += bits.OnesCount64(s.words[i] & o.words[i])
	}
	return c
}

// Intersects reports whether s ∩ o is non-empty.
func (s *Set) Intersects(o *Set) bool {
	n := len(s.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// IsSubsetOf reports whether every bit of s is also set in o.
func (s *Set) IsSubsetOf(o *Set) bool {
	for i, w := range s.words {
		var ow uint64
		if i < len(o.words) {
			ow = o.words[i]
		}
		if w&^ow != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and o contain exactly the same bits.
func (s *Set) Equal(o *Set) bool {
	n := len(s.words)
	if len(o.words) > n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		var sw, ow uint64
		if i < len(s.words) {
			sw = s.words[i]
		}
		if i < len(o.words) {
			ow = o.words[i]
		}
		if sw != ow {
			return false
		}
	}
	return true
}

// ForEach calls fn for every set bit in ascending order. If fn returns
// false, iteration stops early.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Indices returns the set bits in ascending order.
func (s *Set) Indices() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// ComplementWithin returns universe \ s as a new set. It is the paper's
// "complementary set of CGvalid against the state-of-the-art dataset"
// (formula (4)), where universe is the set of live dataset graph ids.
func (s *Set) ComplementWithin(universe *Set) *Set {
	c := universe.Clone()
	c.AndNot(s)
	return c
}

// String renders the set as "{1, 5, 9}" for debugging.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		return true
	})
	b.WriteByte('}')
	return b.String()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
