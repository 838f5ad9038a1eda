// Package bitset provides compact integer sets used as points-to sets by the
// pointer-analysis solver. Node identifiers are small dense integers, so the
// large-set representation is a word array indexed by id/64.
//
// Most points-to sets in a real solve are tiny — singletons and doubletons
// dominate — so Set is a hybrid: up to InlineThreshold elements live in a
// small inline array (no heap allocation beyond the Set itself, no O(max/64)
// word scans), and the set promotes itself to the bit-vector representation
// on the first Add that would exceed the threshold. Promotion is one-way:
// removals never demote a vector back to the inline form.
//
// The zero value of Set is an empty (inline) set ready for use.
//
// Concurrency: a Set carries no locks. Methods that mutate the receiver
// (Add, Remove, UnionWith, UnionDelta, Clear)
// require exclusive access. Methods that only read the receiver and their
// arguments (Has, Len, Empty, ForEach, Elements, AppendElements, Min, Max,
// SubsetOf, Equal, Intersects, Clone, String) are safe to call from any
// number of goroutines concurrently, provided no goroutine mutates the sets
// involved for the duration. Finished pointsto Results rely on exactly this
// contract: the cached analyses that runner workers and kscope-serve's
// snapshot projection read from many goroutines are never mutated after
// Solve, so their sets are shared without locks.
package bitset

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

const wordBits = 64

// InlineThreshold is the maximum cardinality the inline small-set
// representation holds. A set stays inline until the Add that would create
// its (InlineThreshold+1)-th element, at which point it promotes to the
// bit-vector representation and never demotes. The value is pinned by
// TestInlinePromotionPoint; changing it changes allocation behavior but not
// semantics.
const InlineThreshold = 4

// Set is a hybrid set of non-negative integers: an inline sorted array up to
// InlineThreshold elements, a bit vector beyond.
//
// Representation invariant: words == nil means inline mode, where
// small[:count] holds the elements sorted ascending and distinct; words !=
// nil means vector mode, where count caches the vector's cardinality.
type Set struct {
	small [InlineThreshold]int32
	words []uint64
	count int
}

// New returns an empty set. A positive capacity hint n pre-sizes the
// bit-vector representation for elements in [0, n); n <= 0 (the common case
// for points-to sets, which are usually tiny) starts in inline mode.
func New(n int) *Set {
	if n <= 0 {
		return &Set{}
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// inline reports whether s is in inline mode.
func (s *Set) inline() bool { return s.words == nil }

// promote converts an inline set to vector mode with room for maxElem.
func (s *Set) promote(maxElem int) {
	if s.count > 0 && int(s.small[s.count-1]) > maxElem {
		maxElem = int(s.small[s.count-1])
	}
	words := make([]uint64, maxElem/wordBits+1)
	for i := 0; i < s.count; i++ {
		x := s.small[i]
		words[int(x)/wordBits] |= 1 << uint(int(x)%wordBits)
	}
	s.words = words
}

// grow ensures a vector-mode set can hold element x. Capacity doubles from
// the current word count (respecting whatever New's hint or earlier growth
// already allocated) instead of over-allocating 50% past the needed index,
// so a single large outlier element costs exactly its own words.
func (s *Set) grow(x int) {
	need := x/wordBits + 1
	if need <= len(s.words) {
		return
	}
	newCap := 2 * len(s.words)
	if newCap < need {
		newCap = need
	}
	nw := make([]uint64, newCap)
	copy(nw, s.words)
	s.words = nw
}

// Add inserts x and reports whether the set changed.
func (s *Set) Add(x int) bool {
	if x < 0 {
		panic(fmt.Sprintf("bitset: negative element %d", x))
	}
	if s.inline() {
		i := 0
		for ; i < s.count; i++ {
			if int(s.small[i]) == x {
				return false
			}
			if int(s.small[i]) > x {
				break
			}
		}
		if s.count < InlineThreshold && x <= 1<<31-1 {
			copy(s.small[i+1:s.count+1], s.small[i:s.count])
			s.small[i] = int32(x)
			s.count++
			return true
		}
		s.promote(x)
	}
	s.grow(x)
	w, b := x/wordBits, uint(x%wordBits)
	if s.words[w]&(1<<b) != 0 {
		return false
	}
	s.words[w] |= 1 << b
	s.count++
	return true
}

// Remove deletes x and reports whether the set changed.
func (s *Set) Remove(x int) bool {
	if x < 0 {
		return false
	}
	if s.inline() {
		for i := 0; i < s.count; i++ {
			if int(s.small[i]) == x {
				copy(s.small[i:s.count-1], s.small[i+1:s.count])
				s.count--
				return true
			}
		}
		return false
	}
	if x/wordBits >= len(s.words) {
		return false
	}
	w, b := x/wordBits, uint(x%wordBits)
	if s.words[w]&(1<<b) == 0 {
		return false
	}
	s.words[w] &^= 1 << b
	s.count--
	return true
}

// Has reports whether x is in the set.
func (s *Set) Has(x int) bool {
	if x < 0 {
		return false
	}
	if s.inline() {
		for i := 0; i < s.count; i++ {
			if int(s.small[i]) == x {
				return true
			}
		}
		return false
	}
	w := x / wordBits
	if w >= len(s.words) {
		return false
	}
	return s.words[w]&(1<<uint(x%wordBits)) != 0
}

// Len returns the cardinality of the set.
func (s *Set) Len() int { return s.count }

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool { return s.count == 0 }

// UnionWith adds every element of t to s and reports whether s changed.
func (s *Set) UnionWith(t *Set) bool {
	if t == nil || t.count == 0 {
		return false
	}
	if t.inline() {
		changed := false
		for i := 0; i < t.count; i++ {
			if s.Add(int(t.small[i])) {
				changed = true
			}
		}
		return changed
	}
	if s.inline() {
		s.promote(len(t.words)*wordBits - 1)
	}
	if len(t.words) > len(s.words) {
		nw := make([]uint64, len(t.words))
		copy(nw, s.words)
		s.words = nw
	}
	changed := false
	for i, tw := range t.words {
		if tw == 0 {
			continue
		}
		old := s.words[i]
		merged := old | tw
		if merged != old {
			s.words[i] = merged
			s.count += bits.OnesCount64(merged) - bits.OnesCount64(old)
			changed = true
		}
	}
	return changed
}

// UnionDelta adds every element of t to s, records each element newly set in
// s into delta, and returns the number of newly-set bits. It is the solver's
// difference-propagation fast path: one pass computes both the union and the
// delta instead of a UnionWith followed by a set difference. delta may be
// nil, in which case only the union and the changed-bit count remain.
func (s *Set) UnionDelta(t, delta *Set) int {
	if t == nil || t.count == 0 {
		return 0
	}
	added := 0
	if t.inline() || s.inline() {
		// At least one side is small: element-wise insertion is both the
		// simple and the fast path (s stays inline when the union fits).
		record := func(x int) {
			if s.Add(x) {
				if delta != nil {
					delta.Add(x)
				}
				added++
			}
		}
		if t.inline() {
			for i := 0; i < t.count; i++ {
				record(int(t.small[i]))
			}
		} else {
			t.ForEach(func(x int) bool { record(x); return true })
		}
		return added
	}
	if len(t.words) > len(s.words) {
		nw := make([]uint64, len(t.words))
		copy(nw, s.words)
		s.words = nw
	}
	for i, tw := range t.words {
		if tw == 0 {
			continue
		}
		fresh := tw &^ s.words[i]
		if fresh == 0 {
			continue
		}
		s.words[i] |= tw
		n := bits.OnesCount64(fresh)
		s.count += n
		added += n
		if delta != nil {
			for w := fresh; w != 0; {
				b := bits.TrailingZeros64(w)
				delta.Add(i*wordBits + b)
				w &^= 1 << uint(b)
			}
		}
	}
	return added
}

// SubsetOf reports whether every element of s is in t.
func (s *Set) SubsetOf(t *Set) bool {
	if s.inline() {
		for i := 0; i < s.count; i++ {
			if t == nil || !t.Has(int(s.small[i])) {
				return false
			}
		}
		return true
	}
	if t == nil || t.inline() {
		if t == nil {
			return s.count == 0
		}
		if s.count > t.count {
			return false
		}
		ok := true
		s.ForEach(func(x int) bool {
			if !t.Has(x) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	for i, sw := range s.words {
		if sw == 0 {
			continue
		}
		var tw uint64
		if i < len(t.words) {
			tw = t.words[i]
		}
		if sw&^tw != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of s, preserving its representation.
func (s *Set) Clone() *Set {
	c := &Set{small: s.small, count: s.count}
	if s.words != nil {
		c.words = make([]uint64, len(s.words))
		copy(c.words, s.words)
	}
	return c
}

// Clear removes all elements, retaining a vector's capacity (an inline set
// stays inline; a promoted set stays promoted).
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
	s.count = 0
}

// ForEach calls f for each element in ascending order. If f returns false,
// iteration stops.
func (s *Set) ForEach(f func(x int) bool) {
	if s.inline() {
		for i := 0; i < s.count; i++ {
			if !f(int(s.small[i])) {
				return
			}
		}
		return
	}
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !f(i*wordBits + b) {
				return
			}
			w &^= 1 << uint(b)
		}
	}
}

// Elements returns the elements in ascending order.
func (s *Set) Elements() []int {
	return s.AppendElements(make([]int, 0, s.count))
}

// AppendElements appends the elements to buf in ascending order and returns
// the extended slice, so a caller that reuses buf[:0] across calls lists
// sets without allocating once buf has grown to the largest of them.
func (s *Set) AppendElements(buf []int) []int {
	if s.inline() {
		for i := 0; i < s.count; i++ {
			buf = append(buf, int(s.small[i]))
		}
		return buf
	}
	buf = slices.Grow(buf, s.count)
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			buf = append(buf, i*wordBits+b)
			w &^= 1 << uint(b)
		}
	}
	return buf
}

// String renders the set as "{1, 5, 9}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(x int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", x)
		return true
	})
	b.WriteByte('}')
	return b.String()
}
