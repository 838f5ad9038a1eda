package bitset

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestAddHasRemove(t *testing.T) {
	s := New(0)
	if s.Has(3) {
		t.Fatal("empty set reports membership")
	}
	if !s.Add(3) {
		t.Fatal("Add of new element returned false")
	}
	if s.Add(3) {
		t.Fatal("Add of existing element returned true")
	}
	if !s.Has(3) || s.Len() != 1 {
		t.Fatalf("set state after Add: has=%v len=%d", s.Has(3), s.Len())
	}
	if !s.Remove(3) {
		t.Fatal("Remove of existing element returned false")
	}
	if s.Remove(3) {
		t.Fatal("Remove of missing element returned true")
	}
	if s.Has(3) || s.Len() != 0 {
		t.Fatalf("set state after Remove: has=%v len=%d", s.Has(3), s.Len())
	}
}

func TestAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	New(0).Add(-1)
}

func TestGrowthAcrossWords(t *testing.T) {
	s := New(0)
	elems := []int{0, 63, 64, 127, 128, 1000, 4096}
	for _, e := range elems {
		s.Add(e)
	}
	for _, e := range elems {
		if !s.Has(e) {
			t.Errorf("missing %d", e)
		}
	}
	if s.Len() != len(elems) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(elems))
	}
	got := s.Elements()
	want := append([]int(nil), elems...)
	sort.Ints(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Elements = %v, want %v", got, want)
		}
	}
}

// TestAppendElements checks that AppendElements lists an inline set and a
// vector set in ascending order after whatever buf already holds, and that
// Elements (built on it) agrees.
func TestAppendElements(t *testing.T) {
	inline, vector := New(0), New(0)
	for _, x := range []int{7, 2, 40} {
		inline.Add(x)
	}
	for _, x := range []int{500, 3, 64, 63, 9, 1000} {
		vector.Add(x)
	}
	if !inline.inline() || vector.inline() {
		t.Fatal("fixture sets are not one inline and one vector set")
	}
	for _, tc := range []struct {
		name string
		s    *Set
		want []int
	}{
		{"inline", inline, []int{2, 7, 40}},
		{"vector", vector, []int{3, 9, 63, 64, 500, 1000}},
		{"empty", New(0), nil},
	} {
		if got := tc.s.AppendElements(nil); !slices.Equal(got, tc.want) {
			t.Errorf("%s: AppendElements(nil) = %v, want %v", tc.name, got, tc.want)
		}
		buf := append(make([]int, 0, 1), -1, -2)
		got := tc.s.AppendElements(buf)
		if want := append([]int{-1, -2}, tc.want...); !slices.Equal(got, want) {
			t.Errorf("%s: AppendElements(non-empty buf) = %v, want %v", tc.name, got, want)
		}
		// Reusing the grown buffer from empty must not allocate.
		got = got[:0]
		if n := testing.AllocsPerRun(10, func() { got = tc.s.AppendElements(got[:0]) }); n != 0 {
			t.Errorf("%s: AppendElements into a reused buffer allocated %.0f times", tc.name, n)
		}
		if els := tc.s.Elements(); !slices.Equal(els, tc.want) {
			t.Errorf("%s: Elements = %v, want %v", tc.name, els, tc.want)
		}
	}
}

func TestUnionWith(t *testing.T) {
	a, b := New(0), New(0)
	a.Add(1)
	a.Add(100)
	b.Add(2)
	b.Add(100)
	b.Add(500)
	if !a.UnionWith(b) {
		t.Fatal("union with new elements reported no change")
	}
	if a.UnionWith(b) {
		t.Fatal("idempotent union reported change")
	}
	for _, e := range []int{1, 2, 100, 500} {
		if !a.Has(e) {
			t.Errorf("union missing %d", e)
		}
	}
	if a.Len() != 4 {
		t.Fatalf("Len = %d, want 4", a.Len())
	}
	if a.UnionWith(nil) {
		t.Fatal("union with nil reported change")
	}
}

func TestSubsetOf(t *testing.T) {
	a, b := New(0), New(0)
	a.Add(10)
	a.Add(70)
	b.Add(70)
	if !b.SubsetOf(a) {
		t.Fatal("SubsetOf false for subset")
	}
	if a.SubsetOf(b) {
		t.Fatal("SubsetOf true for superset")
	}
	if !New(0).SubsetOf(b) {
		t.Fatal("empty set not subset")
	}
}

// equal reports whether s and t hold the same elements.
func equal(s, t *Set) bool { return slices.Equal(s.Elements(), t.Elements()) }

func TestClone(t *testing.T) {
	a := New(0)
	for _, e := range []int{5, 6, 900} {
		a.Add(e)
	}
	c := a.Clone()
	if !equal(a, c) {
		t.Fatal("clone not equal")
	}
	c.Add(7)
	if equal(a, c) || a.Has(7) {
		t.Fatal("clone aliases original")
	}
}

func TestClear(t *testing.T) {
	s := New(0)
	s.Add(42)
	s.Add(7)
	s.Add(300)
	s.Clear()
	if s.Len() != 0 || s.Has(42) {
		t.Fatal("Clear did not empty set")
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := New(0)
	for i := 0; i < 10; i++ {
		s.Add(i * 3)
	}
	n := 0
	s.ForEach(func(x int) bool {
		n++
		return n < 4
	})
	if n != 4 {
		t.Fatalf("early stop visited %d elements, want 4", n)
	}
}

func TestString(t *testing.T) {
	s := New(0)
	if got := s.String(); got != "{}" {
		t.Fatalf("empty String = %q", got)
	}
	s.Add(1)
	s.Add(5)
	if got := s.String(); got != "{1, 5}" {
		t.Fatalf("String = %q", got)
	}
}

// Property: the bitset behaves identically to a reference map-based set under
// random operation sequences.
func TestQuickAgainstMap(t *testing.T) {
	f := func(ops []uint16) bool {
		s := New(0)
		ref := map[int]bool{}
		for _, op := range ops {
			x := int(op % 512)
			switch op % 3 {
			case 0:
				added := s.Add(x)
				if added == ref[x] {
					return false
				}
				ref[x] = true
			case 1:
				removed := s.Remove(x)
				if removed != ref[x] {
					return false
				}
				delete(ref, x)
			case 2:
				if s.Has(x) != ref[x] {
					return false
				}
			}
		}
		if s.Len() != len(ref) {
			return false
		}
		for x := range ref {
			if !s.Has(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: union is commutative with respect to membership.
func TestQuickUnionCommutative(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a, b := New(0), New(0)
		for _, x := range xs {
			a.Add(int(x % 1024))
		}
		for _, y := range ys {
			b.Add(int(y % 1024))
		}
		ab := a.Clone()
		ab.UnionWith(b)
		ba := b.Clone()
		ba.UnionWith(a)
		return equal(ab, ba)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: A ⊆ A∪B and B ⊆ A∪B; (A∪B)∖B ⊆ A.
func TestQuickUnionDifferenceLaws(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a, b := New(0), New(0)
		for _, x := range xs {
			a.Add(int(x % 1024))
		}
		for _, y := range ys {
			b.Add(int(y % 1024))
		}
		u := a.Clone()
		u.UnionWith(b)
		if !a.SubsetOf(u) || !b.SubsetOf(u) {
			return false
		}
		inA := true
		u.ForEach(func(x int) bool {
			inA = b.Has(x) || a.Has(x)
			return inA
		})
		return inA
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUnionBitset(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := New(0)
	for i := 0; i < 500; i++ {
		src.Add(rng.Intn(8192))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := New(8192)
		dst.UnionWith(src)
	}
}

func BenchmarkUnionMapSet(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := map[int]bool{}
	for i := 0; i < 500; i++ {
		src[rng.Intn(8192)] = true
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := make(map[int]bool, len(src))
		for k := range src {
			dst[k] = true
		}
	}
}

// InlineThreshold pin: the hybrid representation stays inline through
// exactly InlineThreshold elements and promotes on the next Add. The
// constant is part of the package's allocation contract (points-to sets are
// overwhelmingly singletons/doubletons), so a change here must be deliberate.
func TestInlinePromotionPoint(t *testing.T) {
	if InlineThreshold != 4 {
		t.Fatalf("InlineThreshold = %d, want 4 (update this pin deliberately)", InlineThreshold)
	}
	s := New(0)
	if !s.inline() {
		t.Fatal("New(0) should start inline")
	}
	for i := 0; i < InlineThreshold; i++ {
		s.Add(i * 100)
		if !s.inline() {
			t.Fatalf("promoted at %d elements, below threshold", i+1)
		}
	}
	s.Add(9999)
	if s.inline() {
		t.Fatal("no promotion past InlineThreshold elements")
	}
	want := []int{0, 100, 200, 300, 9999}
	got := s.Elements()
	if len(got) != len(want) {
		t.Fatalf("Elements = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Elements = %v, want %v", got, want)
		}
	}
	// Removing back below the threshold must not demote (one-way promotion).
	for _, x := range want[1:] {
		s.Remove(x)
	}
	if s.inline() {
		t.Fatal("vector demoted to inline after removals")
	}
	if s.Len() != 1 || !s.Has(0) {
		t.Fatalf("post-removal state wrong: %v", s)
	}
}

// New's positive hint selects the vector representation up front.
func TestNewHintIsVector(t *testing.T) {
	s := New(128)
	if s.inline() {
		t.Fatal("New(128) should be vector mode")
	}
	if len(s.words) != 2 {
		t.Fatalf("New(128) allocated %d words, want 2", len(s.words))
	}
}

// grow must not over-allocate past a single large outlier element: capacity
// doubles from the current allocation, and a jump allocates exactly the
// needed words (the old need+need/2 policy added 50% slack on top).
func TestGrowNoOverAllocation(t *testing.T) {
	s := New(64) // 1 word
	s.Add(1_000_000)
	need := 1_000_000/64 + 1
	if len(s.words) != need {
		t.Fatalf("outlier growth allocated %d words, want exactly %d", len(s.words), need)
	}
	// Incremental growth doubles from current capacity (amortized O(1)),
	// honoring the capacity New's hint implied.
	d := New(6400) // 100 words
	d.Add(6400)
	if len(d.words) != 200 {
		t.Fatalf("incremental growth allocated %d words, want 200 (doubling)", len(d.words))
	}
}

func TestUnionDelta(t *testing.T) {
	check := func(t *testing.T, dst, src *Set, wantNew []int) {
		t.Helper()
		before := dst.Clone()
		delta := New(0)
		n := dst.UnionDelta(src, delta)
		if n != len(wantNew) {
			t.Fatalf("UnionDelta returned %d, want %d", n, len(wantNew))
		}
		if got := delta.Elements(); len(got) != len(wantNew) {
			t.Fatalf("delta = %v, want %v", got, wantNew)
		} else {
			for i := range wantNew {
				if got[i] != wantNew[i] {
					t.Fatalf("delta = %v, want %v", got, wantNew)
				}
			}
		}
		// dst must now be the union.
		u := before.Clone()
		u.UnionWith(src)
		if !equal(dst, u) {
			t.Fatalf("dst = %v, want %v", dst, u)
		}
		// Idempotence: a second UnionDelta adds nothing.
		if again := dst.UnionDelta(src, New(0)); again != 0 {
			t.Fatalf("repeated UnionDelta added %d bits", again)
		}
	}
	mk := func(xs ...int) *Set {
		s := New(0)
		for _, x := range xs {
			s.Add(x)
		}
		return s
	}
	big := func(xs ...int) *Set {
		s := mk(xs...)
		s.Add(70000) // force vector mode
		s.Remove(70000)
		return s
	}
	t.Run("inline-inline", func(t *testing.T) { check(t, mk(1, 2), mk(2, 3), []int{3}) })
	t.Run("inline-vector", func(t *testing.T) { check(t, mk(1), big(1, 64, 500), []int{64, 500}) })
	t.Run("vector-inline", func(t *testing.T) { check(t, big(5, 6), mk(6, 7), []int{7}) })
	t.Run("vector-vector", func(t *testing.T) { check(t, big(0, 63, 64), big(63, 64, 65, 4096), []int{65, 4096}) })
	t.Run("empty-src", func(t *testing.T) { check(t, mk(1), mk(), nil) })
	t.Run("nil-src", func(t *testing.T) {
		s := mk(1)
		if n := s.UnionDelta(nil, New(0)); n != 0 {
			t.Fatalf("UnionDelta(nil) = %d", n)
		}
	})
	t.Run("nil-delta", func(t *testing.T) {
		s := mk(1)
		if n := s.UnionDelta(mk(2, 3), nil); n != 2 || s.Len() != 3 {
			t.Fatalf("nil-delta UnionDelta: n=%d set=%v", n, s)
		}
	})
}

// Property: UnionDelta(t, delta) leaves s equal to UnionWith(t), with delta
// holding exactly the new elements, across representation boundaries.
func TestQuickUnionDeltaMatchesUnion(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a, b := New(0), New(0)
		for _, x := range xs {
			a.Add(int(x % 300))
		}
		for _, y := range ys {
			b.Add(int(y % 300))
		}
		viaUnion := a.Clone()
		viaUnion.UnionWith(b)
		wantDelta := viaUnion.Clone()
		a.ForEach(func(x int) bool {
			wantDelta.Remove(x)
			return true
		})
		delta := New(0)
		n := a.UnionDelta(b, delta)
		return equal(a, viaUnion) && equal(delta, wantDelta) && n == wantDelta.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
