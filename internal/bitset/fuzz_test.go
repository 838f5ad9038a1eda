package bitset

import (
	"sort"
	"testing"
)

// FuzzBitsetModel drives a Set and a map[int]bool reference model through
// the same operation stream and asserts they agree after every step. The
// value decoding is biased so streams routinely cross the inline↔bit-vector
// promotion boundary in both element count and element magnitude.
//
// Seed corpus: testdata/fuzz/FuzzBitsetModel/. Run continuously with
//
//	go test -run '^$' -fuzz '^FuzzBitsetModel$' ./internal/bitset
func FuzzBitsetModel(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07})
	f.Add([]byte("\x00\x10\x00\x20\x00\x30\x00\x40\x00\x50\x04\x00\x05\x00"))
	f.Add([]byte{0x00, 0xff, 0x03, 0xfe, 0x04, 0x00, 0x01, 0xff, 0x07, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := New(0)
		b := New(0)
		model := map[int]bool{}
		modelB := map[int]bool{}
		// elem decodes a byte into a value that hovers around the
		// InlineThreshold cardinality range for small bytes and jumps past
		// the 64-bit word boundary for large ones, so promotion triggers on
		// both paths (count overflow and magnitude overflow are the same
		// path here, but sparse large values stress grow/promote sizing).
		elem := func(v byte) int {
			if v >= 0xf0 {
				return int(v) * 137 // up to ~34k: multi-word vectors
			}
			return int(v % 11) // dense small values around the threshold
		}
		for i := 0; i+1 < len(data); i += 2 {
			op, v := data[i]%8, data[i+1]
			x := elem(v)
			switch op {
			case 0:
				if s.Add(x) == model[x] {
					t.Fatalf("Add(%d) changed=%v but model has=%v", x, !model[x], model[x])
				}
				model[x] = true
			case 1:
				if s.Remove(x) != model[x] {
					t.Fatalf("Remove(%d) disagrees with model", x)
				}
				delete(model, x)
			case 2:
				if s.Has(x) != model[x] {
					t.Fatalf("Has(%d) = %v, model %v", x, s.Has(x), model[x])
				}
			case 3:
				b.Add(x)
				modelB[x] = true
			case 4:
				s.UnionWith(b)
				for k := range modelB {
					model[k] = true
				}
			case 5:
				delta := New(0)
				n := s.UnionDelta(b, delta)
				fresh := 0
				for k := range modelB {
					if !model[k] {
						fresh++
						if !delta.Has(k) {
							t.Fatalf("UnionDelta missed new element %d", k)
						}
						model[k] = true
					}
				}
				if n != fresh || delta.Len() != fresh {
					t.Fatalf("UnionDelta reported %d new bits (delta len %d), model says %d",
						n, delta.Len(), fresh)
				}
			case 6:
				c := s.Clone()
				if !equal(c, s) {
					t.Fatal("clone not equal to original")
				}
				c.Add(99991)
				if s.Has(99991) {
					t.Fatal("clone aliases original storage")
				}
			case 7:
				b.Clear()
				modelB = map[int]bool{}
			}
			if s.Len() != len(model) {
				t.Fatalf("Len = %d, model %d", s.Len(), len(model))
			}
		}
		// Final deep check: elements and order.
		want := make([]int, 0, len(model))
		for k := range model {
			want = append(want, k)
		}
		sort.Ints(want)
		got := s.Elements()
		if len(got) != len(want) {
			t.Fatalf("Elements = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Elements = %v, want %v", got, want)
			}
		}
	})
}
