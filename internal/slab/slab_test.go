package slab

import "testing"

// TestSlabChunks: values are distinct copies, a slab of 24-byte values
// allocates one 504-byte chunk per 21 values, and a value larger than a
// chunk gets a chunk of its own.
func TestSlabChunks(t *testing.T) {
	var s Slab[[3]int64]
	seen := map[*[3]int64]bool{}
	for i := 0; i < 100; i++ {
		p := s.New([3]int64{int64(i)})
		if seen[p] || *p != [3]int64{int64(i)} {
			t.Fatalf("value %d reused or not a copy", i)
		}
		seen[p] = true
		p[1] = int64(i)
	}
	if n := testing.AllocsPerRun(1, func() {
		var fresh Slab[[3]int64]
		for i := 0; i < 4*21; i++ {
			fresh.New([3]int64{})
		}
	}); n != 4 {
		t.Fatalf("allocations for 84 values = %v, want 4", n)
	}
	if n := testing.AllocsPerRun(1, func() {
		var big Slab[[100]int64]
		big.New([100]int64{})
		big.New([100]int64{})
	}); n != 2 {
		t.Fatalf("allocations for 2 large values = %v, want 2", n)
	}
}
