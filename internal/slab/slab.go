// Package slab hands out values of one type from shared chunks, so a front
// end that makes many small nodes of a kind pays one allocation per chunk
// instead of one per node.
package slab

import "unsafe"

// chunkBytes is the size of a chunk. The runtime gives a larger object that
// holds pointers an allocation header, which would round the chunk up to
// the next size class; up to this size a chunk costs its own bytes.
const chunkBytes = 512

// Slab allocates values of T. The zero Slab is ready to use. A value stays
// reachable as long as any value of its chunk does, so a slab suits nodes
// that live and die together, like a syntax tree or a module's instructions.
type Slab[T any] struct {
	free []T
}

// New returns a pointer to a copy of v.
func (s *Slab[T]) New(v T) *T {
	if len(s.free) == 0 {
		s.free = make([]T, max(chunkBytes/int(unsafe.Sizeof(v)), 1))
	}
	p := &s.free[0]
	*p = v
	s.free = s.free[1:]
	return p
}
