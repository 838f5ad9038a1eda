package pointsto

// tarjanScratch is tarjan's working state: per node the visit index, the
// low link and the on-stack mark, plus the node stack and the DFS frames.
// It carries nothing between calls, so a caller reuses one across calls
// instead of allocating the arrays each time.
type tarjanScratch struct {
	index, low []int32
	onStack    []bool
	stack      []int32
	frames     []tarjanFrame
}

// tarjanFrame is one DFS frame: node v, and the index of its next successor.
type tarjanFrame struct {
	v int
	i int
}

// tarjan computes the strongly connected components of a graph over node
// ids [0, n) with an iterative Tarjan, in the scratch s (grown to n if it is
// smaller). Roots are tried in id order, skipping any for which root (if
// non-nil) reports false; nodes reached as successors are visited
// regardless. succ(v, i) returns v's i-th successor, or false past the last
// one; self-loops are ignored. emit receives every component, singletons
// included, in completion order (successors first), with members in
// stack-pop order, so the component's root comes last. The slice aliases the
// traversal stack: it is valid only during the call, and emit must not
// change the graph succ reads.
func tarjan(s *tarjanScratch, n int, root func(v int) bool, succ func(v, i int) (int, bool), emit func(scc []int32)) {
	if len(s.index) < n {
		s.index, s.low, s.onStack = make([]int32, n), make([]int32, n), make([]bool, n)
	}
	// A finished call leaves every on-stack mark cleared; low is written
	// before it is read.
	index, low, onStack := s.index[:n], s.low[:n], s.onStack[:n]
	for i := range index {
		index[i] = -1
	}
	stack, frames := s.stack[:0], s.frames[:0]
	next := int32(0)
	visit := func(v int) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, int32(v))
		onStack[v] = true
		frames = append(frames, tarjanFrame{v: v})
	}
	for r := 0; r < n; r++ {
		if index[r] != -1 || (root != nil && !root(r)) {
			continue
		}
		visit(r)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if w, ok := succ(f.v, f.i); ok {
				f.i++
				if w == f.v {
					continue
				}
				if index[w] == -1 {
					visit(w)
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if p := &frames[len(frames)-1]; low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] != index[v] {
				continue
			}
			k := len(stack) - 1
			for int(stack[k]) != v {
				k--
			}
			scc := stack[k:]
			for i, j := 0, len(scc)-1; i < j; i, j = i+1, j-1 {
				scc[i], scc[j] = scc[j], scc[i]
			}
			for _, w := range scc {
				onStack[w] = false
			}
			emit(scc)
			stack = stack[:k]
		}
	}
	s.stack, s.frames = stack, frames // keep the grown arrays
}
