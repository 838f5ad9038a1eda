package pointsto

// tarjan computes the strongly connected components of a graph over node
// ids [0, n) with an iterative Tarjan. Roots are tried in id order, skipping
// any for which root (if non-nil) reports false; nodes reached as successors
// are visited regardless. succ(v, i) returns v's i-th successor, or false
// past the last one; self-loops are ignored. emit receives every component,
// singletons included, in completion order (successors first), with members
// in stack-pop order, so the component's root comes last. The slice aliases
// the traversal stack: it is valid only during the call, and emit must not
// change the graph succ reads.
func tarjan(n int, root func(v int) bool, succ func(v, i int) (int, bool), emit func(scc []int32)) {
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int32
	next := int32(0)
	type frame struct {
		v int
		i int
	}
	var frames []frame
	visit := func(v int) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, int32(v))
		onStack[v] = true
		frames = append(frames, frame{v: v})
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
}
