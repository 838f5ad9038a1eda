package pointsto

import "repro/internal/telemetry"

// Wave propagation (Pereira and Berlin, CGO'09 — cited by the paper as one
// of the standard Andersen accelerations). Instead of popping worklist nodes
// in arbitrary order, each wave collapses copy cycles, topologically sorts
// the condensed constraint graph, and propagates along the copy/gep edges in
// topological order, so every points-to set is pushed downstream exactly
// once per wave. Results are identical to the worklist solver (asserted by
// tests); only the iteration strategy differs.

// SetWave selects wave propagation as the solving strategy. Must be called
// before Solve.
func (a *Analysis) SetWave(wave bool) { a.wave = wave }

// solveWave runs wave propagation to a fixed point. Wave spans nest under
// the caller's solve span.
func (a *Analysis) solveWave(solveSpan *telemetry.Span) {
	a.ensureWL()
	for {
		a.stats.Waves++
		a.hWLDepth.Observe(int64(len(a.worklist)))
		a.gLiveDepth.Set(int64(len(a.worklist)))
		_, finW := a.metrics.StartSpan("pointsto/round/wave", solveSpan)
		stopW := a.metrics.Timer("pointsto/phase/wave").Start()
		// Collapse copy cycles first so the remaining graph is (nearly) a
		// DAG; PWC handling follows the configured policy.
		changed := a.sccPass()
		order := a.topoOrder()
		// One wave: process every node in topological order. processNode
		// pushes downstream nodes; because we visit in topo order, most of
		// those pushes are handled later in the same wave. Under delta
		// propagation a node with nothing pending is a constant-time visit,
		// so later waves only pay for sets that actually grew.
		for _, n := range order {
			if a.find(n) != n {
				continue
			}
			if a.budgeted && !a.budgetStep() {
				break
			}
			a.inWL[n] = false
			a.processNode(n)
		}
		// Drain any residual work (derived edges may point upstream). An
		// abort above falls through harmlessly: drain re-checks the budget
		// before its first pop.
		a.drain()
		stopW()
		finW()
		if a.abortErr != nil {
			return
		}
		if !changed && !a.sccPass() {
			// One more quiescence check: nothing changed structurally and
			// the worklist is empty.
			if len(a.worklist) == 0 {
				return
			}
		}
	}
}

// topoOrder returns representative nodes in topological order of the
// copy+gep subgraph (reverse DFS post-order). Cycles, if any remain, are
// broken arbitrarily by the DFS finish ordering, which is safe: the residual
// drain handles back edges.
func (a *Analysis) topoOrder() []int {
	n := len(a.nodes)
	state := make([]uint8, n) // 0 unvisited, 1 on stack, 2 done
	order := make([]int, 0, n)

	// Successors are iterated lazily per frame (ci walks copyTo, gi walks
	// gepTo) instead of materializing a fresh slice per node per wave, and
	// nextSucc skips targets whose raw id is already finished before paying
	// for the union-find resolution.
	type frame struct {
		v      int
		ci, gi int
	}
	nextSucc := func(f *frame) int {
		for copies := a.copyTo[f.v]; f.ci < len(copies); {
			t := int(copies[f.ci])
			f.ci++
			if state[t] == 2 {
				continue
			}
			if w := a.find(t); state[w] != 2 {
				return w
			}
		}
		for geps := a.gepTo[f.v]; f.gi < len(geps); {
			t := int(geps[f.gi].to)
			f.gi++
			if state[t] == 2 {
				continue
			}
			if w := a.find(t); state[w] != 2 {
				return w
			}
		}
		return -1
	}
	for root := 0; root < n; root++ {
		if a.find(root) != root || state[root] != 0 {
			continue
		}
		frames := []frame{{v: root}}
		state[root] = 1
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if w := nextSucc(f); w >= 0 {
				if state[w] == 0 {
					state[w] = 1
					frames = append(frames, frame{v: w})
				}
				continue
			}
			state[f.v] = 2
			order = append(order, f.v)
			frames = frames[:len(frames)-1]
		}
	}
	// Reverse the post-order for a topological order.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}
