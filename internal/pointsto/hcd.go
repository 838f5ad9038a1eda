package pointsto

import (
	"time"

	"repro/internal/telemetry"
)

// Offline constraint preprocessing ("prep") is hybrid cycle detection plus
// its lazy-cycle-detection fallback, both after Hardekopf & Lin.
//
// Hybrid cycle detection (Hardekopf & Lin, "The Ant and the Grasshopper"):
// the expensive part of online cycle detection is *finding* cycles that pass
// through memory — a load t = *s and a store *s = t close a copy cycle only
// once the solver learns what s points to. HCD finds those cycles offline on
// a graph that adds a "ref" node *s per dereferenced pointer: a load t = *s
// contributes ref(s) -> t, a store *s = v contributes v -> ref(s), and copy
// edges carry over. Any offline SCC mixing a ref node with regular nodes
// means: as soon as an object o enters pts(s), the online graph closes a
// copy cycle through o and the SCC's regular members. The solver therefore
// collapses them in O(1) at pointee-insertion time (hcdFire), with no graph
// traversal.
//
// Cycles HCD's offline graph cannot predict (they need two levels of
// indirection to materialize) are caught by a lazy-cycle-detection fallback:
// when copy propagation hits an edge whose target already has every pointee
// (a propagation miss), a bounded DFS probes for a copy cycle through that
// edge, once per edge. Whatever both miss still falls to the per-round
// sccPass, which also remains the sole discoverer of positive-weight cycles,
// so PWC records are identical with preprocessing on or off.

// runPrep executes the offline stage, the offline half of hybrid cycle
// detection. Called once, lazily, from the first resolve, before any
// propagation; its span nests under parent.
func (a *Analysis) runPrep(parent *telemetry.Span) {
	start := time.Now()
	a.offlineHCD()
	if a.metrics != nil || parent != nil {
		a.metrics.RecordSpan("pointsto/prep", parent, start, time.Since(start))
	}
}

// hcdEntry is one offline SCC that mixes ref and regular nodes: when any
// object lands in the points-to set of a node carrying this entry, the
// regular members and the object collapse into target.
type hcdEntry struct {
	target  int32   // surviving node (lowest regular member id)
	members []int32 // regular members, merged into target on first fire
	fired   bool
}

// offlineHCD builds the offline ref graph over current representatives and
// records, per dereferenced pointer, the SCC collapse its future pointees
// will trigger. Runs once, from runPrep.
func (a *Analysis) offlineHCD() {
	n := len(a.nodes)
	// Ids: [0,n) regular nodes, [n,2n) ref nodes (ref(v) = n+v), built only
	// for reps with load/store constraints. The graph is one flat adjacency:
	// a first pass counts each node's out-edges, a second fills them in the
	// same order, so node u's successors are edges[off[u]:off[u+1]].
	off := make([]int32, 2*n+2)
	a.hcdEdges(n, off, nil)
	for u := 2; u < len(off); u++ {
		off[u] += off[u-1]
	}
	// off[u+1] is now where u's edges start; filling advances it to where
	// they end, which is where u+1's start.
	edges := make([]int32, off[2*n+1])
	a.hcdEdges(n, off, edges)
	succ := func(v, i int) (int, bool) {
		if j := int(off[v]) + i; j < int(off[v+1]) {
			return int(edges[j]), true
		}
		return 0, false
	}
	tarjan(&a.sccScratch, 2*n, nil, succ, func(scc []int32) {
		if len(scc) < 2 {
			return
		}
		var regs, refs []int32
		for _, id := range scc {
			if int(id) < n {
				regs = append(regs, id)
			} else {
				refs = append(refs, id-int32(n))
			}
		}
		if len(regs) == 0 || len(refs) == 0 {
			// Pure copy SCCs are left to LCD and sccPass; pure ref SCCs
			// carry no merge by themselves.
			return
		}
		target := regs[0]
		for _, r := range regs[1:] {
			if r < target {
				target = r
			}
		}
		idx := int32(len(a.hcdEntries))
		a.hcdEntries = append(a.hcdEntries, hcdEntry{target: target, members: regs})
		for _, r := range refs {
			c := a.ownCons(int(r))
			c.hcd = append(c.hcd, idx)
		}
	})
}

// hcdEdges visits the edges of offlineHCD's ref graph over n nodes, source
// by source in a fixed order. With edges nil it counts each source u's
// out-edges into off[u+2]; otherwise it stores each edge at off[u+1] and
// advances off[u+1] past it.
func (a *Analysis) hcdEdges(n int, off, edges []int32) {
	add := func(u, w int) {
		if edges == nil {
			off[u+2]++
			return
		}
		edges[off[u+1]] = int32(w)
		off[u+1]++
	}
	for v := 0; v < n; v++ {
		if a.find(v) != v {
			continue
		}
		ns := a.state[v]
		for _, e := range ns.copies() {
			if w := a.find(e.to()); w != v {
				add(v, w)
			}
		}
		c := ns.cons()
		for _, e := range c.loadTo {
			add(n+v, a.find(int(e.other)))
		}
		for _, e := range c.storeFrom {
			add(a.find(int(e.other)), n+v)
		}
	}
}

// hcdFire runs the recorded offline collapses for node v: every object slot
// in elems (v's pending pointees) closes the offline-predicted cycle, so the
// entry's regular members and the object's rep merge into the entry target.
// Merges reschedule the survivor with a full-set flush (mergeNodes), so no
// derived fact is lost even when v itself is merged away mid-processing.
func (a *Analysis) hcdFire(v int, elems []int) {
	for _, ei := range a.state[v].cons().hcd {
		e := &a.hcdEntries[ei]
		t := a.find(int(e.target))
		merged := 0
		if !e.fired {
			e.fired = true
			for _, m := range e.members {
				if a.mergeNodes(t, int(m)) {
					a.stats.HCDCollapses++
					merged++
				}
				t = a.find(t)
			}
		}
		for _, o := range elems {
			if a.nodes[o].kind != nodeObj {
				continue
			}
			if a.mergeNodes(t, a.find(o)) {
				a.stats.HCDCollapses++
				merged++
			}
			t = a.find(t)
		}
		if merged > 0 && a.tracer != nil {
			a.tracer.Cycle(merged+1, false)
		}
	}
}

// LCD fallback bounds: one probe per copy edge, each walking at most
// lcdBudget nodes of the condensed copy graph.
const lcdBudget = 256

// lcdVisit is the LCD probe's per-node search state: the node was reached
// by the probe numbered gen, from prev (-1 for the probe's start).
type lcdVisit struct {
	gen  uint32
	prev int32
}

// lcdProbe is the lazy-cycle-detection fallback: copy propagation from src
// across edge src->dst added nothing, which is how cycle members behave once
// their sets converge. A bounded DFS over copy edges looks for a path back
// from dst to src; on a hit the whole path is one copy cycle and collapses
// immediately instead of waiting for the next whole-graph sccPass. The
// caller marks the edge probed, so each edge is probed at most once. The
// search state lives in reused per-analysis buffers: a new probe number
// invalidates every visit stamp at once, so a probe allocates nothing.
func (a *Analysis) lcdProbe(src, dst int) {
	if len(a.lcdVisit) < len(a.nodes) {
		a.lcdVisit = append(a.lcdVisit, make([]lcdVisit, len(a.nodes)-len(a.lcdVisit))...)
	}
	// One probe per copy edge at most, so the counter cannot wrap.
	a.lcdGen++
	gen, seen := a.lcdGen, a.lcdVisit
	// DFS from dst over representative copy edges, searching for src.
	seen[dst] = lcdVisit{gen: gen, prev: -1}
	stack := append(a.lcdStack[:0], int32(dst))
	budget := lcdBudget
	for len(stack) > 0 && budget > 0 {
		v := int(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		budget--
		for _, e := range a.state[v].copies() {
			w := a.find(e.to())
			if w == src {
				// Collapse the cycle src -> dst -> ... -> v -> src.
				merged := 0
				for u := v; u != -1; u = int(seen[u].prev) {
					if a.mergeNodes(src, u) {
						a.stats.LCDCollapses++
						merged++
					}
					src = a.find(src)
				}
				if merged > 0 && a.tracer != nil {
					a.tracer.Cycle(merged+1, false)
				}
				a.lcdStack = stack
				return
			}
			if seen[w].gen != gen && w != v {
				seen[w] = lcdVisit{gen: gen, prev: int32(v)}
				stack = append(stack, int32(w))
			}
		}
	}
	a.lcdStack = stack
}
