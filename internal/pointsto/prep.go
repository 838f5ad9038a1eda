package pointsto

import (
	"encoding/binary"
	"sort"
	"time"
)

// Offline constraint preprocessing (Hardekopf & Lin's HVN family): before any
// propagation, hash-value numbering over the copy/Addr-Of subgraph assigns
// every node a pointer-equivalence class, and nodes proven to compute the
// same points-to set are unioned up front, so the online solver never
// propagates through them at all.
//
// A node is *direct* when its points-to set is fully determined by its
// Addr-Of constraints and its incoming copy edges; everything else —
// object-slot nodes, and any node that can gain pointees through loads,
// field/arith derivations, indirect-call wiring, or Restore re-admissions —
// is *indirect* and gets a fresh, unmergeable value number. Two equalities
// drive the merging:
//
//  1. every member of a copy-only cycle has the same set (the classic
//     offline cycle collapse), and
//  2. two direct nodes whose Addr-Of facts and predecessor value numbers
//     coincide have the same set (value numbering proper).
//
// PWC-policy interaction: merging the endpoints of a Field-Of edge group can
// create or destroy positive-weight cycles, which would change the PWC
// invariant records the optimistic analysis emits. So, exactly like the
// optimistic analysis defers PWC collapse, prep defers any merge that would
// cross a Field-Of edge group: copy cycles containing an internal positive
// Field-Of edge are left to the online PWC machinery, and value-number
// merges never include a node with an outgoing Field-Of edge. Deferred
// merges are counted in Stats.PrepDeferred; the differential oracle and the
// kscope-bench golden test assert byte-identical invariant records and
// monitor sites with prep on and off.

// runPrep executes the offline stage: HVN substitution, then the offline
// half of hybrid cycle detection (hcd.go). Called once, lazily, from the
// first resolve, before any propagation.
func (a *Analysis) runPrep() {
	start := time.Now()
	a.offlineSubstitute()
	a.offlineHCD()
	a.lcdSeen = map[edgeKey]bool{}
	if a.metrics != nil || a.parentSpan != nil {
		a.metrics.RecordSpan("pointsto/prep", a.parentSpan, start, time.Since(start))
	}
}

// offlineSubstitute performs HVN-style offline variable substitution.
func (a *Analysis) offlineSubstitute() {
	n := len(a.nodes)
	indirect := make([]bool, n)
	hasGepOut := make([]bool, n)
	a.markIndirect(indirect, hasGepOut)

	comp, order := a.copySCCs()
	members := make([][]int32, len(order))
	for v := 0; v < n; v++ {
		if c := comp[v]; c >= 0 {
			members[c] = append(members[c], int32(v))
		}
	}
	preds := a.copyPreds(comp)

	// Value numbers per component. Components arrive predecessors-first, so
	// every external predecessor's number is final when a component is
	// hashed. classRep/classGep track, per value number, the surviving node
	// of the first component that produced it and whether any node already
	// in the class has an outgoing Field-Of edge.
	vn := make([]int32, len(order))
	nextVN := int32(0)
	vnByKey := map[string]int32{}
	classRep := map[int32]int32{}
	classGep := map[int32]bool{}

	for _, c := range order {
		ms := members[c]
		anyIndirect, anyGepOut, internalPosGep := false, false, false
		for _, m := range ms {
			if indirect[m] {
				anyIndirect = true
			}
			if hasGepOut[m] {
				anyGepOut = true
			}
			for _, e := range a.gepTo[m] {
				if e.off > 0 && comp[a.find(int(e.to))] == c {
					internalPosGep = true
				}
			}
		}

		// Equality 1: collapse the copy cycle — unless it contains an
		// internal positive Field-Of edge, which makes it a PWC the online
		// policy must see intact.
		if len(ms) > 1 {
			if internalPosGep {
				a.stats.PrepDeferred += len(ms) - 1
			} else {
				if a.tracer != nil {
					a.tracer.Cycle(len(ms), false)
				}
				for _, m := range ms[1:] {
					if a.mergeNodes(int(ms[0]), int(m)) {
						a.stats.PrepMerged++
					}
				}
			}
		}

		// Assign the component's value number.
		if anyIndirect || internalPosGep {
			vn[c] = nextVN
			nextVN++
			continue
		}
		key := a.hvnKey(ms, preds[c], comp, vn, c)
		num, seen := vnByKey[key]
		if !seen {
			vn[c] = nextVN
			vnByKey[key] = nextVN
			classRep[nextVN] = int32(a.find(int(ms[0])))
			classGep[nextVN] = anyGepOut
			nextVN++
			continue
		}
		vn[c] = num
		// Equality 2: this component computes the same set as the class
		// representative — merge, unless either side carries a Field-Of
		// edge group (deferred, like PWC collapse).
		if anyGepOut || classGep[num] {
			classGep[num] = classGep[num] || anyGepOut
			a.stats.PrepDeferred += len(ms)
			continue
		}
		rep := int(classRep[num])
		for _, m := range ms {
			if a.mergeNodes(rep, int(m)) {
				a.stats.PrepMerged++
			}
		}
		classRep[num] = int32(a.find(rep))
	}
}

// markIndirect flags every node whose points-to set can grow through
// anything other than Addr-Of facts and copy edges, plus (separately) every
// node with an outgoing Field-Of edge.
func (a *Analysis) markIndirect(indirect, hasGepOut []bool) {
	for i := range a.nodes {
		if a.nodes[i].kind == nodeObj {
			indirect[i] = true
		}
	}
	for v := range a.nodes {
		for _, e := range a.loadTo[v] {
			indirect[a.find(int(e.other))] = true
		}
		for _, e := range a.gepTo[v] {
			indirect[a.find(int(e.to))] = true
			hasGepOut[a.find(v)] = true
		}
		for _, e := range a.arithTo[v] {
			indirect[a.find(int(e.to))] = true
		}
		for _, s := range a.icallsAt[v] {
			// Target wiring adds copies into formals/dest only as functions
			// are discovered; treat every potential endpoint as indirect.
			for _, arg := range s.args {
				indirect[a.find(int(arg))] = true
			}
			if s.dest >= 0 {
				indirect[a.find(int(s.dest))] = true
			}
		}
	}
	// Formals and returns of address-taken functions gain copy edges when
	// indirect callsites resolve; returns of Ctx-rewritten functions gain
	// their generic constraint back on Restore.
	for _, f := range a.mod.Funcs {
		if !f.AddressTaken {
			continue
		}
		for _, p := range f.Params {
			if id, ok := a.regNodes[regKey{f.Name, p}]; ok {
				indirect[a.find(id)] = true
			}
		}
		if id, ok := a.retNodes[f.Name]; ok {
			indirect[a.find(id)] = true
		}
	}
	for _, cr := range a.ctxPlan.rets {
		if a.ctxSkip[cr.ret.ID] {
			if id, ok := a.retNodes[cr.fn]; ok {
				indirect[a.find(id)] = true
			}
		}
	}
	// Stores rewritten by Ctx are likewise re-admitted on Restore; their
	// address registers already carry load/store edges (kept indirect via
	// seedDelta flushes), but the *source* register feeds a future store, so
	// nothing new: store sources only ever push outward. No extra marking
	// needed beyond the above.
}

// copySCCs computes SCCs of the copy-only offline subgraph over current
// representatives. It returns comp (node -> component id, -1 for non-reps)
// and the component ids in topological (predecessors-first) order.
func (a *Analysis) copySCCs() (comp []int32, order []int32) {
	n := len(a.nodes)
	comp = make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int32
	next := int32(0)
	ncomp := int32(0)

	type frame struct {
		v int
		i int
	}
	for root := 0; root < n; root++ {
		if a.find(root) != root || index[root] != -1 {
			continue
		}
		frames := []frame{{v: root}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, int32(root))
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.i < len(a.copyTo[f.v]) {
				w := a.find(int(a.copyTo[f.v][f.i]))
				f.i++
				if w == f.v {
					continue
				}
				if index[w] == -1 {
					index[w], low[w] = next, next
					next++
					stack = append(stack, int32(w))
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			if low[f.v] == index[f.v] {
				for {
					w := int(stack[len(stack)-1])
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncomp
					if w == f.v {
						break
					}
				}
				order = append(order, ncomp)
				ncomp++
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[f.v] < low[p.v] {
					low[p.v] = low[f.v]
				}
			}
		}
	}
	// Tarjan emits components in reverse topological order (successors
	// first); reverse for predecessors-first.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return comp, order
}

// copyPreds builds, per component, the list of predecessor component ids
// over copy edges (duplicates allowed; hvnKey dedupes).
func (a *Analysis) copyPreds(comp []int32) [][]int32 {
	max := int32(0)
	for _, c := range comp {
		if c+1 > max {
			max = c + 1
		}
	}
	preds := make([][]int32, max)
	for v := range a.nodes {
		cv := comp[v]
		if cv < 0 {
			continue
		}
		for _, t := range a.copyTo[v] {
			ct := comp[a.find(int(t))]
			if ct >= 0 && ct != cv {
				preds[ct] = append(preds[ct], cv)
			}
		}
	}
	return preds
}

// hvnKey encodes a direct component's exact hash-value-numbering identity:
// its sorted Addr-Of object nodes plus its sorted external predecessor value
// numbers. Exact keys (no lossy hashing) mean equal keys imply equal sets.
func (a *Analysis) hvnKey(ms []int32, predComps []int32, comp []int32, vn []int32, c int32) string {
	var facts []int32
	for _, m := range ms {
		facts = append(facts, a.addrFacts[m]...)
	}
	sort.Slice(facts, func(i, j int) bool { return facts[i] < facts[j] })
	var pvns []int32
	for _, pc := range predComps {
		if pc != c {
			pvns = append(pvns, vn[pc])
		}
	}
	sort.Slice(pvns, func(i, j int) bool { return pvns[i] < pvns[j] })
	buf := make([]byte, 0, 4*(len(facts)+len(pvns))+8)
	last := int32(-1)
	for _, f := range facts {
		if f == last {
			continue
		}
		last = f
		buf = binary.AppendVarint(buf, int64(f))
	}
	buf = binary.AppendVarint(buf, -2) // section separator
	last = -1
	for _, p := range pvns {
		if p == last {
			continue
		}
		last = p
		buf = binary.AppendVarint(buf, int64(p))
	}
	return string(buf)
}
