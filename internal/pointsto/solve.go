package pointsto

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/bitset"
	"repro/internal/invariant"
	"repro/internal/ir"
)

// Solve runs the inclusion-constraint solver to a fixed point and returns
// the points-to result. Solving alternates worklist propagation with cycle
// detection/collapse until neither changes the graph. Bounded or cancellable
// solving goes through SolveCtx; Solve itself cannot abort (callers that arm
// SolverBudget faults must use SolveCtx).
func (a *Analysis) Solve() *Result {
	r, err := a.SolveCtx(context.Background(), Budget{})
	if err != nil {
		panic(err)
	}
	return r
}

// resolve runs propagation + cycle detection to a fixed point; it is also
// the incremental re-solve entry used by Restore. A non-nil error is always
// an *AbortError from the active budget, and leaves the analysis resumable.
func (a *Analysis) resolve() error {
	if (a.metrics != nil || a.parentSpan != nil) && !a.buildEmitted {
		// Constraint-graph construction ran inside New, before a registry
		// could be attached; export its interval retroactively, once. A
		// trace-attached parent span is a destination too, registry or not.
		a.buildEmitted = true
		a.metrics.RecordSpan("pointsto/build", a.parentSpan, a.buildStart, a.buildDur)
	}
	if !a.prepDone {
		// First resolve: run offline preprocessing once.
		a.prepDone = true
		if a.prep {
			a.runPrep()
		}
	}
	solveSpan, finishSolve := a.metrics.StartSpan("pointsto/solve", a.parentSpan)
	stop := a.metrics.Timer("pointsto/phase/solve").Start()
	a.ensureWL()
	for {
		// One histogram sample of worklist depth per solver round.
		a.hWLDepth.Observe(int64(len(a.worklist)))
		_, finP := a.metrics.StartSpan("pointsto/round/propagate", solveSpan)
		stopP := a.metrics.Timer("pointsto/phase/propagate").Start()
		a.drain()
		stopP()
		finP()
		if a.abortErr != nil {
			break
		}
		_, finS := a.metrics.StartSpan("pointsto/round/scc", solveSpan)
		stopS := a.metrics.Timer("pointsto/phase/scc").Start()
		changed := a.sccPass()
		stopS()
		finS()
		if !changed {
			break
		}
	}
	if a.abortErr != nil {
		// Budget exhausted (or cancelled, or an injected solver fault): stop
		// cleanly without presenting the intermediate state as a fixpoint.
		// The unpopped worklist stays queued, so a later resolve resumes and
		// converges to the identical fixpoint.
		stop()
		finishSolve()
		a.flushMetrics()
		err := a.abortErr
		a.abortErr = nil
		return err
	}
	_, mons := a.invariantRecords()
	a.stats.MonitorSites = len(mons)
	// Flatten the union-find so post-solve readers (Result methods) can
	// resolve representatives without path-compression writes; a finished
	// analysis may then be read from many goroutines concurrently.
	a.flattenReps()
	stop()
	finishSolve()
	a.flushMetrics()
	return nil
}

// flattenReps fully path-compresses every union-find pointer.
func (a *Analysis) flattenReps() {
	for i := range a.rep {
		a.rep[i] = int32(a.find(i))
	}
}

// findRead resolves the representative of x without path compression. After
// flattenReps this is a single hop; it performs no writes, so concurrent
// readers of a finished analysis can share it safely.
func (a *Analysis) findRead(x int) int {
	for a.rep[x] != int32(x) {
		x = int(a.rep[x])
	}
	return x
}

// flushMetrics exports the solver statistics accumulated since the previous
// flush into the attached telemetry registry (no-op without one). Deltas are
// used so incremental re-solves add only their own work.
func (a *Analysis) flushMetrics() {
	if a.metrics == nil {
		return
	}
	d, prev := a.stats, a.flushed
	a.flushed = a.stats
	m := a.metrics
	m.Counter("pointsto/solves").Inc()
	m.Counter("pointsto/worklist/pops").Add(int64(d.Iterations - prev.Iterations))
	m.Counter("pointsto/constraints/copy").Add(int64(d.CopyEdges - prev.CopyEdges))
	m.Counter("pointsto/constraints/derived").Add(int64(d.DerivedEdges - prev.DerivedEdges))
	m.Counter("pointsto/scc/passes").Add(int64(d.SCCPasses - prev.SCCPasses))
	m.Counter("pointsto/scc/collapsed-nodes").Add(int64(d.SCCCollapses - prev.SCCCollapses))
	m.Counter("pointsto/pwc/cycles").Add(int64(d.PWCs - prev.PWCs))
	m.Counter("pointsto/field/collapses").Add(int64(d.FieldCollapses - prev.FieldCollapses))
	m.Counter("pointsto/hcd/online-collapses").Add(int64(d.HCDCollapses - prev.HCDCollapses))
	m.Counter("pointsto/lcd/collapsed-nodes").Add(int64(d.LCDCollapses - prev.LCDCollapses))
	m.Counter("pointsto/delta/flushes").Add(int64(d.DeltaFlushes - prev.DeltaFlushes))
	m.Counter("pointsto/delta/bits-propagated").Add(int64(d.BitsPropagated - prev.BitsPropagated))
	m.Counter("pointsto/delta/full-bits-avoided").Add(int64(d.BitsAvoided - prev.BitsAvoided))
	m.Gauge("pointsto/graph/nodes").SetMax(int64(len(a.nodes)))
	m.Gauge("pointsto/graph/objects").SetMax(int64(len(a.objects)))
	// Distribution of points-to set sizes at this fixpoint, over
	// representative nodes with non-empty sets (reps are flattened by now).
	for i := range a.nodes {
		if int(a.rep[i]) == i && a.pts[i] != nil && !a.pts[i].Empty() {
			a.hPtsSize.Observe(int64(a.pts[i].Len()))
		}
	}
}

// drain processes the worklist to exhaustion, or until the active budget
// aborts it. The budget check runs before the pop, so the node the abort
// lands on stays queued for a resumed solve.
func (a *Analysis) drain() {
	for len(a.worklist) > 0 {
		if a.budgeted && !a.budgetStep() {
			return
		}
		raw := int(a.worklist[len(a.worklist)-1])
		a.worklist = a.worklist[:len(a.worklist)-1]
		a.inWL[raw] = false
		n := a.find(raw)
		if n != raw && a.inWL[n] {
			continue
		}
		a.processNode(n)
	}
}

// processNode applies every outgoing constraint of n to its pending pointee
// delta — the set of pointees added since n was last processed (the full set
// on the node's first visit, or after a seedDelta flush). Without delta
// propagation (noDelta, below DeltaAutoThreshold) it re-consumes the full
// set on every visit; the results are identical because every constraint
// here is monotone and idempotent per pointee, so re-deriving from old
// pointees only re-adds facts that are already present.
func (a *Analysis) processNode(n int) {
	a.stats.Iterations++
	a.ensureWL()
	var work *bitset.Set
	if a.noDelta {
		work = a.pts[n]
		if work != nil {
			size := work.Len()
			a.stats.BitsPropagated += size
			a.hDeltaSize.Observe(int64(size))
		}
	} else {
		work = a.delta[n]
		a.delta[n] = nil
		if work != nil {
			size := work.Len()
			a.stats.BitsPropagated += size
			a.hDeltaSize.Observe(int64(size))
			if a.pts[n] != nil {
				a.stats.BitsAvoided += a.pts[n].Len() - size
			}
		}
	}
	if work == nil || work.Empty() {
		// Nothing pending: every edge has already consumed the node's full
		// set (new edges seed a flush before pushing the node here).
		return
	}
	elems := work.Elements()
	if a.hcdAt != nil && len(a.hcdAt[n]) > 0 {
		// Hybrid cycle detection: new pointees of n close offline-predicted
		// copy cycles; collapse them now, in O(members), instead of waiting
		// for the next whole-graph sccPass. This may merge n itself away —
		// safe, because the merge moves n's adjacency to the survivor and
		// re-seeds it with the combined full set, so the (now empty) edge
		// lists below simply have nothing left to do.
		a.hcdFire(n, elems)
	}
	for _, e := range a.gepTo[n] {
		to := a.find(int(e.to))
		for _, o := range elems {
			if e.collapse {
				if obj := a.objOfNode(o); obj != nil && !obj.Insens {
					a.makeFieldInsensitive(obj)
				}
			}
			if t := a.fieldTarget(o, int(e.off)); t >= 0 {
				a.addToPts(to, t, int(e.site), n, true)
			}
		}
	}
	for _, e := range a.loadTo[n] {
		for _, o := range elems {
			if a.nodes[o].kind != nodeObj {
				continue
			}
			a.addCopy(a.find(o), int(e.other), int(e.site), true)
		}
	}
	for _, e := range a.storeFrom[n] {
		for _, o := range elems {
			if a.nodes[o].kind != nodeObj {
				continue
			}
			a.addCopy(int(e.other), a.find(o), int(e.site), true)
		}
	}
	for _, e := range a.arithTo[n] {
		a.processArith(n, e, elems)
	}
	for _, s := range a.icallsAt[n] {
		a.connectICall(n, s, elems)
	}
	for _, to := range a.copyTo[n] {
		if !a.unionSetInto(int(to), work, n, 0, false) && a.lcdSeen != nil {
			// Propagation miss: the target already had every pending pointee,
			// the signature of a converged copy cycle. Probe lazily for one.
			a.lcdProbe(n, a.find(int(to)))
		}
	}
}

// processArith applies the arbitrary-pointer-arithmetic policy (§4.2) to one
// PtrAdd edge. Baseline: struct objects flowing through lose field
// sensitivity. Optimistic (PA): plain struct objects of known type are
// filtered out entirely and recorded as likely-invariant subjects; unknown-
// type heap objects are never filtered (§6 soundness rule).
func (a *Analysis) processArith(n int, e arithEdge, elems []int) {
	to := a.find(int(e.to))
	site := int(e.site)
	for _, o := range elems {
		obj := a.objOfNode(o)
		if obj == nil {
			continue
		}
		switch {
		case a.cfg.PA && !a.paDisabled[site] && obj.Type != nil && ir.IsStruct(obj.Type):
			m := a.paFiltered[site]
			if m == nil {
				m = map[int]bool{}
				a.paFiltered[site] = m
			}
			m[obj.Index] = true
		case obj.Size == 1:
			a.addToPts(to, o, site, n, true)
		default:
			a.makeFieldInsensitive(obj)
			a.addToPts(to, obj.NodeBase, site, n, true)
		}
	}
}

// connectICall wires newly discovered function targets of an indirect
// callsite: actuals to formals, return value to the call destination.
func (a *Analysis) connectICall(n int, s *icallSite, elems []int) {
	for _, o := range elems {
		obj := a.objOfNode(o)
		if obj == nil || obj.Kind != ObjFunc || s.connected[obj.Index] {
			continue
		}
		s.connected[obj.Index] = true
		callee := a.mod.Func(obj.Name)
		if callee == nil {
			continue
		}
		for i, argN := range s.args {
			if i >= len(callee.Params) {
				break
			}
			a.addCopy(int(argN), a.regNode(callee.Name, callee.Params[i]), int(s.site), true)
		}
		if s.dest >= 0 {
			a.addCopy(a.retNode(callee.Name), int(s.dest), int(s.site), true)
		}
	}
}

// sccPass runs cycle detection over the copy+gep subgraph and handles each
// cycle: copy-only cycles collapse into a single node; positive-weight
// cycles (PWCs) are treated per policy — baseline converts them per Pearce
// (targets lose field sensitivity, then collapse), the PWC likely invariant
// records them and defers any collapse (§4.3) until every site of the cycle
// is restored. Returns whether the graph changed (requiring another
// propagation round).
func (a *Analysis) sccPass() bool {
	a.stats.SCCPasses++
	changed := false
	for _, scc := range a.sccs() {
		inSCC := map[int]bool{}
		for _, n := range scc {
			inSCC[int(n)] = true
		}
		// Collect internal positive gep edges.
		var positive []*gepEdge
		for _, n := range scc {
			for _, e := range a.gepTo[n] {
				if e.off > 0 && inSCC[a.find(int(e.to))] {
					positive = append(positive, e)
				}
			}
		}
		if len(scc) == 1 && len(positive) == 0 {
			continue
		}
		if len(positive) == 0 {
			// Simple copy cycle: safe to collapse.
			if a.tracer != nil {
				a.tracer.Cycle(len(scc), false)
			}
			for _, n := range scc[1:] {
				a.union(int(scc[0]), int(n))
			}
			changed = true
			continue
		}
		// Positive-weight cycle.
		unseen := false
		for _, e := range positive {
			if !e.pwcSeen {
				unseen = true
				e.pwcSeen = true
			}
		}
		if unseen {
			a.stats.PWCs++
			if a.tracer != nil {
				a.tracer.Cycle(len(scc), true)
			}
		}
		if a.cfg.PWC && a.pwcAssumed(positive) {
			if unseen {
				a.recordPWC(positive)
			}
			continue // defer: no collapse, no field-sensitivity loss
		}
		if !unseen {
			continue // already mitigated
		}
		// Baseline mitigation (Pearce): objects flowing into the Field-Of
		// edges of the cycle lose field sensitivity — now and in the future
		// (collapse flag) — and the cycle merges into one node.
		for _, e := range positive {
			e.collapse = true
		}
		for _, n := range scc {
			if a.pts[n] == nil {
				continue
			}
			for _, o := range a.pts[n].Elements() {
				if obj := a.objOfNode(o); obj != nil {
					a.makeFieldInsensitive(obj)
				}
			}
		}
		for _, n := range scc[1:] {
			a.union(int(scc[0]), int(n))
		}
		changed = true
	}
	return changed
}

// pwcAssumed reports whether the PWC invariant still covers a cycle: some
// positive edge's site has not been restored. A cycle whose sites are all
// restored gets the baseline mitigation, as in a fresh baseline solve.
func (a *Analysis) pwcAssumed(positive []*gepEdge) bool {
	for _, e := range positive {
		if !a.pwcDone[int(e.site)] {
			return true
		}
	}
	return false
}

// recordPWC emits the PWC likely-invariant record and one monitor per
// Field-Of instruction in the cycle.
func (a *Analysis) recordPWC(positive []*gepEdge) {
	sites := map[int]bool{}
	for _, e := range positive {
		sites[int(e.site)] = true
	}
	var sorted []int
	for s := range sites {
		sorted = append(sorted, s)
	}
	sort.Ints(sorted)
	key := fmt.Sprint(sorted)
	if a.pwcRecords[key] {
		return
	}
	a.pwcRecords[key] = true
	var parts []string
	for _, s := range sorted {
		parts = append(parts, fmt.Sprintf("#%d", s))
	}
	rec := invariant.Record{
		Kind:            invariant.PWC,
		Site:            sorted[0],
		CycleFieldSites: sorted,
		Desc:            "positive-weight cycle through field accesses " + strings.Join(parts, ", "),
	}
	a.pwcList = append(a.pwcList, rec)
}

// invariantRecords derives the current invariant and monitor lists: Ctx
// records fixed at build time, PWC records found during solving (minus
// restored ones), and PA records from the live filtering state. Indexes in
// the monitor list refer to the returned record slice.
func (a *Analysis) invariantRecords() ([]invariant.Record, []invariant.Monitor) {
	var recs []invariant.Record
	var mons []invariant.Monitor
	for _, rec := range a.ctxRecords {
		mons = append(mons, invariant.Monitor{InstrID: rec.Site, Kind: invariant.Ctx, Invariant: len(recs)})
		recs = append(recs, rec)
	}
	for _, rec := range a.pwcList {
		restored := true
		for _, s := range rec.CycleFieldSites {
			if !a.pwcDone[s] {
				restored = false
				break
			}
		}
		if restored {
			continue
		}
		for _, s := range rec.CycleFieldSites {
			mons = append(mons, invariant.Monitor{InstrID: s, Kind: invariant.PWC, Invariant: len(recs)})
		}
		recs = append(recs, rec)
	}
	var sites []int
	for s := range a.paFiltered {
		if !a.paDisabled[s] {
			sites = append(sites, s)
		}
	}
	sort.Ints(sites)
	for _, site := range sites {
		var objs []int
		for oi := range a.paFiltered[site] {
			objs = append(objs, oi)
		}
		sort.Ints(objs)
		var names []string
		for _, oi := range objs {
			names = append(names, a.objects[oi].Label())
		}
		mons = append(mons, invariant.Monitor{InstrID: site, Kind: invariant.PA, Invariant: len(recs)})
		recs = append(recs, invariant.Record{
			Kind:         invariant.PA,
			Site:         site,
			FilteredObjs: objs,
			Desc:         "arbitrary arithmetic never addresses struct objects " + strings.Join(names, ", "),
		})
	}
	return recs, mons
}

// sccs returns the strongly connected components of the copy+gep subgraph
// over representative nodes that are cycles: every multi-node component,
// plus singletons with a positive gep self-loop. Components come in
// completion order, members in stack-pop order.
func (a *Analysis) sccs() [][]int32 {
	var out [][]int32
	root := func(v int) bool { return a.find(v) == v }
	succ := func(v, i int) (int, bool) {
		if i < len(a.copyTo[v]) {
			return a.find(int(a.copyTo[v][i])), true
		}
		if i -= len(a.copyTo[v]); i < len(a.gepTo[v]) {
			return a.find(int(a.gepTo[v][i].to)), true
		}
		return 0, false
	}
	tarjan(len(a.nodes), root, succ, func(scc []int32) {
		if len(scc) > 1 || a.hasSelfGep(int(scc[0])) {
			out = append(out, append([]int32(nil), scc...))
		}
	})
	return out
}

// hasSelfGep reports whether v has a positive-weight gep self-loop (a PWC
// that collapsed onto a single node).
func (a *Analysis) hasSelfGep(v int) bool {
	for _, e := range a.gepTo[v] {
		if e.off > 0 && a.find(int(e.to)) == v {
			return true
		}
	}
	return false
}
