package pointsto

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/bitset"
	"repro/internal/faultinject"
	"repro/internal/invariant"
	"repro/internal/ir"
	"repro/internal/telemetry"
)

// Solve runs the inclusion-constraint solver to a fixed point and returns
// the points-to result. Bounded or cancellable solving goes through
// SolveCtx; Solve itself cannot abort (callers that arm SolverBudget faults
// must use SolveCtx).
func (a *Analysis) Solve() *Result {
	r, err := a.SolveCtx(context.Background(), Budget{})
	if err != nil {
		panic(err)
	}
	return r
}

// SolveCtx runs the solver to a fixed point under a context and a step
// budget, alternating worklist propagation with cycle detection/collapse
// until neither changes the graph. On success it returns the finished
// Result. On budget exhaustion, context cancellation/deadline, or an
// injected solver fault it returns a nil Result and a typed *AbortError
// (errors.Is ErrSolveAborted): a bounded solve never passes off partial
// points-to sets as a fixpoint. The aborted analysis keeps its pending
// worklist, so calling SolveCtx again with a larger budget resumes and
// converges to the identical fixpoint. Its phase spans (build, prep, solve
// and the per-round propagate/scc) nest under ctx's current span
// (telemetry.WithSpan).
func (a *Analysis) SolveCtx(ctx context.Context, b Budget) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	a.solveCtx = ctx
	a.stepsLeft = b.MaxSteps // 0 = unlimited
	a.budgeted = b.MaxSteps > 0 || ctx.Done() != nil || a.faults.Armed(faultinject.SolverBudget)
	a.abortErr = nil
	defer func() { a.solveCtx, a.budgeted, a.stepsLeft = nil, false, 0 }()
	// The phase spans nest under the context's current span, which may
	// belong to a request trace.
	parent := telemetry.SpanFrom(ctx)
	if (a.metrics != nil || parent != nil) && !a.buildEmitted {
		// Constraint-graph construction ran inside New, before a registry
		// could be attached; export its interval retroactively, once. A
		// trace-attached parent span is a destination too, registry or not.
		a.buildEmitted = true
		a.metrics.RecordSpan("pointsto/build", parent, a.buildStart, a.buildDur)
	}
	if !a.prepDone {
		// First solve: run offline preprocessing once.
		a.prepDone = true
		if a.prep {
			a.runPrep(parent)
		}
	}
	solveSpan, finishSolve := a.metrics.StartSpan("pointsto/solve", parent)
	for {
		// One histogram sample of worklist depth per solver round.
		a.hWLDepth.Observe(int64(len(a.worklist)))
		_, finP := a.metrics.StartSpan("pointsto/round/propagate", solveSpan)
		a.drain()
		finP()
		if a.abortErr != nil {
			break
		}
		_, finS := a.metrics.StartSpan("pointsto/round/scc", solveSpan)
		changed := a.sccPass()
		finS()
		if !changed {
			break
		}
	}
	if a.abortErr != nil {
		// Budget exhausted (or cancelled, or an injected solver fault): stop
		// cleanly without presenting the intermediate state as a fixpoint.
		// The unpopped worklist stays queued, so a later SolveCtx resumes
		// and converges to the identical fixpoint.
		finishSolve()
		a.flushMetrics()
		err := a.abortErr
		a.abortErr = nil
		if a.metrics != nil {
			a.metrics.Counter("pointsto/solve/aborts").Inc()
		}
		return nil, err
	}
	recs := a.invariantRecords()
	a.stats.MonitorSites = monitorSites(recs)
	// The spare delta sets and the Tarjan scratch only serve a running
	// solve. So do the empty deltas a union that added nothing left behind
	// (unionSetInto takes the target's delta first); a borrowed record's
	// delta is its parent's, already dropped.
	a.spare, a.sccScratch = nil, tarjanScratch{}
	for _, ns := range a.state {
		if ns.delta != nil {
			ns.delta = nil
		}
	}
	// Flatten the union-find so post-solve readers (Result methods) can
	// resolve representatives without path-compression writes; a finished
	// analysis may then be read from many goroutines concurrently.
	a.flattenReps()
	finishSolve()
	a.flushMetrics()
	return newResult(a, recs), nil
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
		if p := a.state[i].pts; int(a.rep[i]) == i && p != nil && !p.Empty() {
			a.hPtsSize.Observe(int64(p.Len()))
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
// on the node's first visit, or after a seedDelta flush) — and then releases
// the consumed delta to the spare list. Without delta propagation (noDelta,
// below DeltaAutoThreshold) it re-consumes the full set on every visit; the
// results are identical because every constraint here is monotone and
// idempotent per pointee, so re-deriving from old pointees only re-adds
// facts that are already present.
func (a *Analysis) processNode(n int) {
	a.stats.Iterations++
	ns := a.own(n)
	work := ns.pts
	if !a.noDelta {
		// Take the delta: pointees that reach n while it is processed start
		// a fresh one.
		work = ns.delta
		ns.delta = nil
	}
	if work == nil {
		return
	}
	size := work.Len()
	a.stats.BitsPropagated += size
	a.hDeltaSize.Observe(int64(size))
	if a.noDelta {
		a.applyConstraints(n, work)
		return
	}
	if ns.pts != nil {
		a.stats.BitsAvoided += ns.pts.Len() - size
	}
	a.applyConstraints(n, work)
	a.release(work)
}

// applyConstraints propagates work, n's pending pointees, through every
// outgoing constraint of n. n's record is this analysis's own (processNode).
func (a *Analysis) applyConstraints(n int, work *bitset.Set) {
	if work.Empty() {
		// Nothing pending: every edge has already consumed the node's full
		// set (new edges seed a flush before pushing the node here).
		return
	}
	elems := work.AppendElements(a.elemBuf[:0])
	a.elemBuf = elems
	ns := a.state[n]
	c := ns.cons()
	if len(c.hcd) > 0 {
		// Hybrid cycle detection: new pointees of n close offline-predicted
		// copy cycles; collapse them now, in O(members), instead of waiting
		// for the next whole-graph sccPass. This may merge n itself away —
		// safe, because the merge moves n's adjacency to the survivor and
		// re-seeds it with the combined full set, so n has nothing left to
		// do.
		a.hcdFire(n, elems)
		if a.rep[n] != int32(n) {
			return
		}
	}
	for _, e := range c.gepTo {
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
	for _, e := range c.loadTo {
		for _, o := range elems {
			if a.nodes[o].kind != nodeObj {
				continue
			}
			a.addCopy(a.find(o), int(e.other), int(e.site), true)
		}
	}
	for _, e := range c.storeFrom {
		for _, o := range elems {
			if a.nodes[o].kind != nodeObj {
				continue
			}
			a.addCopy(int(e.other), a.find(o), int(e.site), true)
		}
	}
	for _, e := range c.arithTo {
		a.processArith(n, e, elems)
	}
	if a.rep[n] != int32(n) {
		// A field collapse merged n away (processArith): the survivor has
		// its lists and a full-set flush.
		return
	}
	for _, s := range c.icalls {
		a.connectICall(n, s, elems)
	}
	// Drop the copy edges whose target a collapse already merged into n:
	// they would propagate nothing, and since merges are never undone they
	// never will. Order and probe marks of the live edges stay.
	out := ns.out
	if out == nil {
		return
	}
	live := out.to[:0]
	for _, e := range out.to {
		if a.find(e.to()) != n {
			live = append(live, e)
		}
	}
	out.to = live
	// An LCD collapse merges into n while this loop walks n's list, and a
	// merge may put the other node's longer list in front of n's edges;
	// mergeNodes then advances walkOff, so the loop reads and marks the
	// same edges in the live list.
	a.walking, a.walkOff = n, 0
	for i, k := 0, len(out.to); i < k; i++ {
		j := a.walkOff + i
		e := out.to[j]
		if a.unionSetInto(e.to(), work, n, 0, false) || !a.prep || e.probed() {
			continue
		}
		// Propagation miss: the target already had every pending pointee,
		// the signature of a converged copy cycle. Probe lazily for one,
		// once per edge.
		if dst := a.find(e.to()); dst != n {
			out.to[j] |= probedBit
			a.lcdProbe(n, dst)
		}
	}
	a.walking = -1
}

// processArith applies the arbitrary-pointer-arithmetic policy (§4.2) to one
// PtrAdd edge. Baseline: struct objects flowing through lose field
// sensitivity. Optimistic (PA): plain struct objects of known type are
// filtered out entirely and recorded as likely-invariant subjects; unknown-
// type heap objects are never filtered (§6 soundness rule).
func (a *Analysis) processArith(n int, e arithEdge, elems []int) {
	to := a.find(int(e.to))
	site := int(e.site)
	var pa *assumption // the site's PA entry, found at its first struct object
	for _, o := range elems {
		obj := a.objOfNode(o)
		if obj == nil {
			continue
		}
		if a.cfg.PA && obj.Type != nil && ir.IsStruct(obj.Type) {
			if pa == nil {
				if pa = a.assumedAt(invariant.PA, site); pa == nil {
					pa = a.assume(invariant.Record{Kind: invariant.PA, Site: site})
				}
			}
			if pa.held {
				if i, found := slices.BinarySearch(pa.FilteredObjs, obj.Index); !found {
					// A new list, never a write to the old one: derived
					// tables and reported records share the old list.
					pa.FilteredObjs = slices.Insert(slices.Clip(pa.FilteredObjs), i, obj.Index)
				}
				continue
			}
		}
		switch {
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
		positive := a.positiveEdges(scc, inSCC)
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
		// Positive-weight cycle. A first sighting writes the edges' flags,
		// so the cycle's records must be this analysis's own first.
		if a.owned != nil && slices.ContainsFunc(positive, func(e *gepEdge) bool { return !e.pwcSeen }) {
			for _, n := range scc {
				a.own(int(n))
			}
			positive = a.positiveEdges(scc, inSCC)
		}
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
			if a.state[n].pts == nil {
				continue
			}
			for _, o := range a.state[n].pts.Elements() {
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

// positiveEdges collects the positive-offset Field-Of edges inside one
// cycle.
func (a *Analysis) positiveEdges(scc []int32, inSCC map[int]bool) []*gepEdge {
	var positive []*gepEdge
	for _, n := range scc {
		for _, e := range a.state[n].cons().gepTo {
			if e.off > 0 && inSCC[a.find(int(e.to))] {
				positive = append(positive, e)
			}
		}
	}
	return positive
}

// pwcAssumed reports whether the PWC invariant still covers a cycle: some
// positive edge's site has not been restored. A cycle whose sites are all
// restored gets the baseline mitigation, as in a fresh baseline solve.
func (a *Analysis) pwcAssumed(positive []*gepEdge) bool {
	return slices.ContainsFunc(positive, func(e *gepEdge) bool { return !a.pwcRestored[int(e.site)] })
}

// recordPWC assumes the PWC likely invariant of a cycle, once per set of
// Field-Of sites; it implies one monitor per site.
func (a *Analysis) recordPWC(positive []*gepEdge) {
	var sites []int
	for _, e := range positive {
		sites = append(sites, int(e.site))
	}
	slices.Sort(sites)
	sites = slices.Compact(sites)
	if slices.ContainsFunc(a.assumed, func(e assumption) bool {
		return e.Kind == invariant.PWC && slices.Equal(e.CycleFieldSites, sites)
	}) {
		return
	}
	parts := make([]string, len(sites))
	for i, s := range sites {
		parts[i] = fmt.Sprintf("#%d", s)
	}
	a.assume(invariant.Record{
		Kind:            invariant.PWC,
		Site:            sites[0],
		CycleFieldSites: sites,
		Desc:            "positive-weight cycle through field accesses " + strings.Join(parts, ", "),
	})
}

// assume adds a held entry for rec and returns it. The table stays in the
// order Invariants reports: Ctx entries (all assumed by build), then PWC
// entries in discovery order, then PA entries by site.
func (a *Analysis) assume(rec invariant.Record) *assumption {
	i := slices.IndexFunc(a.assumed, func(e assumption) bool {
		return e.Kind == invariant.PA && (rec.Kind != invariant.PA || e.Site > rec.Site)
	})
	if i < 0 {
		i = len(a.assumed)
	}
	a.assumed = slices.Insert(a.assumed, i, assumption{Record: rec, held: true})
	return &a.assumed[i]
}

// assumedAt returns the Ctx or PA entry of an instruction, held or not, or
// nil if the analysis never assumed one there.
func (a *Analysis) assumedAt(kind invariant.Kind, site int) *assumption {
	for i := range a.assumed {
		if e := &a.assumed[i]; e.Kind == kind && e.Site == site {
			return e
		}
	}
	return nil
}

// invariantRecords lists the records of every held assumption, in table
// order, rendering each PA record's Desc.
func (a *Analysis) invariantRecords() []invariant.Record {
	var recs []invariant.Record
	for _, e := range a.assumed {
		if !e.held {
			continue
		}
		rec := e.Record
		if rec.Kind == invariant.PA {
			names := make([]string, len(rec.FilteredObjs))
			for i, oi := range rec.FilteredObjs {
				names[i] = a.objects[oi].Label()
			}
			rec.Desc = "arbitrary arithmetic never addresses struct objects " + strings.Join(names, ", ")
		}
		recs = append(recs, rec)
	}
	return recs
}

// monitorSites counts the runtime monitor sites that guard recs: one per Ctx
// or PA record, one per field site of a PWC record.
func monitorSites(recs []invariant.Record) int {
	n := 0
	for _, rec := range recs {
		if rec.Kind == invariant.PWC {
			n += len(rec.CycleFieldSites)
		} else {
			n++
		}
	}
	return n
}

// sccs returns the strongly connected components of the copy+gep subgraph
// over representative nodes that are cycles: every multi-node component,
// plus singletons with a positive gep self-loop. Components come in
// completion order, members in stack-pop order.
func (a *Analysis) sccs() [][]int32 {
	var out [][]int32
	root := func(v int) bool { return a.find(v) == v }
	succ := func(v, i int) (int, bool) {
		ns := a.state[v]
		cp := ns.copies()
		if i < len(cp) {
			return a.find(cp[i].to()), true
		}
		if i -= len(cp); i < len(ns.cons().gepTo) {
			return a.find(int(ns.cons().gepTo[i].to)), true
		}
		return 0, false
	}
	tarjan(&a.sccScratch, len(a.nodes), root, succ, func(scc []int32) {
		if len(scc) > 1 || a.hasSelfGep(int(scc[0])) {
			out = append(out, append([]int32(nil), scc...))
		}
	})
	return out
}

// hasSelfGep reports whether v has a positive-weight gep self-loop (a PWC
// that collapsed onto a single node).
func (a *Analysis) hasSelfGep(v int) bool {
	for _, e := range a.state[v].cons().gepTo {
		if e.off > 0 && a.find(int(e.to)) == v {
			return true
		}
	}
	return false
}
