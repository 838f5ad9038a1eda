package pointsto

import (
	"context"
	"fmt"
	"maps"
	"slices"

	"repro/internal/invariant"
	"repro/internal/ir"
)

// Incremental re-analysis (paper §8): instead of switching to a pre-generated
// fallback view when a likely invariant is violated, the points-to solution
// can be updated on the fly. Restore re-admits exactly the constraints the
// violated invariant had optimistically removed and re-runs the (monotone)
// solver from the current fixed point — far cheaper than a fresh solve, and
// the result abandons only the violated assumption. Restoring every
// invariant gives back the fallback view exactly; RestoreAll does that in
// one derivation, so one solve serves both views.
//
// Every restore runs on a derived analysis (derive) and returns a new
// Result: the derived analysis reads its parent's state until it first
// writes it, and copies only what it writes. A finished analysis is
// therefore never written again, so a Result is a value: any number of
// results derived from it, and readers of it, may share its state.
//
// Soundness note for callers: a restored result may carry updated PA filter
// sets in its invariants (Invariants()), so runtime monitors must be
// rebuilt from it before execution continues. The incremental execution
// controller in internal/core does this swap.

// Restore returns a new Result that abandons one previously assumed likely
// invariant: its constraints are re-admitted and the re-solve continues
// from the receiver's fixed point. It returns an error if the record does
// not correspond to an assumption of the receiver, which is left unchanged
// either way. Restore cannot abort: it re-solves without a budget and
// without the receiver's fault plan. RestoreAll is the bounded, cancellable
// form.
func (r *Result) Restore(rec invariant.Record) (*Result, error) {
	a := r.a.derive()
	a.faults = nil
	if err := a.readmit(rec); err != nil {
		return nil, err
	}
	res, err := a.SolveCtx(context.Background(), Budget{})
	// Like every derived analysis, the result keeps the receiver's plan for
	// its own bounded restores.
	a.faults = r.a.faults
	return res, err
}

// RestoreAll returns a new Result with every invariant this one assumes
// restored: equal to a fresh solve under the empty configuration, at the
// cost of a derivation plus an incremental re-solve. The receiver is
// unchanged, and both results stay independently restorable. The re-solve
// runs under ctx and b and the armed fault plan, and an abort is a typed
// *AbortError, exactly as in SolveCtx. Its phase spans nest under ctx's
// current span (telemetry.WithSpan), and its Stats are cumulative: the
// receiver's solve plus the restores.
func (r *Result) RestoreAll(ctx context.Context, b Budget) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		// Skip the derivation: the re-solve would abort on its first poll.
		return nil, &AbortError{Steps: int64(r.a.stats.Iterations), Reason: "context done", Cause: err}
	}
	a := r.a.derive()
	a.cfg = invariant.Config{}
	// One pass in report order. Restoring a PWC record also retires every
	// other record whose sites it covers, so the pass skips those.
	for i := range a.assumed {
		if a.assumed[i].held {
			if err := a.readmit(a.assumed[i].Record); err != nil {
				return nil, err
			}
		}
	}
	return a.SolveCtx(ctx, b)
}

// readmit abandons one assumption: it re-admits the record's constraints and
// schedules the affected nodes, leaving the re-solve to the caller.
func (a *Analysis) readmit(rec invariant.Record) error {
	switch rec.Kind {
	case invariant.PA:
		e := a.assumedAt(invariant.PA, rec.Site)
		if e == nil || !e.held {
			return fmt.Errorf("pointsto: no active PA assumption at site %d", rec.Site)
		}
		e.held = false
		// Reprocess every PtrAdd base feeding this site: the previously
		// filtered struct objects now flow through with baseline handling,
		// so the base's full set is flushed back into its delta.
		for n := range a.arithTo {
			for _, e := range a.arithTo[n] {
				if int(e.site) == rec.Site {
					a.seedDelta(n)
				}
			}
		}
	case invariant.PWC:
		if len(rec.CycleFieldSites) == 0 {
			return fmt.Errorf("pointsto: PWC record without field sites")
		}
		found := false
		for _, s := range rec.CycleFieldSites {
			found = found || !a.pwcRestored[s]
			a.pwcRestored[s] = true
		}
		if !found {
			return fmt.Errorf("pointsto: PWC at sites %v already restored", rec.CycleFieldSites)
		}
		// The record is no longer held, nor is any other whose sites are
		// now all restored.
		for i := range a.assumed {
			if e := &a.assumed[i]; e.Kind == invariant.PWC && e.held &&
				!slices.ContainsFunc(e.CycleFieldSites, func(s int) bool { return !a.pwcRestored[s] }) {
				e.held = false
			}
		}
		// Forget that the cycle was seen. The next sccPass re-finds it with
		// every site restored and applies the baseline mitigation exactly
		// as a fresh solve does: the Field-Of edges collapse, the objects in
		// the cycle lose field sensitivity, and the cycle merges.
		a.unshare(tabGep)
		for _, es := range a.gepTo {
			for _, e := range es {
				if slices.Contains(rec.CycleFieldSites, int(e.site)) {
					e.pwcSeen = false
				}
			}
		}
	case invariant.Ctx:
		in := a.mod.InstrByID(rec.Site)
		f := a.mod.FuncOfInstr(rec.Site)
		e := a.assumedAt(invariant.Ctx, rec.Site)
		if in == nil || f == nil || e == nil || !e.held {
			return fmt.Errorf("pointsto: no Ctx assumption at site %d", rec.Site)
		}
		e.held = false
		// Re-admit the generic (context-insensitive) constraint the
		// optimistic analysis had skipped. The per-callsite dummy wiring
		// stays: it is now a harmless refinement.
		switch in := in.(type) {
		case *ir.Store:
			a.addStore(a.regNode(f.Name, in.Addr), a.regNode(f.Name, in.Src), in.ID)
		case *ir.Ret:
			a.addCopy(a.regNode(f.Name, in.Src), a.retNode(f.Name), in.ID, false)
		default:
			return fmt.Errorf("pointsto: Ctx site %d is not a store or return", rec.Site)
		}
	default:
		return fmt.Errorf("pointsto: unknown invariant kind %v", rec.Kind)
	}
	return nil
}

// tables names the parts of an analysis's state a derived analysis shares
// with its parent until it first writes them, one bit each.
type tables uint16

const (
	tabPts     tables = 1 << iota // the points-to table (per node: owned)
	tabDelta                      // the delta table (per node: owned)
	tabCopy                       // the copy lists (per node: owned)
	tabGep                        // the Field-Of lists and their edges
	tabLoad                       // the load lists
	tabStore                      // the store lists
	tabArith                      // the PtrAdd lists
	tabICall                      // the icall lists and their sites
	tabHCD                        // the HCD lists and entries
	tabRep                        // the union-find table
	tabObjects                    // the objects
	tabNames                      // the register and return node maps

	// nodeTables are the tables with one entry per node.
	nodeTables = tabPts | tabDelta | tabCopy | tabGep | tabLoad | tabStore | tabArith | tabICall | tabHCD | tabRep
	allTables  = nodeTables | tabObjects | tabNames
)

// derive returns an analysis that starts from a's state and shares it,
// copying a table the first time it writes one (unshare) and a node's
// points-to set, delta and copy list the first time it writes that node
// (own). a must be finished: it is never written again, so any number of
// analyses derived from it may run concurrently with its readers. Only what
// a restore always writes is copied up front: the worklist, the assumption
// table and the provenance log. Only what never changes after build is
// shared for good: the module, layouts, Ctx plan and node descriptors.
func (a *Analysis) derive() *Analysis {
	c := *a
	c.shared = allTables
	c.owned = make([]bool, len(a.nodes))
	c.nodes = slices.Clip(a.nodes)
	c.copyEdges = a.copyEdges.derive()
	c.worklist = slices.Clone(a.worklist)
	c.inWL = slices.Clone(a.inWL)
	if a.provs != nil {
		c.provs = maps.Clone(a.provs)
		for k, es := range c.provs {
			c.provs[k] = slices.Clip(es)
		}
	}
	c.assumed = slices.Clone(a.assumed)
	c.pwcRestored = maps.Clone(a.pwcRestored)
	// Scratch buffers and spare sets are per solve: sharing them would let
	// two analyses derived concurrently from a write the same memory.
	c.elemBuf, c.lcdVisit, c.lcdGen, c.lcdStack, c.spare = nil, nil, 0, nil, nil
	// The derivation built nothing: the build span belongs to a alone.
	c.buildEmitted = true
	return &c
}

// shares reports whether node n's points-to set, delta and copy list are
// still the parent's.
func (a *Analysis) shares(n int) bool { return a.owned != nil && !a.owned[n] }

// own makes node n's points-to set, delta and copy list this analysis's own
// before a write.
func (a *Analysis) own(n int) {
	if a.shares(n) {
		a.ownNode(n)
	}
}

// ownNode copies node n's points-to set, delta and copy list. The copied
// copy list carries no LCD probe marks: the marks only save repeated
// probes, and the derived solve starts as if nothing had been probed, as a
// fresh solve would.
func (a *Analysis) ownNode(n int) {
	a.unshare(tabPts | tabDelta | tabCopy)
	a.owned[n] = true
	if s := a.pts[n]; s != nil {
		a.pts[n] = s.Clone()
	}
	if s := a.delta[n]; s != nil {
		a.delta[n] = s.Clone()
	}
	if es := a.copyTo[n]; es != nil {
		own := make([]copyEdge, len(es))
		for i, e := range es {
			own[i] = e &^ probedBit
		}
		a.copyTo[n] = own
	}
}

// unshare makes the tables in t this analysis's own before a write; a root
// analysis shares none, so it pays one test.
func (a *Analysis) unshare(t tables) {
	if t &= a.shared; t != 0 {
		a.unshareTables(t)
	}
}

// unshareTables copies the shared tables in t. The per-node tables get a
// new outer slice whose entries are still the parent's: the owned-node
// tables copy an entry in ownNode, and the lists that only grow by append
// are clipped, so an append reallocates instead of writing past the end of
// the parent's array. The Field-Of edges and icall sites carry mutable
// flags, so their tables copy every edge and site.
func (a *Analysis) unshareTables(t tables) {
	a.shared &^= t
	if t&tabPts != 0 {
		a.pts = slices.Clone(a.pts)
	}
	if t&tabDelta != 0 {
		a.delta = slices.Clone(a.delta)
	}
	if t&tabCopy != 0 {
		a.copyTo = slices.Clone(a.copyTo)
	}
	if t&tabGep != 0 {
		a.gepTo = copyGepLists(a.gepTo)
	}
	if t&tabLoad != 0 {
		a.loadTo = clipEach(a.loadTo)
	}
	if t&tabStore != 0 {
		a.storeFrom = clipEach(a.storeFrom)
	}
	if t&tabArith != 0 {
		a.arithTo = clipEach(a.arithTo)
	}
	if t&tabICall != 0 {
		a.icallSites, a.icallsAt = copyICalls(a.icallSites, a.icallsAt)
	}
	if t&tabHCD != 0 {
		a.hcdAt = clipEach(a.hcdAt)
		a.hcdEntries = slices.Clone(a.hcdEntries)
	}
	if t&tabRep != 0 {
		a.rep = slices.Clone(a.rep)
	}
	if t&tabObjects != 0 {
		objs := make([]Object, len(a.objects))
		own := make([]*Object, len(a.objects))
		for i, o := range a.objects {
			objs[i] = *o
			own[i] = &objs[i]
		}
		a.objects = own
	}
	if t&tabNames != 0 {
		a.regNodes = maps.Clone(a.regNodes)
		a.retNodes = maps.Clone(a.retNodes)
	}
}

// copyGepLists copies every Field-Of edge into one backing array; each edge
// sits in exactly one list.
func copyGepLists(lists [][]*gepEdge) [][]*gepEdge {
	edges := 0
	for _, es := range lists {
		edges += len(es)
	}
	all := make([]gepEdge, 0, edges)
	out := make([][]*gepEdge, len(lists))
	for n, es := range lists {
		if es == nil {
			continue
		}
		out[n] = make([]*gepEdge, len(es))
		for i, e := range es {
			all = append(all, *e)
			out[n][i] = &all[len(all)-1]
		}
	}
	return out
}

// copyICalls copies every indirect callsite with its connected-target set,
// and points the site list and the per-node lists at the copies.
func copyICalls(sites []*icallSite, lists [][]*icallSite) ([]*icallSite, [][]*icallSite) {
	copies := make(map[*icallSite]*icallSite, len(sites))
	outSites := make([]*icallSite, len(sites))
	for i, s := range sites {
		sc := *s
		sc.connected = maps.Clone(s.connected)
		copies[s] = &sc
		outSites[i] = &sc
	}
	out := make([][]*icallSite, len(lists))
	for n, ss := range lists {
		if ss == nil {
			continue
		}
		out[n] = make([]*icallSite, len(ss))
		for i, s := range ss {
			out[n][i] = copies[s]
		}
	}
	return outSites, out
}

// clipEach copies an adjacency list's outer slice and clips every inner
// slice to its length; a nil list stays nil.
func clipEach[T any](lists [][]T) [][]T {
	if lists == nil {
		return nil
	}
	out := make([][]T, len(lists))
	for i, l := range lists {
		out[i] = slices.Clip(l)
	}
	return out
}
