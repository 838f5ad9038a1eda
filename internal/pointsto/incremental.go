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
		for n, ns := range a.state {
			for _, e := range ns.cons().arithTo {
				if int(e.site) == rec.Site {
					a.seedDelta(n)
				}
			}
		}
	case invariant.PWC:
		i := slices.IndexFunc(a.assumed, func(e assumption) bool {
			return e.Kind == invariant.PWC && e.held && slices.Equal(e.CycleFieldSites, rec.CycleFieldSites)
		})
		if i < 0 {
			return fmt.Errorf("pointsto: no active PWC assumption at sites %v", rec.CycleFieldSites)
		}
		for _, s := range rec.CycleFieldSites {
			a.pwcRestored[s] = true
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
		seen := func(e *gepEdge) bool { return e.pwcSeen && slices.Contains(rec.CycleFieldSites, int(e.site)) }
		for n, ns := range a.state {
			if slices.ContainsFunc(ns.cons().gepTo, seen) {
				for _, e := range a.ownCons(n).gepTo {
					if seen(e) {
						e.pwcSeen = false
					}
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

// derive returns an analysis that starts from a's state and shares it: it
// reads a's node records until it first writes a node (own), and a's objects
// and node maps until it first writes them. a must be finished: it is never
// written again, so any number of analyses derived from it may run
// concurrently with its readers. Only what a restore always writes is copied
// up front: the record and union-find tables, the worklist, the assumption
// table, the HCD entries' fired marks and the provenance log. Only what never
// changes after build is shared for good: the module, Ctx plan,
// node descriptors and the icall site list (Result reads only each site's
// instruction and function-pointer node).
func (a *Analysis) derive() *Analysis {
	c := *a
	c.state = slices.Clone(a.state)
	c.slab = nil // a's spare records are a's: a new node gets a new record
	c.owned = make([]bool, len(a.nodes))
	c.sharedObjs, c.sharedNames = true, true
	c.nodes = slices.Clip(a.nodes)
	c.rep = slices.Clone(a.rep)
	c.worklist = slices.Clone(a.worklist)
	c.inWL = slices.Clone(a.inWL)
	c.hcdEntries = slices.Clone(a.hcdEntries)
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
	c.sccScratch = tarjanScratch{}
	// The derivation built nothing: the build span belongs to a alone.
	c.buildEmitted = true
	return &c
}

// borrowed reports whether node n's record is still the parent's.
func (a *Analysis) borrowed(n int) bool { return a.owned != nil && !a.owned[n] }

// own returns node n's record, made this analysis's own before a write.
func (a *Analysis) own(n int) *nodeState {
	if a.borrowed(n) {
		a.ownNode(n)
	}
	return a.state[n]
}

// ownNode copies node n's record with its sets, its copy record (list and
// inserted targets) and its cold record if it has them. The lists that
// only grow by append are clipped, so an append reallocates instead of
// writing past the end of the parent's array. The copy list, the Field-Of
// edges and the icall sites (with their connected targets) are written in
// place, so they are copied. The copied copy list carries no LCD probe
// marks: the marks only save repeated probes, and the derived solve starts
// as if nothing had been probed, as a fresh solve would.
func (a *Analysis) ownNode(n int) {
	a.owned[n] = true
	ns := *a.state[n]
	if ns.pts != nil {
		ns.pts = ns.pts.Clone()
	}
	if ns.delta != nil {
		ns.delta = ns.delta.Clone()
	}
	if o := ns.out; o != nil {
		own := &copyOut{to: make([]copyEdge, len(o.to)), seen: *o.seen.Clone()}
		for i, e := range o.to {
			own.to[i] = e &^ probedBit
		}
		ns.out = own
	}
	if ns.cold != nil {
		c := *ns.cold
		if c.gepTo != nil {
			edges := make([]gepEdge, len(c.gepTo))
			own := make([]*gepEdge, len(c.gepTo))
			for i, e := range c.gepTo {
				edges[i] = *e
				own[i] = &edges[i]
			}
			c.gepTo = own
		}
		if c.icalls != nil {
			own := make([]*icallSite, len(c.icalls))
			for i, s := range c.icalls {
				sc := *s
				sc.connected = maps.Clone(s.connected)
				own[i] = &sc
			}
			c.icalls = own
		}
		c.loadTo, c.storeFrom = slices.Clip(c.loadTo), slices.Clip(c.storeFrom)
		c.arithTo, c.hcd = slices.Clip(c.arithTo), slices.Clip(c.hcd)
		ns.cold = &c
	}
	a.state[n] = &ns
}

// unshareObjects makes the objects this analysis's own before a write.
func (a *Analysis) unshareObjects() {
	if !a.sharedObjs {
		return
	}
	a.sharedObjs = false
	objs := make([]Object, len(a.objects))
	own := make([]*Object, len(a.objects))
	for i, o := range a.objects {
		objs[i] = *o
		own[i] = &objs[i]
	}
	a.objects = own
}

// unshareNames makes the register and return node maps this analysis's own
// before a write.
func (a *Analysis) unshareNames() {
	if a.sharedNames {
		a.sharedNames = false
		a.regNodes = maps.Clone(a.regNodes)
		a.retNodes = maps.Clone(a.retNodes)
	}
}
