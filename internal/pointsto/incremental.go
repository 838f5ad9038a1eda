package pointsto

import (
	"context"
	"fmt"
	"maps"
	"slices"

	"repro/internal/bitset"
	"repro/internal/invariant"
	"repro/internal/ir"
	"repro/internal/telemetry"
)

// Incremental re-analysis (paper §8): instead of switching to a pre-generated
// fallback view when a likely invariant is violated, the points-to solution
// can be updated on the fly. Restore re-admits exactly the constraints the
// violated invariant had optimistically removed and re-runs the (monotone)
// solver from the current fixed point — far cheaper than a fresh solve, and
// the result abandons only the violated assumption. Restoring every
// invariant gives back the fallback view exactly; RestoreAll does that on a
// copy, so one solve serves both views.
//
// Soundness note for callers: after a Restore, the remaining invariant set
// (Invariants()) may carry updated PA filter sets, so runtime monitors must
// be rebuilt from the refreshed result before execution continues. The
// incremental execution controller in internal/core does this swap.

// Restore abandons one previously assumed likely invariant, re-admits its
// constraints, and incrementally re-solves. It returns an error if the
// record does not correspond to an assumption of this analysis.
func (r *Result) Restore(rec invariant.Record) error {
	if err := r.a.readmit(rec); err != nil {
		return err
	}
	// Restore re-solves outside any SolveCtx budget, so this cannot abort;
	// the error return is plumbed through for uniformity. RestoreAll is the
	// bounded, cancellable form.
	return r.a.resolve()
}

// RestoreAll returns a new Result with every invariant this one assumes
// restored: equal to a fresh solve under the empty configuration, at the
// cost of a copy plus an incremental re-solve. The receiver is unchanged,
// and both results stay independently restorable. The re-solve runs under
// ctx and b and the armed fault plan, and an abort is a typed *AbortError,
// exactly as in SolveCtx. Its phase spans nest under ctx's current span
// (telemetry.WithSpan), and its Stats are cumulative: the receiver's solve
// plus the restores.
func (r *Result) RestoreAll(ctx context.Context, b Budget) (*Result, error) {
	return r.restoreTo(ctx, b, invariant.Config{})
}

// restoreTo is RestoreAll down to cfg, which must be a subset of the
// receiver's configuration: the copy restores every invariant of a kind cfg
// does not assume, and from then on solves under cfg.
func (r *Result) restoreTo(ctx context.Context, b Budget, cfg invariant.Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		// Skip the copy: the re-solve would abort on its first poll.
		return nil, &AbortError{Steps: int64(r.a.stats.Iterations), Reason: "context done", Cause: err}
	}
	a := r.a.clone()
	a.cfg = cfg
	a.parentSpan = telemetry.SpanFrom(ctx)
	// Re-list after each readmit: restoring one PWC record also retires
	// any other record whose sites it covers.
	for {
		recs, _ := a.invariantRecords()
		i := slices.IndexFunc(recs, func(rec invariant.Record) bool { return !cfg.Assumes(rec.Kind) })
		if i < 0 {
			break
		}
		if err := a.readmit(recs[i]); err != nil {
			return nil, err
		}
	}
	return a.SolveCtx(ctx, b)
}

// readmit abandons one assumption: it re-admits the record's constraints and
// schedules the affected nodes, leaving the re-solve to the caller.
func (a *Analysis) readmit(rec invariant.Record) error {
	switch rec.Kind {
	case invariant.PA:
		if a.paFiltered[rec.Site] == nil || a.paDisabled[rec.Site] {
			return fmt.Errorf("pointsto: no active PA assumption at site %d", rec.Site)
		}
		a.paDisabled[rec.Site] = true
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
		sites := map[int]bool{}
		for _, s := range rec.CycleFieldSites {
			sites[s] = true
			if !a.pwcDone[s] {
				found = true
			}
			a.pwcDone[s] = true
		}
		if !found {
			return fmt.Errorf("pointsto: PWC at sites %v already restored", rec.CycleFieldSites)
		}
		// Forget that the cycle was seen. The next sccPass re-finds it with
		// every site restored and applies the baseline mitigation exactly
		// as a fresh solve does: the Field-Of edges collapse, the objects in
		// the cycle lose field sensitivity, and the cycle merges.
		for _, es := range a.gepTo {
			for _, e := range es {
				if sites[int(e.site)] {
					e.pwcSeen = false
				}
			}
		}
	case invariant.Ctx:
		in := a.mod.InstrByID(rec.Site)
		f := a.mod.FuncOfInstr(rec.Site)
		if in == nil || f == nil || !a.ctxSkip[rec.Site] {
			return fmt.Errorf("pointsto: no Ctx assumption at site %d", rec.Site)
		}
		delete(a.ctxSkip, rec.Site)
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
		// Drop the record: the assumption is no longer held.
		kept := a.ctxRecords[:0]
		for _, cr := range a.ctxRecords {
			if cr.Site != rec.Site {
				kept = append(kept, cr)
			}
		}
		a.ctxRecords = kept
	default:
		return fmt.Errorf("pointsto: unknown invariant kind %v", rec.Kind)
	}
	return nil
}

// clone deep-copies the solver state of a finished analysis, so restoring
// invariants on the copy leaves a untouched and each stays restorable.
// Objects are copied because collapses set Object.Insens, and the node maps
// because a Ctx restore may register nodes. Only what never changes after
// build is shared: the module, layouts, Ctx plan, and node descriptors.
// Slices that only ever grow by append are shared with their capacity
// clipped, so an append on either side reallocates instead of writing into
// the other's backing array.
func (a *Analysis) clone() *Analysis {
	c := *a
	c.nodes = slices.Clip(a.nodes)
	c.rep = slices.Clone(a.rep)
	c.pts = cloneSets(a.pts)
	c.delta = cloneSets(a.delta)
	c.objects = make([]*Object, len(a.objects))
	objs := make([]Object, len(a.objects))
	for i, o := range a.objects {
		objs[i] = *o
		c.objects[i] = &objs[i]
	}
	c.objBySite = remapObjects(a.objBySite, c.objects)
	c.objByGlobal = remapObjects(a.objByGlobal, c.objects)
	c.objByFunc = remapObjects(a.objByFunc, c.objects)

	c.copyTo = clipEach(a.copyTo)
	c.loadTo = clipEach(a.loadTo)
	c.storeFrom = clipEach(a.storeFrom)
	c.arithTo = clipEach(a.arithTo)
	c.hcdAt = clipEach(a.hcdAt)
	// Field-Of edges carry mutable collapse and PWC flags; each edge sits
	// in exactly one list, so one backing array holds all the copies.
	edges := 0
	for _, es := range a.gepTo {
		edges += len(es)
	}
	gepCopies := make([]gepEdge, 0, edges)
	c.gepTo = make([][]*gepEdge, len(a.gepTo))
	for n, es := range a.gepTo {
		if es == nil {
			continue
		}
		c.gepTo[n] = make([]*gepEdge, len(es))
		for i, e := range es {
			gepCopies = append(gepCopies, *e)
			c.gepTo[n][i] = &gepCopies[len(gepCopies)-1]
		}
	}
	// Indirect callsites carry their connected-target sets.
	sites := make(map[*icallSite]*icallSite, len(a.icallSites))
	c.icallSites = make([]*icallSite, len(a.icallSites))
	for i, s := range a.icallSites {
		sc := *s
		sc.connected = maps.Clone(s.connected)
		sites[s] = &sc
		c.icallSites[i] = &sc
	}
	c.icallsAt = make([][]*icallSite, len(a.icallsAt))
	for n, ss := range a.icallsAt {
		if ss == nil {
			continue
		}
		c.icallsAt[n] = make([]*icallSite, len(ss))
		for i, s := range ss {
			c.icallsAt[n][i] = sites[s]
		}
	}

	c.copyEdges = maps.Clone(a.copyEdges)
	c.provs = maps.Clone(a.provs)
	for k, es := range c.provs {
		c.provs[k] = slices.Clip(es)
	}
	c.regNodes = maps.Clone(a.regNodes)
	c.retNodes = maps.Clone(a.retNodes)
	c.worklist = slices.Clone(a.worklist)
	c.inWL = slices.Clone(a.inWL)
	c.paFiltered = make(map[int]map[int]bool, len(a.paFiltered))
	for site, objs := range a.paFiltered {
		c.paFiltered[site] = maps.Clone(objs)
	}
	c.ctxSkip = maps.Clone(a.ctxSkip)
	c.ctxRecords = slices.Clone(a.ctxRecords)
	c.pwcList = slices.Clone(a.pwcList)
	c.pwcRecords = maps.Clone(a.pwcRecords)
	c.paDisabled = maps.Clone(a.paDisabled)
	c.pwcDone = maps.Clone(a.pwcDone)
	c.hcdEntries = slices.Clone(a.hcdEntries)
	if a.lcdSeen != nil {
		// The LCD probe set only saves repeated probes; the copy starts
		// empty instead of paying for a map copy.
		c.lcdSeen = map[edgeKey]bool{}
	}
	// The copy built nothing: the build span belongs to a alone.
	c.buildEmitted = true
	return &c
}

// cloneSets deep-copies a per-node set slice, keeping nil entries nil.
func cloneSets(sets []*bitset.Set) []*bitset.Set {
	out := make([]*bitset.Set, len(sets))
	for i, s := range sets {
		if s != nil {
			out[i] = s.Clone()
		}
	}
	return out
}

// remapObjects points an object index at the copied objects.
func remapObjects[K comparable](m map[K]*Object, objs []*Object) map[K]*Object {
	out := make(map[K]*Object, len(m))
	for k, o := range m {
		out[k] = objs[o.Index]
	}
	return out
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
