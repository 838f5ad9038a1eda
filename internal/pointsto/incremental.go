package pointsto

import (
	"fmt"

	"repro/internal/invariant"
	"repro/internal/ir"
)

// Incremental re-analysis (paper §8): instead of switching to a pre-generated
// fallback view when a likely invariant is violated, the points-to solution
// can be updated on the fly. Restore re-admits exactly the constraints the
// violated invariant had optimistically removed and re-runs the (monotone)
// solver from the current fixed point — far cheaper than a fresh solve, and
// the result abandons only the violated assumption.
//
// Soundness note for callers: after a Restore, the remaining invariant set
// (Invariants()) may carry updated PA filter sets, so runtime monitors must
// be rebuilt from the refreshed result before execution continues. The
// incremental execution controller in internal/core does this swap.

// Restore abandons one previously assumed likely invariant, re-admits its
// constraints, and incrementally re-solves. It returns an error if the
// record does not correspond to an assumption of this analysis.
func (r *Result) Restore(rec invariant.Record) error {
	a := r.a
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
		// Apply the baseline mitigation to the cycle's Field-Of edges:
		// objects flowing through them lose field sensitivity, now and in
		// the future.
		for n := range a.gepTo {
			touched := false
			for _, e := range a.gepTo[n] {
				if sites[int(e.site)] {
					e.collapse = true
					touched = true
				}
			}
			if !touched {
				continue
			}
			if a.pts[a.find(n)] != nil {
				for _, o := range a.pts[a.find(n)].Elements() {
					if obj := a.objOfNode(o); obj != nil {
						a.makeFieldInsensitive(obj)
					}
				}
			}
			// The re-collapsed Field-Of edges must re-see the full set.
			a.seedDelta(n)
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
			a.addCopy(a.regNode(f.Name, in.Src), a.retNode(f.Name), in.ID, -1, false)
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
	// Restore re-solves outside any SolveCtx budget, so this cannot abort;
	// the error return is plumbed through for uniformity.
	return a.resolve()
}
