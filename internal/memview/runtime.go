package memview

import (
	"fmt"

	"repro/internal/faultinject"
	"repro/internal/interp"
	"repro/internal/invariant"
	"repro/internal/pointsto"
)

// slotAddr identifies a concrete runtime address (object + runtime slot).
type slotAddr struct {
	obj *interp.RObj
	off int
}

// ViolationHandler reacts to a detected likely-invariant violation. The
// default handler performs the secure optimistic→fallback switch; the graded
// controller (§8's finer-grained fallback) degrades one policy at a time.
type ViolationHandler interface {
	OnViolation(v Violation)
}

// switchHandler is the default two-view handler.
type switchHandler struct {
	sw     *Switcher
	secret uint64
}

func (h *switchHandler) OnViolation(v Violation) {
	// The monitor is legitimate switcher-entry code, so it holds the gate
	// secret (the stack-secret push of §5).
	_ = h.sw.Switch(h.secret, v)
}

// Runtime implements interp.Hooks: it evaluates the likely-invariant
// monitors emitted by the optimistic analysis and performs CFI target
// lookups against the active memory view, reporting violations to its
// handler (by default: the secure gate switch).
type Runtime struct {
	sw      *Switcher
	handler ViolationHandler
	faults  *faultinject.Plan // SpuriousViolation fires inside monitor hooks

	paFiltered  map[int]map[interp.AbsKey]bool // PtrAdd site -> filtered objects
	pwcGroups   map[int][]int                  // FieldAddr site -> invariant indexes
	pwcGen      map[int]map[slotAddr]bool      // invariant index -> generated field addresses
	ctxCallInv  map[int]int                    // callsite -> invariant index
	ctxCheckInv map[int]int                    // store/ret site -> invariant index
	ctxRecorded map[int][]interp.Value         // invariant index -> last recorded actuals

	// ChecksPerformed counts monitor checks (not CFI lookups), for the
	// check-density figure (§7.2).
	ChecksPerformed int64
	// CFILookups counts indirect-call policy checks.
	CFILookups int64
}

// AbsKeyOf maps an analysis object to its runtime abstract identity.
func AbsKeyOf(o *pointsto.Object) interp.AbsKey {
	switch o.Kind {
	case pointsto.ObjGlobal:
		return interp.AbsKey{Kind: interp.AbsGlobal, Name: o.Name}
	case pointsto.ObjFunc:
		return interp.AbsKey{Kind: interp.AbsFunc, Name: o.Name}
	case pointsto.ObjStack:
		return interp.AbsKey{Kind: interp.AbsStack, Site: o.Site}
	default:
		return interp.AbsKey{Kind: interp.AbsHeap, Site: o.Site}
	}
}

// CorruptRecordError reports an invariant record that failed validation
// while the monitor runtime was being built from it. Building refuses the
// whole runtime: a monitor wired from a corrupt record could silently watch
// the wrong site, which is exactly the failure mode the validation exists to
// exclude.
type CorruptRecordError struct {
	Index  int // position in the result's invariant list
	Kind   invariant.Kind
	Reason string
}

func (e *CorruptRecordError) Error() string {
	return fmt.Sprintf("memview: corrupt %s invariant record %d: %s", e.Kind, e.Index, e.Reason)
}

// RuntimeOpts configures BuildRuntime. Exactly one of Handler or Switcher
// must be set: a Switcher (plus its Secret) gets the default secure-switch
// handler and enables CheckICall; a custom Handler (graded controller)
// performs its own lookups.
type RuntimeOpts struct {
	Handler  ViolationHandler
	Switcher *Switcher
	Secret   uint64
	// Faults optionally arms fault injection: SpuriousViolation fires inside
	// a monitor hook (reporting a violation no real breach caused), and
	// CorruptRecord mutates one invariant record before wiring — which
	// validation must then catch as a *CorruptRecordError.
	Faults *faultinject.Plan
}

// NewRuntimeWithHandler builds the monitor runtime with a custom violation
// handler and no attached switcher; CheckICall is only usable when a
// switcher is attached (the graded controller performs its own lookups).
// It panics on a corrupt invariant record; error-aware callers use
// BuildRuntime.
func NewRuntimeWithHandler(opt *pointsto.Result, h ViolationHandler) (*Runtime, *interp.Instrumentation) {
	rt, ins, err := BuildRuntime(opt, RuntimeOpts{Handler: h})
	if err != nil {
		panic(err)
	}
	return rt, ins
}

// BuildRuntime builds the monitor runtime and interpreter instrumentation
// from the optimistic analysis result. Every invariant record is validated
// before any monitor is wired from it; a record that fails validation —
// whether from an injected CorruptRecord fault or a real defect upstream —
// surfaces as a typed *CorruptRecordError and no runtime is produced.
func BuildRuntime(opt *pointsto.Result, o RuntimeOpts) (*Runtime, *interp.Instrumentation, error) {
	h := o.Handler
	if h == nil {
		h = &switchHandler{sw: o.Switcher, secret: o.Secret}
	}
	rt := &Runtime{
		sw:          o.Switcher,
		handler:     h,
		faults:      o.Faults,
		paFiltered:  map[int]map[interp.AbsKey]bool{},
		pwcGroups:   map[int][]int{},
		pwcGen:      map[int]map[slotAddr]bool{},
		ctxCallInv:  map[int]int{},
		ctxCheckInv: map[int]int{},
		ctxRecorded: map[int][]interp.Value{},
	}
	ins := &interp.Instrumentation{
		PtrAddSites: map[int]bool{},
		FieldSites:  map[int]bool{},
		CtxCallArgs: map[int][]int{},
		CtxChecks:   map[int][]invariant.CtxSample{},
		CheckICalls: true,
	}
	objs := opt.Objects()
	recs := corruptRecords(opt.Invariants(), o.Faults)
	for idx, rec := range recs {
		if reason := validateRecord(rec, len(objs)); reason != "" {
			return nil, nil, &CorruptRecordError{Index: idx, Kind: rec.Kind, Reason: reason}
		}
		switch rec.Kind {
		case invariant.PA:
			ins.PtrAddSites[rec.Site] = true
			filtered := map[interp.AbsKey]bool{}
			for _, oi := range rec.FilteredObjs {
				filtered[AbsKeyOf(objs[oi])] = true
			}
			rt.paFiltered[rec.Site] = filtered
		case invariant.PWC:
			for _, site := range rec.CycleFieldSites {
				ins.FieldSites[site] = true
				rt.pwcGroups[site] = append(rt.pwcGroups[site], idx)
			}
			rt.pwcGen[idx] = map[slotAddr]bool{}
		case invariant.Ctx:
			ins.CtxChecks[rec.Site] = rec.CtxSamples
			rt.ctxCheckInv[rec.Site] = idx
			for _, cs := range rec.Callsites {
				ins.CtxCallArgs[cs] = rec.CtxParams
				rt.ctxCallInv[cs] = idx
			}
		}
	}
	return rt, ins, nil
}

// validateRecord checks the structural integrity of one invariant record
// against the result it came from; "" means valid.
func validateRecord(rec invariant.Record, numObjs int) string {
	if rec.Site < 0 {
		return fmt.Sprintf("negative monitor site %d", rec.Site)
	}
	switch rec.Kind {
	case invariant.PA:
		for _, oi := range rec.FilteredObjs {
			if oi < 0 || oi >= numObjs {
				return fmt.Sprintf("filtered object index %d outside [0,%d)", oi, numObjs)
			}
		}
	case invariant.PWC:
		if len(rec.CycleFieldSites) == 0 {
			return "positive-weight cycle with no field sites"
		}
		for _, s := range rec.CycleFieldSites {
			if s < 0 {
				return fmt.Sprintf("negative cycle field site %d", s)
			}
		}
	case invariant.Ctx:
		if len(rec.CtxParams) != len(rec.CtxSamples) {
			return fmt.Sprintf("%d critical params but %d samples", len(rec.CtxParams), len(rec.CtxSamples))
		}
		for _, cs := range rec.Callsites {
			if cs < 0 {
				return fmt.Sprintf("negative callsite %d", cs)
			}
		}
	default:
		return fmt.Sprintf("unknown invariant kind %v", rec.Kind)
	}
	return ""
}

// corruptRecords applies an armed CorruptRecord fault: the record whose
// sequence hit the fault fires on has its monitor site driven out of range,
// in a copy — the analysis result itself is never mutated.
func corruptRecords(recs []invariant.Record, plan *faultinject.Plan) []invariant.Record {
	if !plan.Armed(faultinject.CorruptRecord) || len(recs) == 0 {
		return recs
	}
	out := make([]invariant.Record, len(recs))
	copy(out, recs)
	for i := range out {
		if plan.Fire(faultinject.CorruptRecord) {
			out[i].Site = -(out[i].Site + 1)
		}
	}
	return out
}

// violate reports the violation to the handler.
func (rt *Runtime) violate(kind invariant.Kind, site int, detail string) {
	rt.handler.OnViolation(Violation{Kind: kind, Site: site, Detail: detail})
}

// injectSpurious fires the SpuriousViolation fault site: when armed and due,
// the monitor reports a violation that no real invariant breach caused. The
// system must degrade exactly as for a real violation — land soundly on the
// fallback view — which the chaos harness asserts.
func (rt *Runtime) injectSpurious(kind invariant.Kind, site int) {
	if rt.faults.Fire(faultinject.SpuriousViolation) {
		rt.violate(kind, site, "injected spurious monitor violation (faultinject)")
	}
}

// PtrAdd checks the PA invariant: the arithmetic base pointer must not refer
// to any optimistically filtered struct object.
func (rt *Runtime) PtrAdd(site int, base interp.Value) {
	rt.ChecksPerformed++
	rt.injectSpurious(invariant.PA, site)
	if base.Kind != interp.KindPtr {
		return
	}
	if rt.paFiltered[site][base.Obj.Key] {
		rt.violate(invariant.PA, site, fmt.Sprintf("arithmetic pointer refers to filtered object %s", base.Obj.Key))
	}
}

// FieldAddr checks the PWC invariant: a field address generated by a cycle
// member must not be reused as the base of a nested field access in the same
// cycle (§4.3).
func (rt *Runtime) FieldAddr(site int, base, result interp.Value) {
	rt.ChecksPerformed++
	rt.injectSpurious(invariant.PWC, site)
	for _, g := range rt.pwcGroups[site] {
		gen := rt.pwcGen[g]
		if base.Kind == interp.KindPtr && gen[slotAddr{base.Obj, base.Off}] {
			rt.violate(invariant.PWC, site, "field address reused as base pointer: positive-weight cycle formed")
		}
		if result.Kind == interp.KindPtr {
			gen[slotAddr{result.Obj, result.Off}] = true
		}
	}
}

// CtxCall records the actual critical arguments at an instrumented callsite.
func (rt *Runtime) CtxCall(site int, args []interp.Value) {
	rt.ChecksPerformed++
	if inv, ok := rt.ctxCallInv[site]; ok {
		rt.ctxRecorded[inv] = args
	}
}

// CtxCheck verifies that the critical parameters still hold the values
// recorded at the callsite when the critical store/return executes.
func (rt *Runtime) CtxCheck(site int, vals []interp.Value) {
	rt.ChecksPerformed++
	rt.injectSpurious(invariant.Ctx, site)
	inv, ok := rt.ctxCheckInv[site]
	if !ok {
		return
	}
	rec := rt.ctxRecorded[inv]
	if rec == nil {
		return
	}
	for i := range vals {
		if i < len(rec) && !vals[i].Equal(rec[i]) {
			rt.violate(invariant.Ctx, site, fmt.Sprintf("critical argument %d was redirected inside the callee", i))
			return
		}
	}
}

// CheckICall performs the CFI target lookup against the active memory view.
func (rt *Runtime) CheckICall(site int, target string) bool {
	rt.CFILookups++
	return rt.sw.Active().Permits(site, target)
}

var _ interp.Hooks = (*Runtime)(nil)
