package memview

import (
	"fmt"

	"repro/internal/bitset"
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

// Handler decides what the runtime's monitors mean: what a detected
// likely-invariant violation does and which CFI policy answers an indirect
// call. The §5 switcher (Switcher.Handler) switches the whole memory view;
// the §8 fallbacks (the graded and incremental controllers in core) degrade
// one policy or one invariant at a time and Install the result they fall
// back to.
type Handler interface {
	OnViolation(v Violation)
	Permits(site int, target string) bool
}

// Runtime implements interp.Hooks: it evaluates the likely-invariant
// monitors of the installed analysis result and asks its handler for CFI
// target lookups, reporting violations to the handler. An execution has
// exactly one Runtime; a handler that degrades Installs another result's
// monitors into it, and the monitor state of every invariant both results
// assume carries over.
type Runtime struct {
	handler Handler
	faults  *faultinject.Plan // SpuriousViolation fires inside monitor hooks

	// The installed result's monitor tables. A PWC invariant's generated
	// field addresses and a Ctx invariant's recorded actuals are monitor
	// state: Install keeps them, keyed by the record, for every record the
	// new result still assumes.
	paFiltered  map[int]*bitset.Set          // PtrAdd site -> IR numbers of the filtered objects
	pwcGroups   map[int][]map[slotAddr]bool  // FieldAddr site -> generated addresses of each cycle through it
	pwcGen      map[string]map[slotAddr]bool // PWC cycle (its sorted field sites) -> generated field addresses
	ctxCallInv  map[int]*ctxState            // callsite -> state of its Ctx invariant
	ctxCheckInv map[int]*ctxState            // store/ret site (the record's Site) -> state of its Ctx invariant

	// ChecksPerformed counts monitor checks (not CFI lookups), for the
	// check-density figure (§7.2).
	ChecksPerformed int64
	// CFILookups counts indirect-call policy checks.
	CFILookups int64
}

// ctxState is a Ctx invariant's monitor state: the critical actuals last
// recorded at one of its callsites.
type ctxState struct{ recorded []interp.Value }

// CorruptRecordError reports an invariant record that failed validation
// while monitors were being installed from it. Installing refuses the whole
// result: a monitor wired from a corrupt record could silently watch
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

// BuildRuntime builds the monitor runtime of one execution, with h as its
// handler and the monitors of the optimistic analysis result installed.
// The interpreter sites those monitors watch are Instrumentation(opt).
// faults optionally arms fault injection: a SpuriousViolation fires inside
// a monitor hook (reporting a violation no real breach caused), and a
// CorruptRecord mutates one invariant record before wiring, which
// validation must then catch.
func BuildRuntime(opt *pointsto.Result, h Handler, faults *faultinject.Plan) (*Runtime, error) {
	rt := &Runtime{handler: h, faults: faults}
	if err := rt.Install(opt); err != nil {
		return nil, err
	}
	return rt, nil
}

// Instrumentation returns the interpreter instrumentation the monitors of
// opt need: the sites whose execution calls a Runtime hook.
func Instrumentation(opt *pointsto.Result) *interp.Instrumentation {
	ins := &interp.Instrumentation{
		PtrAddSites: map[int]bool{},
		FieldSites:  map[int]bool{},
		CtxCallArgs: map[int][]int{},
		CtxChecks:   map[int][]invariant.CtxSample{},
		CheckICalls: true,
	}
	for _, rec := range opt.Invariants() {
		switch rec.Kind {
		case invariant.PA:
			ins.PtrAddSites[rec.Site] = true
		case invariant.PWC:
			for _, site := range rec.CycleFieldSites {
				ins.FieldSites[site] = true
			}
		case invariant.Ctx:
			ins.CtxChecks[rec.Site] = rec.CtxSamples
			for _, cs := range rec.Callsites {
				ins.CtxCallArgs[cs] = rec.CtxParams
			}
		}
	}
	return ins
}

// Install replaces the runtime's monitors with those of opt. Monitor state
// carries over for every invariant both results assume: a Ctx invariant by
// its site, a PWC invariant by its cycle. Every invariant record is
// validated before any monitor is wired from it; a record that fails
// validation, whether from an injected CorruptRecord fault or a real defect
// upstream, surfaces as a typed *CorruptRecordError and leaves the runtime
// as it was.
//
// A handler may Install from inside OnViolation, that is, inside a hook: a
// hook that is still running finishes against the tables it started with,
// and its writes to kept state land in the state the new tables hold.
func (rt *Runtime) Install(opt *pointsto.Result) error {
	paFiltered := map[int]*bitset.Set{}
	pwcGroups := map[int][]map[slotAddr]bool{}
	pwcGen := map[string]map[slotAddr]bool{}
	ctxCallInv := map[int]*ctxState{}
	ctxCheckInv := map[int]*ctxState{}
	numObjs := len(opt.Objects())
	for idx, rec := range corruptRecords(opt.Invariants(), rt.faults) {
		if reason := validateRecord(rec, numObjs); reason != "" {
			return &CorruptRecordError{Index: idx, Kind: rec.Kind, Reason: reason}
		}
		switch rec.Kind {
		case invariant.PA:
			// An analysis object's index is its IR number, and so the ID
			// of every runtime object made for it.
			n := 0
			for _, oi := range rec.FilteredObjs {
				n = max(n, oi+1)
			}
			filtered := bitset.New(n)
			for _, oi := range rec.FilteredObjs {
				filtered.Add(oi)
			}
			paFiltered[rec.Site] = filtered
		case invariant.PWC:
			// Site is the cycle's first field site, which two cycles may
			// share; the whole site list names the cycle.
			cycle := fmt.Sprint(rec.CycleFieldSites)
			gen := rt.pwcGen[cycle]
			if gen == nil {
				gen = map[slotAddr]bool{}
			}
			pwcGen[cycle] = gen
			for _, site := range rec.CycleFieldSites {
				pwcGroups[site] = append(pwcGroups[site], gen)
			}
		case invariant.Ctx:
			st := rt.ctxCheckInv[rec.Site]
			if st == nil {
				st = &ctxState{}
			}
			ctxCheckInv[rec.Site] = st
			for _, cs := range rec.Callsites {
				ctxCallInv[cs] = st
			}
		}
	}
	rt.paFiltered, rt.pwcGroups, rt.pwcGen = paFiltered, pwcGroups, pwcGen
	rt.ctxCallInv, rt.ctxCheckInv = ctxCallInv, ctxCheckInv
	return nil
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
	if f := rt.paFiltered[site]; f != nil && f.Has(base.Obj.ID) {
		rt.violate(invariant.PA, site, "arithmetic pointer refers to filtered object "+base.Obj.Key())
	}
}

// FieldAddr checks the PWC invariant: a field address generated by a cycle
// member must not be reused as the base of a nested field access in the same
// cycle (§4.3).
func (rt *Runtime) FieldAddr(site int, base, result interp.Value) {
	rt.ChecksPerformed++
	rt.injectSpurious(invariant.PWC, site)
	for _, gen := range rt.pwcGroups[site] {
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
	if st := rt.ctxCallInv[site]; st != nil {
		st.recorded = args
	}
}

// CtxCheck verifies that the critical parameters still hold the values
// recorded at the callsite when the critical store/return executes.
func (rt *Runtime) CtxCheck(site int, vals []interp.Value) {
	rt.ChecksPerformed++
	rt.injectSpurious(invariant.Ctx, site)
	st := rt.ctxCheckInv[site]
	if st == nil || st.recorded == nil {
		return
	}
	rec := st.recorded
	for i := range vals {
		if i < len(rec) && !vals[i].Equal(rec[i]) {
			rt.violate(invariant.Ctx, site, fmt.Sprintf("critical argument %d was redirected inside the callee", i))
			return
		}
	}
}

// CheckICall counts the CFI target lookup and asks the handler.
func (rt *Runtime) CheckICall(site int, target string) bool {
	rt.CFILookups++
	return rt.handler.Permits(site, target)
}

var _ interp.Hooks = (*Runtime)(nil)
