package pointsto

import (
	"repro/internal/invariant"
	"repro/internal/ir"
)

// Context-sensitivity pre-pass (§4.4): a lightweight intraprocedural data
// flow identifies precision-critical arguments — pointer parameters that
// either flow to the function's return value or are stored through an
// address derived from another pointer parameter. Functions whose address is
// taken are excluded: their callsites cannot be statically enumerated, so
// the generic constraints must stay (soundness).

type stepKind uint8

const (
	stepField stepKind = iota // &(p->k): weighted Field-Of
	stepIndex                 // &p[i]: index-insensitive copy
	stepLoad                  // *p
)

// ctxStep is one step of an address/value derivation chain from a parameter.
type ctxStep struct {
	kind stepKind
	off  int32 // analysis-slot field offset for stepField
}

// criticalStore marks "store through arg i's pointee, value = arg j".
type criticalStore struct {
	fn         string
	store      *ir.Store
	baseParam  int
	chain      []ctxStep // derivation from param baseParam to the store address
	valParam   int
	baseSample invariant.CtxSample
	valSample  invariant.CtxSample
}

// criticalRet marks "return value derived from arg i".
type criticalRet struct {
	fn     string
	ret    *ir.Ret
	param  int
	chain  []ctxStep
	sample invariant.CtxSample
}

// callsiteRef is a direct call with its caller.
type callsiteRef struct {
	caller string
	call   *ir.Call
}

// ctxPlan is the result of the pre-pass.
type ctxPlan struct {
	stores    []criticalStore
	rets      []criticalRet
	callsites map[string][]callsiteRef // callee -> direct callsites
}

// detectCtx runs the pre-pass over every function of m.
func detectCtx(m *ir.Module) *ctxPlan {
	plan := &ctxPlan{callsites: map[string][]callsiteRef{}}
	for _, f := range m.Funcs {
		f.Instrs(func(_ *ir.Block, in ir.Instr) {
			if c, ok := in.(*ir.Call); ok {
				plan.callsites[c.Callee] = append(plan.callsites[c.Callee], callsiteRef{caller: f.Name, call: c})
			}
		})
	}
	for _, f := range m.Funcs {
		if f.AddressTaken {
			continue
		}
		if len(plan.callsites[f.Name]) < 2 {
			// Context insensitivity only loses precision with multiple
			// calling contexts.
			continue
		}
		detectCtxInFunc(f, plan)
	}
	// Keep only candidates whose callee constraints we can fully replace:
	// deterministic single-definition chains guaranteed by the front-end.
	return plan
}

// detectCtxInFunc scans one function for critical stores and returns.
//
// Parameters that are assigned (or address-taken) inside the function are
// backed by stack slots; the chain walk sees through the slot load and the
// derivation is still attributed to the parameter. That attribution is
// precisely the optimistic part of the Ctx invariant: the parameter may have
// been redirected through its slot by the time the critical store or return
// executes, which the runtime monitor checks by sampling the slot's current
// value (Deref samples).
func detectCtxInFunc(f *ir.Function, plan *ctxPlan) {
	defOf := map[string]ir.Instr{}
	defCount := map[string]int{}
	f.Instrs(func(_ *ir.Block, in ir.Instr) {
		if d := in.Def(); d != "" {
			defOf[d] = in
			defCount[d]++
		}
	})
	paramIdx := map[string]int{}
	for i, p := range f.Params {
		paramIdx[p] = i
	}
	// Backing slots: an alloca whose slot receives a store of the raw
	// parameter register (the front-end prologue pattern).
	slotParam := map[string]int{} // alloca dest register -> param index
	f.Instrs(func(_ *ir.Block, in ir.Instr) {
		st, ok := in.(*ir.Store)
		if !ok {
			return
		}
		i, isParam := paramIdx[st.Src]
		if !isParam {
			return
		}
		if _, isAlloca := defOf[st.Addr].(*ir.Alloca); isAlloca {
			slotParam[st.Addr] = i
		}
	})

	// derive walks the single-definition chain from reg back to a parameter,
	// returning the parameter index, the address-derivation chain, and the
	// monitor sample spec for observing the parameter's current value.
	var derive func(reg string, depth int) (int, []ctxStep, invariant.CtxSample, bool)
	derive = func(reg string, depth int) (int, []ctxStep, invariant.CtxSample, bool) {
		if i, ok := paramIdx[reg]; ok {
			return i, nil, invariant.CtxSample{Reg: reg}, true
		}
		if depth > 8 || defCount[reg] != 1 {
			return 0, nil, invariant.CtxSample{}, false
		}
		switch d := defOf[reg].(type) {
		case *ir.Copy:
			return derive(d.Src, depth+1)
		case *ir.FieldAddr:
			i, chain, smp, ok := derive(d.Base, depth+1)
			if !ok {
				return 0, nil, smp, false
			}
			off := d.Struct.Layout().FieldAnalysisOff[d.Field]
			return i, append(chain, ctxStep{kind: stepField, off: int32(off)}), smp, true
		case *ir.IndexAddr:
			i, chain, smp, ok := derive(d.Base, depth+1)
			if !ok {
				return 0, nil, smp, false
			}
			return i, append(chain, ctxStep{kind: stepIndex}), smp, true
		case *ir.Load:
			// Loading the parameter's backing slot yields the (possibly
			// redirected) parameter value: optimistically the callsite
			// actual, monitored via a deref sample.
			if i, ok := slotParam[d.Addr]; ok {
				return i, nil, invariant.CtxSample{Reg: d.Addr, Deref: true}, true
			}
			i, chain, smp, ok := derive(d.Addr, depth+1)
			if !ok {
				return 0, nil, smp, false
			}
			return i, append(chain, ctxStep{kind: stepLoad}), smp, true
		}
		return 0, nil, invariant.CtxSample{}, false
	}

	pointerParam := func(i int) bool { return ir.IsPointerLike(f.ParamTypes[i]) }

	f.Instrs(func(_ *ir.Block, in ir.Instr) {
		switch in := in.(type) {
		case *ir.Store:
			j, vchain, vsmp, vok := derive(in.Src, 0)
			if !vok || len(vchain) != 0 || !pointerParam(j) {
				return
			}
			i, achain, asmp, aok := derive(in.Addr, 0)
			if !aok || !pointerParam(i) || i == j {
				return
			}
			plan.stores = append(plan.stores, criticalStore{
				fn: f.Name, store: in, baseParam: i, chain: achain, valParam: j,
				baseSample: asmp, valSample: vsmp,
			})
		case *ir.Ret:
			if in.Src == "" {
				return
			}
			i, chain, smp, ok := derive(in.Src, 0)
			if !ok || !pointerParam(i) {
				return
			}
			plan.rets = append(plan.rets, criticalRet{fn: f.Name, ret: in, param: i, chain: chain, sample: smp})
		}
	})
}
