package pointsto

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/invariant"
	"repro/internal/ir"
)

// build creates all abstract objects and primitive constraints for the
// module, applying the Ctx policy's constraint rewrites when enabled.
func (a *Analysis) build() {
	// Every object sits at its IR number (ir.Module.Finalize), so the
	// object index space is the module's, identical across configurations,
	// and memory views and the interpreter name objects by the same number.
	for _, g := range a.mod.Globals {
		a.newObject(g.Obj, ObjGlobal, g.Name, "", 0, g.Type)
	}
	for _, f := range a.mod.Funcs {
		a.newObject(f.Obj, ObjFunc, f.Name, "", 0, nil)
	}

	// Ctx pre-pass: find precision-critical arguments (§4.4). The plan is
	// always computed (it is reported by introspection) but constraints are
	// rewritten only under cfg.Ctx, which assumes one record per critical
	// store or return: the walk below skips its generic constraint, and
	// wireCtxCallsites adds the callsites that replace it.
	a.ctxPlan = detectCtx(a.mod)
	if a.cfg.Ctx {
		for _, cs := range a.ctxPlan.stores {
			a.assume(invariant.Record{
				Kind:       invariant.Ctx,
				Site:       cs.store.ID,
				CtxParams:  []int{cs.baseParam, cs.valParam},
				CtxSamples: []invariant.CtxSample{cs.baseSample, cs.valSample},
				Desc:       fmt.Sprintf("precision-critical store in %s: *(arg%d chain) = arg%d", cs.fn, cs.baseParam, cs.valParam),
			})
		}
		for _, cr := range a.ctxPlan.rets {
			a.assume(invariant.Record{
				Kind:       invariant.Ctx,
				Site:       cr.ret.ID,
				CtxParams:  []int{cr.param},
				CtxSamples: []invariant.CtxSample{cr.sample},
				Desc:       fmt.Sprintf("precision-critical return in %s: returns arg%d", cr.fn, cr.param),
			})
		}
	}

	for _, f := range a.mod.Funcs {
		fn := f.Name
		f.Instrs(func(_ *ir.Block, in ir.Instr) {
			switch in := in.(type) {
			case *ir.Alloca:
				o := a.newObject(in.Obj, ObjStack, in.Var, fn, in.ID, in.Ty)
				a.addAddrOf(a.regNode(fn, in.Dest), o.NodeBase, in.ID)
			case *ir.Malloc:
				o := a.newObject(in.Obj, ObjHeap, "heap", fn, in.ID, in.SizeOf)
				a.addAddrOf(a.regNode(fn, in.Dest), o.NodeBase, in.ID)
			case *ir.AddrGlobal:
				o := a.objects[a.mod.Global(in.Global).Obj]
				a.addAddrOf(a.regNode(fn, in.Dest), o.NodeBase, in.ID)
			case *ir.AddrFunc:
				o := a.objects[a.mod.Func(in.Func).Obj]
				a.addAddrOf(a.regNode(fn, in.Dest), o.NodeBase, in.ID)
			case *ir.Copy:
				a.addCopy(a.regNode(fn, in.Src), a.regNode(fn, in.Dest), in.ID, false)
			case *ir.Load:
				a.addLoad(a.regNode(fn, in.Addr), a.regNode(fn, in.Dest), in.ID)
			case *ir.Store:
				if a.assumedAt(invariant.Ctx, in.ID) == nil {
					a.addStore(a.regNode(fn, in.Addr), a.regNode(fn, in.Src), in.ID)
				}
			case *ir.FieldAddr:
				off := in.Struct.Layout().FieldAnalysisOff[in.Field]
				a.addGep(a.regNode(fn, in.Base), a.regNode(fn, in.Dest), off, in.ID)
			case *ir.IndexAddr:
				// Array-index insensitive: the element shares the base's
				// analysis slot.
				a.addCopy(a.regNode(fn, in.Base), a.regNode(fn, in.Dest), in.ID, false)
			case *ir.PtrAdd:
				a.addArith(a.regNode(fn, in.Base), a.regNode(fn, in.Dest), in.ID)
			case *ir.Call:
				a.wireDirectCall(fn, in)
			case *ir.ICall:
				a.wireICallSite(fn, in)
			case *ir.Ret:
				if in.Src != "" && a.assumedAt(invariant.Ctx, in.ID) == nil {
					a.addCopy(a.regNode(fn, in.Src), a.retNode(fn), in.ID, false)
				}
			}
		})
	}

	if a.cfg.Ctx {
		a.wireCtxCallsites()
	}
	// Result.CallTargets finds a site by binary search.
	slices.SortFunc(a.icallSites, func(x, y *icallSite) int { return cmp.Compare(x.site, y.site) })
}

// addAddrOf installs the primitive Addr-Of constraint {obj} ⊆ pts(n).
func (a *Analysis) addAddrOf(n, objNode, site int) {
	a.addToPts(n, objNode, site, -1, false)
}

// wireDirectCall connects actuals to formals and the return node to the
// destination for a direct call.
func (a *Analysis) wireDirectCall(caller string, c *ir.Call) {
	callee := a.mod.Func(c.Callee)
	for i, arg := range c.Args {
		if i >= len(callee.Params) {
			break
		}
		a.addCopy(a.regNode(caller, arg), a.regNode(callee.Name, callee.Params[i]), c.ID, false)
	}
	if c.Dest != "" {
		a.addCopy(a.retNode(callee.Name), a.regNode(caller, c.Dest), c.ID, false)
	}
}

// wireICallSite registers an indirect callsite on its function-pointer node;
// targets are connected during solving as they are discovered.
func (a *Analysis) wireICallSite(caller string, c *ir.ICall) {
	fptr := a.regNode(caller, c.FuncPtr)
	args := make([]int32, len(c.Args))
	for i, arg := range c.Args {
		args[i] = int32(a.regNode(caller, arg))
	}
	dest := int32(-1)
	if c.Dest != "" {
		dest = int32(a.regNode(caller, c.Dest))
	}
	site := &icallSite{
		site:      int32(c.ID),
		fptr:      int32(fptr),
		args:      args,
		dest:      dest,
		connected: map[int]bool{},
	}
	nc := a.ownCons(a.find(fptr))
	nc.icalls = append(nc.icalls, site)
	a.icallSites = append(a.icallSites, site)
	a.seedDelta(fptr)
}

// wireCtxCallsites rewires precision-critical stores and returns
// context-sensitively: per callsite, a private dummy-node chain reproduces
// the callee's address derivation on the actual arguments, so callsites no
// longer pollute each other through the shared formals (§4.4). Each wired
// callsite joins its Ctx record.
func (a *Analysis) wireCtxCallsites() {
	for _, cs := range a.ctxPlan.stores {
		rec := a.assumedAt(invariant.Ctx, cs.store.ID)
		for _, c := range a.ctxPlan.callsites[cs.fn] {
			if cs.baseParam >= len(c.call.Args) || cs.valParam >= len(c.call.Args) {
				continue
			}
			rec.Callsites = append(rec.Callsites, c.call.ID)
			base := a.applyChain(a.regNode(c.caller, c.call.Args[cs.baseParam]), cs.chain, c.call.ID)
			a.addStore(base, a.regNode(c.caller, c.call.Args[cs.valParam]), c.call.ID)
		}
	}
	for _, cr := range a.ctxPlan.rets {
		rec := a.assumedAt(invariant.Ctx, cr.ret.ID)
		for _, c := range a.ctxPlan.callsites[cr.fn] {
			if cr.param >= len(c.call.Args) || c.call.Dest == "" {
				continue
			}
			rec.Callsites = append(rec.Callsites, c.call.ID)
			v := a.applyChain(a.regNode(c.caller, c.call.Args[cr.param]), cr.chain, c.call.ID)
			a.addCopy(v, a.regNode(c.caller, c.call.Dest), c.call.ID, false)
		}
	}
}

// applyChain replays an address-derivation chain on a starting node using
// fresh dummy nodes, returning the final node.
func (a *Analysis) applyChain(start int, chain []ctxStep, site int) int {
	n := start
	for _, st := range chain {
		d := a.newNode(node{kind: nodeDummy})
		switch st.kind {
		case stepField:
			a.addGep(n, d, int(st.off), site)
		case stepIndex:
			a.addCopy(n, d, site, false)
		case stepLoad:
			a.addLoad(n, d, site)
		}
		n = d
	}
	return n
}
