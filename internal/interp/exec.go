package interp

import (
	"fmt"

	"repro/internal/ir"
)

// track records a register write for dynamic points-to observation.
func (mc *Machine) track(cf *cfunc, idx int, v Value) {
	if v.Kind != KindInt {
		mc.trace.recordReg(cf.name, cf.regNames[idx], v.Obj.ID)
	}
}

// call executes a compiled function in a new frame on top of the register
// stack. Its arguments are the registers args of the caller's frame (both
// nil for the entry call); they are copied straight into the parameters.
func (mc *Machine) call(cf *cfunc, caller []Value, args []int) (Value, error) {
	if mc.depth >= maxDepth {
		return Value{}, &RuntimeError{Msg: "call-stack depth limit exceeded"}
	}
	base, top := mc.sp, mc.sp+cf.nRegs
	if top > len(mc.stack) {
		mc.grow(top)
	}
	// A new frame reads as integer 0 until written, whatever an earlier
	// call left in this region of the stack. The caller's frame may sit in
	// the stack grow just replaced; it is read-only here, so that is fine.
	regs := mc.stack[base:top:top]
	clear(regs)
	for i, p := range cf.params {
		if i < len(args) {
			regs[p] = caller[args[i]]
			if mc.cfg.TrackPointsTo {
				mc.track(cf, p, regs[p])
			}
		}
	}
	mc.sp = top
	mc.depth++
	v, err := mc.exec(cf, base)
	mc.sp = base
	mc.depth--
	return v, err
}

// initialStack is the register stack's first size, in registers. Runs of
// the nine paper apps' request drivers peak at 100 to 190.
const initialStack = 256

// grow reallocates the register stack to hold at least need registers,
// moving the live frames below sp. A running frame re-slices its registers
// after every call it makes, since the callee may have grown the stack.
func (mc *Machine) grow(need int) {
	s := make([]Value, max(need, 2*len(mc.stack), initialStack))
	copy(s, mc.stack[:mc.sp])
	mc.stack = s
}

// exec runs the body of cf in the frame at base. Every instruction writes
// its destination register directly (the sink, for one without); under
// TrackPointsTo the written value is observed once the instruction is done.
func (mc *Machine) exec(cf *cfunc, base int) (Value, error) {
	top := base + cf.nRegs
	regs := mc.stack[base:top:top]
	track := mc.cfg.TrackPointsTo
	blk := 0
	for {
		instrs := cf.blocks[blk].instrs
		for ip := 0; ip < len(instrs); ip++ {
			in := &instrs[ip]
			mc.steps++
			if mc.steps > mc.cfg.StepLimit {
				return Value{}, &RuntimeError{Site: in.site, Msg: "step limit exceeded"}
			}
			switch in.op {
			case opConst:
				regs[in.dst] = IntVal(in.val)
			case opBinOp:
				v, err := mc.binop(in, regs[in.a], regs[in.b])
				if err != nil {
					return Value{}, err
				}
				regs[in.dst] = v
			case opInput:
				var v int64
				if mc.inPos < len(mc.inputs) {
					v = mc.inputs[mc.inPos]
					mc.inPos++
				}
				regs[in.dst] = IntVal(v)
			case opOutput:
				mc.trace.Outputs = append(mc.trace.Outputs, regs[in.a].Int)
			case opAlloca:
				obj := &RObj{objInfo: in.obj, Slots: make([]Value, in.obj.layout.RuntimeSize)}
				regs[in.dst] = PtrVal(obj, 0)
			case opMalloc:
				slots := heapSlots
				if in.obj.layout != nil {
					slots = in.obj.layout.RuntimeSize
				} else if in.a >= 0 {
					if n := regs[in.a].Int; n > 0 && n <= 1<<16 {
						slots = int(n)
					}
				}
				obj := &RObj{objInfo: in.obj, Slots: make([]Value, slots)}
				regs[in.dst] = PtrVal(obj, 0)
			case opAddrGlobal:
				regs[in.dst] = PtrVal(&mc.globals[in.off], 0)
			case opAddrFunc:
				regs[in.dst] = Value{Kind: KindFn, Obj: in.fn, Off: in.off}
			case opCopy:
				regs[in.dst] = regs[in.a]
			case opLoad:
				mc.trace.MemOps++
				addr := regs[in.a]
				if addr.Kind != KindPtr {
					return Value{}, &RuntimeError{Site: in.site, Msg: "load through invalid pointer " + addr.String()}
				}
				if addr.Off < 0 || addr.Off >= len(addr.Obj.Slots) {
					return Value{}, &RuntimeError{Site: in.site, Msg: oobMsg("load", addr)}
				}
				regs[in.dst] = addr.Obj.Slots[addr.Off]
			case opStore:
				if in.samples != nil {
					mc.fireCtxCheck(regs, in)
				}
				mc.trace.MemOps++
				addr := regs[in.a]
				if addr.Kind != KindPtr {
					return Value{}, &RuntimeError{Site: in.site, Msg: "store through invalid pointer " + addr.String()}
				}
				if addr.Off < 0 || addr.Off >= len(addr.Obj.Slots) {
					return Value{}, &RuntimeError{Site: in.site, Msg: oobMsg("store", addr)}
				}
				v := regs[in.b]
				addr.Obj.Slots[addr.Off] = v
				if mc.cfg.TrackPointsTo && v.Kind != KindInt {
					mc.trace.recordSlot(addr.Obj.ID, addr.Obj.AnalysisSlot(addr.Off), v.Obj.ID)
				}
			case opFieldAddr:
				base := regs[in.a]
				if base.Kind != KindPtr {
					return Value{}, &RuntimeError{Site: in.site, Msg: "field access through non-pointer " + base.String()}
				}
				res := PtrVal(base.Obj, base.Off+in.off)
				if in.hooked {
					mc.trace.recordMonitor(in.site)
					mc.fires.field++
					mc.hooks.FieldAddr(in.site, base, res)
				}
				regs[in.dst] = res
			case opIndexAddr:
				base := regs[in.a]
				if base.Kind != KindPtr {
					return Value{}, &RuntimeError{Site: in.site, Msg: "indexing non-pointer " + base.String()}
				}
				regs[in.dst] = PtrVal(base.Obj, base.Off+int(regs[in.b].Int)*in.off)
			case opPtrAdd:
				base := regs[in.a]
				if base.Kind != KindPtr {
					return Value{}, &RuntimeError{Site: in.site, Msg: "pointer arithmetic on non-pointer " + base.String()}
				}
				if in.hooked {
					mc.trace.recordMonitor(in.site)
					mc.fires.ptrAdd++
					mc.hooks.PtrAdd(in.site, base)
				}
				regs[in.dst] = PtrVal(base.Obj, base.Off+int(regs[in.b].Int))
			case opCall:
				if in.hooked {
					mc.trace.recordMonitor(in.site)
					mc.fires.ctxCall++
					rec := make([]Value, 0, len(in.ctxArgs))
					for _, i := range in.ctxArgs {
						if i < len(in.args) {
							rec = append(rec, regs[in.args[i]])
						}
					}
					mc.hooks.CtxCall(in.site, rec)
				}
				rv, err := mc.call(in.callee, regs, in.args)
				if err != nil {
					return Value{}, err
				}
				regs = mc.stack[base:top:top]
				regs[in.dst] = rv
			case opICall:
				fv := regs[in.a]
				if fv.Kind != KindFn {
					return Value{}, &RuntimeError{Site: in.site, Msg: "indirect call through non-function value " + fv.String()}
				}
				name := fv.fnName()
				mc.trace.recordICall(in.site, name)
				if mc.prog.checkICalls {
					mc.fires.cfi++
					if !mc.hooks.CheckICall(in.site, name) {
						return Value{}, &CFIViolation{Site: in.site, Target: name}
					}
				}
				callee := mc.prog.funcOf(fv)
				if callee == nil {
					return Value{}, &RuntimeError{Site: in.site, Msg: "indirect call to unknown function " + name}
				}
				rv, err := mc.call(callee, regs, in.args)
				if err != nil {
					return Value{}, err
				}
				regs = mc.stack[base:top:top]
				regs[in.dst] = rv
			case opRet:
				if in.samples != nil {
					mc.fireCtxCheck(regs, in)
				}
				if in.a >= 0 {
					return regs[in.a], nil
				}
				return IntVal(0), nil
			case opJump:
				blk = in.blkA
				goto nextBlock
			case opCondJump:
				if regs[in.a].Truthy() {
					mc.trace.edges[2*in.off+1]++
					blk = in.blkA
				} else {
					mc.trace.edges[2*in.off]++
					blk = in.blkB
				}
				goto nextBlock
			}
			if track && in.dst < len(cf.regNames) {
				mc.track(cf, in.dst, regs[in.dst])
			}
		}
		return Value{}, &RuntimeError{Msg: "fell off end of block in " + cf.name}
	nextBlock:
	}
}

// funcOf resolves the function a function pointer refers to: by its index
// when the value came from this program, by name otherwise (nil if the
// program has no such function).
func (p *Program) funcOf(fv Value) *cfunc {
	if i := fv.Off; i >= 0 && i < len(p.funcs) && p.funcs[i].obj == fv.Obj {
		return p.funcs[i]
	}
	return p.byName[fv.fnName()]
}

func oobMsg(op string, addr Value) string {
	return fmt.Sprintf("out-of-bounds %s at %s+%d (size %d)", op, addr.Obj.Label(), addr.Off, len(addr.Obj.Slots))
}

// fireCtxCheck samples the critical parameters' current values and invokes
// the Ctx monitor hook. Deref samples read through the parameter's backing
// stack slot (the register holds the slot address).
func (mc *Machine) fireCtxCheck(regs []Value, in *cinstr) {
	mc.trace.recordMonitor(in.site)
	mc.fires.ctxCheck++
	vals := make([]Value, len(in.samples))
	for i, s := range in.samples {
		v := regs[s.reg]
		if s.deref {
			if v.Kind == KindPtr && v.Off >= 0 && v.Off < len(v.Obj.Slots) {
				v = v.Obj.Slots[v.Off]
			} else {
				v = IntVal(0)
			}
		}
		vals[i] = v
	}
	mc.hooks.CtxCheck(in.site, vals)
}

// binop evaluates arithmetic and comparisons.
func (mc *Machine) binop(in *cinstr, a, b Value) (Value, error) {
	boolVal := func(c bool) Value {
		if c {
			return IntVal(1)
		}
		return IntVal(0)
	}
	switch in.binop {
	case ir.OpEq:
		return boolVal(a.Equal(b)), nil
	case ir.OpNe:
		return boolVal(!a.Equal(b)), nil
	}
	if a.Kind != KindInt || b.Kind != KindInt {
		return Value{}, &RuntimeError{Site: in.site, Msg: fmt.Sprintf("operator %s on non-integers %s, %s", in.binop, a, b)}
	}
	x, y := a.Int, b.Int
	switch in.binop {
	case ir.OpAdd:
		return IntVal(x + y), nil
	case ir.OpSub:
		return IntVal(x - y), nil
	case ir.OpMul:
		return IntVal(x * y), nil
	case ir.OpDiv:
		if y == 0 {
			return Value{}, &RuntimeError{Site: in.site, Msg: "division by zero"}
		}
		return IntVal(x / y), nil
	case ir.OpRem:
		if y == 0 {
			return Value{}, &RuntimeError{Site: in.site, Msg: "remainder by zero"}
		}
		return IntVal(x % y), nil
	case ir.OpLt:
		return boolVal(x < y), nil
	case ir.OpLe:
		return boolVal(x <= y), nil
	case ir.OpGt:
		return boolVal(x > y), nil
	case ir.OpGe:
		return boolVal(x >= y), nil
	case ir.OpAnd:
		return boolVal(x != 0 && y != 0), nil
	case ir.OpOr:
		return boolVal(x != 0 || y != 0), nil
	}
	return Value{}, &RuntimeError{Site: in.site, Msg: "unknown operator " + string(in.binop)}
}
