package minic

import (
	"repro/internal/ir"
)

// lowerExpr lowers an expression in value (rvalue) position.
func (fl *fnLowerer) lowerExpr(e expr) (val, error) {
	switch e := e.(type) {
	case *intLit:
		t := fl.b.Temp()
		fl.b.Emit(&ir.Const{Dest: t, Val: e.Val})
		return val{reg: t, ty: ir.Int}, nil
	case *nullLit:
		return val{reg: fl.b.Const(0), ty: nil}, nil
	case *inputExpr:
		t := fl.b.Temp()
		fl.b.Emit(&ir.Input{Dest: t})
		return val{reg: t, ty: ir.Int}, nil
	case *outputExpr:
		v, err := fl.lowerExpr(e.X)
		if err != nil {
			return val{}, err
		}
		fl.b.Emit(&ir.Output{Src: v.reg})
		return val{reg: v.reg, ty: ir.Int}, nil
	case *mallocExpr:
		return fl.lowerMalloc(e)
	case *sizeofExpr:
		ty, err := fl.resolveType(e.TS, -1)
		if err != nil {
			return val{}, err
		}
		if ty == nil {
			return val{}, errf(e.Line, "sizeof(void)")
		}
		t := fl.b.Temp()
		fl.b.Emit(&ir.Const{Dest: t, Val: int64(ty.Layout().RuntimeSize), SizeOfType: ty})
		return val{reg: t, ty: ir.Int}, nil
	case *identExpr:
		return fl.lowerIdentValue(e)
	case *unaryExpr:
		return fl.lowerUnary(e)
	case *binaryExpr:
		return fl.lowerBinary(e)
	case *fieldExpr, *indexExpr:
		l, err := fl.lowerAddr(e)
		if err != nil {
			return val{}, err
		}
		return fl.loadLoc(l, e.exprLine())
	case *callExpr:
		v, err := fl.lowerCall(e)
		if err != nil {
			return val{}, err
		}
		if v.ty == nil && v.reg == "" {
			return val{}, errf(e.Line, "void call used as a value")
		}
		return v, nil
	}
	return val{}, errf(e.exprLine(), "internal: unknown expression %T", e)
}

// lowerExprAllowVoid lowers an expression-statement expression; void calls
// are permitted.
func (fl *fnLowerer) lowerExprAllowVoid(e expr) (val, error) {
	if ce, ok := e.(*callExpr); ok {
		return fl.lowerCall(ce)
	}
	return fl.lowerExpr(e)
}

// loadLoc materializes the rvalue stored at l. Array-typed storage decays to
// a pointer to its first element; struct-typed storage is not loadable.
func (fl *fnLowerer) loadLoc(l loc, line int) (val, error) {
	switch t := l.ty.(type) {
	case *ir.ArrayType:
		return val{reg: l.addr, ty: fl.mod.PointerTo(t.Elem)}, nil
	case *ir.StructType:
		return val{}, errf(line, "cannot use struct %s as a value; take a field or its address", t.Name)
	default:
		return val{reg: fl.b.Load(l.addr), ty: l.ty}, nil
	}
}

func (fl *fnLowerer) lowerIdentValue(e *identExpr) (val, error) {
	if v, ok := fl.lookup(e.Name); ok {
		if v.reg != "" {
			return val{reg: v.reg, ty: v.ty}, nil
		}
		return fl.loadLoc(loc{addr: v.addr, ty: v.ty}, e.Line)
	}
	if gt, ok := fl.globals[e.Name]; ok {
		t := fl.b.Temp()
		fl.b.Emit(&ir.AddrGlobal{Dest: t, Global: e.Name})
		return fl.loadLoc(loc{addr: t, ty: gt}, e.Line)
	}
	if _, ok := fl.funcs[e.Name]; ok {
		t := fl.b.Temp()
		fl.b.Emit(&ir.AddrFunc{Dest: t, Func: e.Name})
		return val{reg: t, ty: ir.Fn}, nil
	}
	return val{}, errf(e.Line, "undefined name %q", e.Name)
}

func (fl *fnLowerer) lowerMalloc(e *mallocExpr) (val, error) {
	t := fl.b.Temp()
	if e.SizeOf != nil {
		ty, err := fl.resolveType(*e.SizeOf, -1)
		if err != nil {
			return val{}, err
		}
		if ty == nil {
			return val{}, errf(e.Line, "malloc(sizeof(void))")
		}
		fl.b.Emit(&ir.Malloc{Dest: t, SizeOf: ty})
		return val{reg: t, ty: fl.mod.PointerTo(ty)}, nil
	}
	// Dynamic-size allocation: the type is not named at this site; the
	// analysis may still recover it from sizeof-tagged constants (§6).
	sz, err := fl.lowerIntOperand(e.Size, e.Line)
	if err != nil {
		return val{}, err
	}
	fl.b.Emit(&ir.Malloc{Dest: t, Size: sz.reg})
	return val{reg: t, ty: fl.mod.PointerTo(ir.Int)}, nil
}

func (fl *fnLowerer) lowerUnary(e *unaryExpr) (val, error) {
	switch e.Op {
	case "&":
		if id, ok := e.X.(*identExpr); ok && !fl.isLocal(id.Name) {
			if _, isGlobal := fl.globals[id.Name]; !isGlobal {
				if _, isFunc := fl.funcs[id.Name]; isFunc {
					t := fl.b.Temp()
					fl.b.Emit(&ir.AddrFunc{Dest: t, Func: id.Name})
					return val{reg: t, ty: ir.Fn}, nil
				}
			}
		}
		l, err := fl.lowerAddr(e.X)
		if err != nil {
			return val{}, err
		}
		if at, ok := l.ty.(*ir.ArrayType); ok {
			// &arr decays like arr.
			return val{reg: l.addr, ty: fl.mod.PointerTo(at.Elem)}, nil
		}
		return val{reg: l.addr, ty: fl.mod.PointerTo(l.ty)}, nil
	case "*":
		v, err := fl.lowerExpr(e.X)
		if err != nil {
			return val{}, err
		}
		pt, ok := v.ty.(*ir.PointerType)
		if !ok {
			return val{}, errf(e.Line, "cannot dereference non-pointer %s", typeName(v.ty))
		}
		return fl.loadLoc(loc{addr: v.reg, ty: pt.Elem}, e.Line)
	case "-":
		v, err := fl.lowerIntOperand(e.X, e.Line)
		if err != nil {
			return val{}, err
		}
		t := fl.b.Temp()
		fl.b.Emit(&ir.BinOp{Dest: t, Op: ir.OpSub, A: fl.b.Const(0), B: v.reg})
		return val{reg: t, ty: ir.Int}, nil
	case "!":
		v, err := fl.lowerExpr(e.X)
		if err != nil {
			return val{}, err
		}
		t := fl.b.Temp()
		fl.b.Emit(&ir.BinOp{Dest: t, Op: ir.OpEq, A: v.reg, B: fl.b.Const(0)})
		return val{reg: t, ty: ir.Int}, nil
	}
	return val{}, errf(e.Line, "internal: unknown unary %q", e.Op)
}

func (fl *fnLowerer) lowerIntOperand(e expr, line int) (val, error) {
	v, err := fl.lowerExpr(e)
	if err != nil {
		return val{}, err
	}
	if v.ty == nil {
		return val{reg: v.reg, ty: ir.Int}, nil
	}
	if _, ok := v.ty.(ir.IntType); !ok {
		return val{}, errf(line, "operand must be integer, got %s", typeName(v.ty))
	}
	return v, nil
}

func (fl *fnLowerer) lowerBinary(e *binaryExpr) (val, error) {
	switch e.Op {
	case "&&", "||":
		return fl.lowerShortCircuit(e)
	}
	x, err := fl.lowerExpr(e.X)
	if err != nil {
		return val{}, err
	}
	// Pointer arithmetic: ptr + int / ptr - int lowers to PtrAdd, the
	// arbitrary-arithmetic construct targeted by the PA likely invariant.
	if xp, ok := x.ty.(*ir.PointerType); ok && (e.Op == "+" || e.Op == "-") {
		y, err := fl.lowerIntOperand(e.Y, e.Line)
		if err != nil {
			return val{}, err
		}
		off := y.reg
		if e.Op == "-" {
			n := fl.b.Temp()
			fl.b.Emit(&ir.BinOp{Dest: n, Op: ir.OpSub, A: fl.b.Const(0), B: y.reg})
			off = n
		}
		t := fl.b.Temp()
		fl.b.Emit(&ir.PtrAdd{Dest: t, Base: x.reg, Off: off})
		return val{reg: t, ty: xp}, nil
	}
	y, err := fl.lowerExpr(e.Y)
	if err != nil {
		return val{}, err
	}
	if e.Op == "==" || e.Op == "!=" {
		// Equality works on integers, pointers, and null.
		t := fl.b.Temp()
		fl.b.Emit(&ir.BinOp{Dest: t, Op: ir.BinOpKind(e.Op), A: x.reg, B: y.reg})
		return val{reg: t, ty: ir.Int}, nil
	}
	for _, v := range []val{x, y} {
		if v.ty != nil {
			if _, ok := v.ty.(ir.IntType); !ok {
				return val{}, errf(e.Line, "operator %q requires integers, got %s", e.Op, typeName(v.ty))
			}
		}
	}
	t := fl.b.Temp()
	fl.b.Emit(&ir.BinOp{Dest: t, Op: ir.BinOpKind(e.Op), A: x.reg, B: y.reg})
	return val{reg: t, ty: ir.Int}, nil
}

// lowerShortCircuit lowers && and || with proper short-circuit evaluation
// via a stack slot (MiniC has no SSA phis).
func (fl *fnLowerer) lowerShortCircuit(e *binaryExpr) (val, error) {
	slot := fl.b.Alloca("$sc", ir.Int)
	lhs, err := fl.lowerCond(e.X)
	if err != nil {
		return val{}, err
	}
	condBlk := fl.b.Cur()
	rhsBlk := fl.b.NewBlock("sc.rhs")
	rhs, err := fl.lowerCond(e.Y)
	if err != nil {
		return val{}, err
	}
	fl.b.Store(slot, rhs)
	rhsEnd := fl.b.Cur()
	shortBlk := fl.b.NewBlock("sc.short")
	var short int64
	if e.Op == "||" {
		short = 1
	}
	fl.b.Store(slot, fl.b.Const(short))
	join := fl.b.NewBlock("sc.join")
	fl.b.SetBlock(condBlk)
	if e.Op == "&&" {
		fl.b.CondJump(lhs, rhsBlk.Name, shortBlk.Name)
	} else {
		fl.b.CondJump(lhs, shortBlk.Name, rhsBlk.Name)
	}
	fl.b.SetBlock(rhsEnd)
	fl.b.Jump(join.Name)
	fl.b.SetBlock(shortBlk)
	fl.b.Jump(join.Name)
	fl.b.SetBlock(join)
	return val{reg: fl.b.Load(slot), ty: ir.Int}, nil
}

// lowerAddr lowers an expression in lvalue position, yielding the address.
func (fl *fnLowerer) lowerAddr(e expr) (loc, error) {
	switch e := e.(type) {
	case *identExpr:
		if v, ok := fl.lookup(e.Name); ok {
			if v.addr == "" {
				return loc{}, errf(e.Line, "internal: parameter %q has no storage slot", e.Name)
			}
			return loc{addr: v.addr, ty: v.ty}, nil
		}
		if gt, ok := fl.globals[e.Name]; ok {
			t := fl.b.Temp()
			fl.b.Emit(&ir.AddrGlobal{Dest: t, Global: e.Name})
			return loc{addr: t, ty: gt}, nil
		}
		return loc{}, errf(e.Line, "cannot take address of %q", e.Name)
	case *unaryExpr:
		if e.Op != "*" {
			return loc{}, errf(e.Line, "expression is not addressable")
		}
		v, err := fl.lowerExpr(e.X)
		if err != nil {
			return loc{}, err
		}
		pt, ok := v.ty.(*ir.PointerType)
		if !ok {
			return loc{}, errf(e.Line, "cannot dereference non-pointer %s", typeName(v.ty))
		}
		return loc{addr: v.reg, ty: pt.Elem}, nil
	case *fieldExpr:
		var base loc
		if e.Arrow {
			v, err := fl.lowerExpr(e.X)
			if err != nil {
				return loc{}, err
			}
			pt, ok := v.ty.(*ir.PointerType)
			if !ok {
				return loc{}, errf(e.Line, "-> on non-pointer %s", typeName(v.ty))
			}
			base = loc{addr: v.reg, ty: pt.Elem}
		} else {
			b, err := fl.lowerAddr(e.X)
			if err != nil {
				return loc{}, err
			}
			base = b
		}
		st, ok := base.ty.(*ir.StructType)
		if !ok {
			return loc{}, errf(e.Line, "field access on non-struct %s", typeName(base.ty))
		}
		k := st.FieldIndex(e.Name)
		if k < 0 {
			return loc{}, errf(e.Line, "struct %s has no field %q", st.Name, e.Name)
		}
		return loc{addr: fl.b.FieldAddr(base.addr, st, k), ty: st.Fields[k].Type}, nil
	case *indexExpr:
		return fl.lowerIndexAddr(e)
	}
	return loc{}, errf(e.exprLine(), "expression is not addressable")
}

func (fl *fnLowerer) lowerIndexAddr(e *indexExpr) (loc, error) {
	// Indexing works on arrays (by lvalue) and on pointers (by rvalue).
	var elem ir.Type
	var baseReg string
	if l, err := fl.tryLowerArrayAddr(e.X); err != nil {
		return loc{}, err
	} else if l != nil {
		elem = l.ty.(*ir.ArrayType).Elem
		baseReg = l.addr
	} else {
		v, err := fl.lowerExpr(e.X)
		if err != nil {
			return loc{}, err
		}
		pt, ok := v.ty.(*ir.PointerType)
		if !ok {
			return loc{}, errf(e.Line, "cannot index non-array, non-pointer %s", typeName(v.ty))
		}
		elem = pt.Elem
		baseReg = v.reg
	}
	idx, err := fl.lowerIntOperand(e.Index, e.Line)
	if err != nil {
		return loc{}, err
	}
	t := fl.b.Temp()
	fl.b.Emit(&ir.IndexAddr{Dest: t, Base: baseReg, Index: idx.reg, Elem: elem})
	return loc{addr: t, ty: elem}, nil
}

// tryLowerArrayAddr returns the lvalue of e if e denotes array-typed storage,
// nil otherwise (without emitting code for the miss... the probe is
// syntactic: identifiers and field accesses only).
func (fl *fnLowerer) tryLowerArrayAddr(e expr) (*loc, error) {
	switch x := e.(type) {
	case *identExpr:
		if v, ok := fl.lookup(x.Name); ok {
			if ir.IsArray(v.ty) {
				l, err := fl.lowerAddr(e)
				if err != nil {
					return nil, err
				}
				return &l, nil
			}
			return nil, nil
		}
		if gt, ok := fl.globals[x.Name]; ok && ir.IsArray(gt) {
			l, err := fl.lowerAddr(e)
			if err != nil {
				return nil, err
			}
			return &l, nil
		}
	case *fieldExpr:
		ty, err := fl.staticFieldType(x)
		if err != nil || ty == nil || !ir.IsArray(ty) {
			return nil, nil
		}
		l, err := fl.lowerAddr(e)
		if err != nil {
			return nil, err
		}
		return &l, nil
	}
	return nil, nil
}

// staticFieldType resolves the type of a field expression without emitting
// IR, or nil if it cannot be determined syntactically.
func (fl *fnLowerer) staticFieldType(e *fieldExpr) (ir.Type, error) {
	bt := fl.staticExprType(e.X)
	if bt == nil {
		return nil, nil
	}
	if e.Arrow {
		pt, ok := bt.(*ir.PointerType)
		if !ok {
			return nil, nil
		}
		bt = pt.Elem
	}
	st, ok := bt.(*ir.StructType)
	if !ok {
		return nil, nil
	}
	k := st.FieldIndex(e.Name)
	if k < 0 {
		return nil, nil
	}
	return st.Fields[k].Type, nil
}

// staticExprType gives a best-effort static type for simple expressions.
func (fl *fnLowerer) staticExprType(e expr) ir.Type {
	switch e := e.(type) {
	case *identExpr:
		if v, ok := fl.lookup(e.Name); ok {
			return v.ty
		}
		if gt, ok := fl.globals[e.Name]; ok {
			return gt
		}
	case *fieldExpr:
		t, _ := fl.staticFieldType(e)
		return t
	}
	return nil
}

func (fl *fnLowerer) lowerCall(e *callExpr) (val, error) {
	// Direct call: callee is an identifier naming a function not shadowed by
	// a local variable.
	if id, ok := e.Callee.(*identExpr); ok && !fl.isLocal(id.Name) {
		if fd, isFunc := fl.funcs[id.Name]; isFunc {
			return fl.lowerDirectCall(e, fd)
		}
	}
	// Indirect call through a fn-typed expression.
	cv, err := fl.lowerExpr(e.Callee)
	if err != nil {
		return val{}, err
	}
	if cv.ty != nil {
		if _, ok := cv.ty.(ir.FuncType); !ok {
			return val{}, errf(e.Line, "called expression has type %s, not fn", typeName(cv.ty))
		}
	}
	args, err := fl.lowerArgs(e.Args)
	if err != nil {
		return val{}, err
	}
	t := fl.b.Temp()
	fl.b.Emit(&ir.ICall{Dest: t, FuncPtr: cv.reg, Args: args})
	// Indirect calls are signature-erased, so their results are untyped
	// (assignable into any storage), like the null literal.
	return val{reg: t, ty: nil}, nil
}

func (fl *fnLowerer) lowerDirectCall(e *callExpr, fd *funcDecl) (val, error) {
	if len(e.Args) != len(fd.Params) {
		return val{}, errf(e.Line, "call to %s with %d args, want %d", fd.Name, len(e.Args), len(fd.Params))
	}
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		av, err := fl.lowerExpr(a)
		if err != nil {
			return val{}, err
		}
		pt, err := fl.resolveType(fd.Params[i].Type, -1)
		if err != nil {
			return val{}, err
		}
		if err := fl.checkAssignable(pt, av, a.exprLine()); err != nil {
			return val{}, err
		}
		args[i] = av.reg
	}
	ret, err := fl.resolveType(fd.Ret, -1)
	if err != nil {
		return val{}, err
	}
	dest := ""
	if ret != nil {
		dest = fl.b.Temp()
	}
	fl.b.Emit(&ir.Call{Dest: dest, Callee: fd.Name, Args: args})
	return val{reg: dest, ty: ret}, nil
}

func (fl *fnLowerer) lowerArgs(args []expr) ([]string, error) {
	out := make([]string, len(args))
	for i, a := range args {
		av, err := fl.lowerExpr(a)
		if err != nil {
			return nil, err
		}
		out[i] = av.reg
	}
	return out, nil
}

func typeName(t ir.Type) string {
	if t == nil {
		return "null"
	}
	return t.String()
}
