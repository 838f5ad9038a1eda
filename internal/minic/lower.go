package minic

import (
	"repro/internal/ir"
)

// Compile parses and lowers MiniC source to a finalized KIR module.
func Compile(name, src string) (*ir.Module, error) {
	p := newParser(src)
	prog, err := p.parseProgram()
	if lexErr := p.lx.finish(); lexErr != nil {
		return nil, lexErr
	}
	if err != nil {
		return nil, err
	}
	lw := &lowerer{
		mod:     ir.NewModule(name),
		funcs:   map[string]*funcDecl{},
		globals: map[string]ir.Type{},
	}
	if err := lw.run(prog); err != nil {
		return nil, err
	}
	if err := lw.mod.Finalize(); err != nil {
		return nil, err
	}
	// §6: propagate sizeof type metadata to dynamic allocation sites.
	ir.PropagateHeapTypes(lw.mod)
	return lw.mod, nil
}

// MustCompile is Compile that panics on error; for fixtures and workloads.
func MustCompile(name, src string) *ir.Module {
	m, err := Compile(name, src)
	if err != nil {
		panic(err)
	}
	return m
}

type lowerer struct {
	mod     *ir.Module
	funcs   map[string]*funcDecl
	globals map[string]ir.Type
}

// varInfo describes a name visible in the current scope.
type varInfo struct {
	addr string  // register holding the variable's address ("" for direct params)
	reg  string  // register holding the value directly (unallocated params)
	ty   ir.Type // declared type
}

// fnLowerer lowers one function body.
type fnLowerer struct {
	*lowerer
	b      *ir.FuncBuilder
	fd     *funcDecl
	ret    ir.Type
	scopes []map[string]*varInfo
	loops  []loopCtx // enclosing loops, innermost last
}

// loopCtx names the jump targets break and continue lower to.
type loopCtx struct {
	breakBlk    string
	continueBlk string
}

func (lw *lowerer) run(prog *program) error {
	// Pass 1: struct shells (to allow pointer-typed forward references).
	for _, sd := range prog.Structs {
		if _, dup := lw.mod.Structs[sd.Name]; dup {
			return errf(sd.Line, "duplicate struct %q", sd.Name)
		}
		lw.mod.Structs[sd.Name] = &ir.StructType{Name: sd.Name}
	}
	// Pass 2: struct fields.
	for _, sd := range prog.Structs {
		st := lw.mod.Structs[sd.Name]
		for _, f := range sd.Fields {
			ft, err := lw.resolveType(f.Type, f.ArrayLen)
			if err != nil {
				return err
			}
			if ft == nil {
				return errf(f.Line, "field %q has void type", f.Name)
			}
			if inner, ok := ft.(*ir.StructType); ok && inner == st {
				return errf(f.Line, "struct %s directly contains itself", sd.Name)
			}
			if st.FieldIndex(f.Name) >= 0 {
				return errf(f.Line, "duplicate field %q in struct %s", f.Name, sd.Name)
			}
			st.Fields = append(st.Fields, ir.Field{Name: f.Name, Type: ft})
		}
	}
	// Pass 3: globals.
	for _, g := range prog.Globals {
		gt, err := lw.resolveType(g.Type, g.ArrayLen)
		if err != nil {
			return err
		}
		if gt == nil {
			return errf(g.Line, "global %q has void type", g.Name)
		}
		if _, dup := lw.globals[g.Name]; dup {
			return errf(g.Line, "duplicate global %q", g.Name)
		}
		lw.globals[g.Name] = gt
		lw.mod.AddGlobal(g.Name, gt)
	}
	// Pass 4: function signatures.
	for _, fd := range prog.Funcs {
		if _, dup := lw.funcs[fd.Name]; dup {
			return errf(fd.Line, "duplicate function %q", fd.Name)
		}
		lw.funcs[fd.Name] = fd
	}
	// Pass 5: function bodies.
	for _, fd := range prog.Funcs {
		if err := lw.lowerFunc(fd); err != nil {
			return err
		}
	}
	return nil
}

// resolveType maps a syntactic type spec (plus optional array length) to an
// ir.Type. Returns nil for plain void.
func (lw *lowerer) resolveType(ts typeSpec, arrayLen int) (ir.Type, error) {
	var base ir.Type
	switch ts.Base {
	case "int", "char":
		base = ir.Int
	case "void":
		if ts.Ptr == 0 {
			if arrayLen >= 0 {
				return nil, errf(ts.Line, "array of void")
			}
			return nil, nil
		}
		base = ir.Int // void* is modeled as int*
	case "fn":
		base = ir.Fn
	default:
		st, ok := lw.mod.Structs[ts.Base]
		if !ok {
			return nil, errf(ts.Line, "unknown type %q", ts.Base)
		}
		base = st
	}
	t := base
	for i := 0; i < ts.Ptr; i++ {
		t = ir.PointerTo(t)
	}
	if arrayLen >= 0 {
		t = &ir.ArrayType{Elem: t, Len: arrayLen}
	}
	return t, nil
}

func (lw *lowerer) lowerFunc(fd *funcDecl) error {
	ret, err := lw.resolveType(fd.Ret, -1)
	if err != nil {
		return err
	}
	params := make([]string, len(fd.Params))
	ptypes := make([]ir.Type, len(fd.Params))
	for i, p := range fd.Params {
		pt, err := lw.resolveType(p.Type, -1)
		if err != nil {
			return err
		}
		if pt == nil || ir.IsStruct(pt) || ir.IsArray(pt) {
			return errf(p.Line, "parameter %q must have scalar or pointer type", p.Name)
		}
		params[i] = "%" + p.Name
		ptypes[i] = pt
	}
	fl := &fnLowerer{
		lowerer: lw,
		b:       ir.NewFuncBuilder(fd.Name, params, ptypes, ret),
		fd:      fd,
		ret:     ret,
	}
	fl.pushScope()
	mutated := paramsNeedingSlots(fd)
	for i, p := range fd.Params {
		info := &varInfo{ty: ptypes[i]}
		if mutated[p.Name] {
			info.addr = fl.b.Alloca(p.Name, ptypes[i])
			fl.b.Store(info.addr, params[i])
		} else {
			info.reg = params[i]
		}
		if fl.scopes[0][p.Name] != nil {
			return errf(p.Line, "duplicate parameter %q", p.Name)
		}
		fl.scopes[0][p.Name] = info
	}
	if err := fl.lowerStmts(fd.Body); err != nil {
		return err
	}
	if !fl.b.Terminated() {
		fl.emitDefaultReturn()
	}
	lw.mod.AddFunc(fl.b.F)
	return nil
}

func (fl *fnLowerer) emitDefaultReturn() {
	if fl.ret == nil {
		fl.b.Ret("")
		return
	}
	fl.b.Ret(fl.b.Const(0))
}

func (fl *fnLowerer) pushScope() { fl.scopes = append(fl.scopes, map[string]*varInfo{}) }
func (fl *fnLowerer) popScope()  { fl.scopes = fl.scopes[:len(fl.scopes)-1] }

func (fl *fnLowerer) lookup(name string) *varInfo {
	for i := len(fl.scopes) - 1; i >= 0; i-- {
		if v := fl.scopes[i][name]; v != nil {
			return v
		}
	}
	return nil
}

// paramsNeedingSlots returns the set of parameter names that are assigned or
// have their address taken anywhere in the body; those are backed by allocas.
func paramsNeedingSlots(fd *funcDecl) map[string]bool {
	names := map[string]bool{}
	for _, p := range fd.Params {
		names[p.Name] = false
	}
	var walkStmts func(ss []stmt)
	var walkExpr func(e expr)
	markIdent := func(e expr) {
		if id, ok := e.(*identExpr); ok {
			if _, isParam := names[id.Name]; isParam {
				names[id.Name] = true
			}
		}
	}
	walkExpr = func(e expr) {
		switch e := e.(type) {
		case *unaryExpr:
			if e.Op == "&" {
				markIdent(e.X)
			}
			walkExpr(e.X)
		case *binaryExpr:
			walkExpr(e.X)
			walkExpr(e.Y)
		case *fieldExpr:
			walkExpr(e.X)
		case *indexExpr:
			walkExpr(e.X)
			walkExpr(e.Index)
		case *callExpr:
			walkExpr(e.Callee)
			for _, a := range e.Args {
				walkExpr(a)
			}
		case *outputExpr:
			walkExpr(e.X)
		case *mallocExpr:
			if e.Size != nil {
				walkExpr(e.Size)
			}
		}
	}
	walkStmts = func(ss []stmt) {
		for _, s := range ss {
			switch s := s.(type) {
			case *declStmt:
				if s.Decl.Init != nil {
					walkExpr(s.Decl.Init)
				}
			case *assignStmt:
				markIdent(s.LHS)
				walkExpr(s.LHS)
				walkExpr(s.RHS)
			case *exprStmt:
				walkExpr(s.E)
			case *ifStmt:
				walkExpr(s.Cond)
				walkStmts(s.Then)
				walkStmts(s.Else)
			case *whileStmt:
				walkExpr(s.Cond)
				walkStmts(s.Body)
			case *forStmt:
				if s.Init != nil {
					walkStmts([]stmt{s.Init})
				}
				if s.Cond != nil {
					walkExpr(s.Cond)
				}
				if s.Post != nil {
					walkStmts([]stmt{s.Post})
				}
				walkStmts(s.Body)
			case *returnStmt:
				if s.Value != nil {
					walkExpr(s.Value)
				}
			}
		}
	}
	walkStmts(fd.Body)
	out := map[string]bool{}
	for n, m := range names {
		if m {
			out[n] = true
		}
	}
	return out
}

// val is a lowered rvalue: a register plus its MiniC static type. A nil type
// marks the null literal, assignable to any pointer.
type val struct {
	reg string
	ty  ir.Type
}

// loc is a lowered lvalue: the register holding the address plus the type of
// the addressed storage.
type loc struct {
	addr string
	ty   ir.Type
}

func (fl *fnLowerer) lowerStmts(ss []stmt) error {
	fl.pushScope()
	defer fl.popScope()
	for _, s := range ss {
		if fl.b.Terminated() {
			// Unreachable code after return: keep lowering into a dead block
			// so diagnostics still fire, but control never reaches it.
			fl.b.NewBlock("dead")
		}
		if err := fl.lowerStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (fl *fnLowerer) lowerStmt(s stmt) error {
	fl.b.SetLine(s.stmtLine())
	switch s := s.(type) {
	case *declStmt:
		return fl.lowerDecl(s.Decl)
	case *assignStmt:
		return fl.lowerAssign(s)
	case *exprStmt:
		_, err := fl.lowerExprAllowVoid(s.E)
		return err
	case *returnStmt:
		return fl.lowerReturn(s)
	case *ifStmt:
		return fl.lowerIf(s)
	case *whileStmt:
		return fl.lowerWhile(s)
	case *forStmt:
		return fl.lowerFor(s)
	case *breakStmt:
		if len(fl.loops) == 0 {
			return errf(s.Line, "break outside a loop")
		}
		fl.b.Jump(fl.loops[len(fl.loops)-1].breakBlk)
		return nil
	case *continueStmt:
		if len(fl.loops) == 0 {
			return errf(s.Line, "continue outside a loop")
		}
		fl.b.Jump(fl.loops[len(fl.loops)-1].continueBlk)
		return nil
	}
	return errf(s.stmtLine(), "internal: unknown statement %T", s)
}

func (fl *fnLowerer) lowerDecl(d *varDecl) error {
	t, err := fl.resolveType(d.Type, d.ArrayLen)
	if err != nil {
		return err
	}
	if t == nil {
		return errf(d.Line, "variable %q has void type", d.Name)
	}
	if fl.scopes[len(fl.scopes)-1][d.Name] != nil {
		return errf(d.Line, "duplicate variable %q in scope", d.Name)
	}
	addr := fl.b.Alloca(d.Name, t)
	fl.scopes[len(fl.scopes)-1][d.Name] = &varInfo{addr: addr, ty: t}
	if d.Init != nil {
		v, err := fl.lowerExpr(d.Init)
		if err != nil {
			return err
		}
		if err := fl.checkAssignable(t, v, d.Line); err != nil {
			return err
		}
		fl.b.Store(addr, v.reg)
	}
	return nil
}

func (fl *fnLowerer) lowerAssign(s *assignStmt) error {
	// Direct (unallocated) params cannot appear as assignment targets: the
	// pre-scan allocates slots for any assigned param, so lowerAddr succeeds.
	l, err := fl.lowerAddr(s.LHS)
	if err != nil {
		return err
	}
	if ir.IsArray(l.ty) {
		return errf(s.Line, "cannot assign to array")
	}
	if ir.IsStruct(l.ty) {
		return fl.lowerStructCopy(s, l)
	}
	v, err := fl.lowerExpr(s.RHS)
	if err != nil {
		return err
	}
	if err := fl.checkAssignable(l.ty, v, s.Line); err != nil {
		return err
	}
	fl.b.Store(l.addr, v.reg)
	return nil
}

// lowerStructCopy lowers "*dst = *src" style whole-struct assignment as a
// field-by-field copy, matching how Clang lowers small struct assignments.
func (fl *fnLowerer) lowerStructCopy(s *assignStmt, dst loc) error {
	src, err := fl.lowerAddr(s.RHS)
	if err != nil {
		return err
	}
	st, ok := dst.ty.(*ir.StructType)
	if !ok || !ir.TypeEqual(dst.ty, src.ty) {
		return errf(s.Line, "struct assignment requires matching struct types")
	}
	for k, f := range st.Fields {
		if ir.IsArray(f.Type) || ir.IsStruct(f.Type) {
			continue // nested aggregates are not copied by MiniC assignment
		}
		df := fl.b.FieldAddr(dst.addr, st, k)
		sf := fl.b.FieldAddr(src.addr, st, k)
		fl.b.Store(df, fl.b.Load(sf))
	}
	return nil
}

func (fl *fnLowerer) lowerReturn(s *returnStmt) error {
	if s.Value == nil {
		if fl.ret != nil {
			return errf(s.Line, "missing return value in %s", fl.fd.Name)
		}
		fl.b.Ret("")
		return nil
	}
	if fl.ret == nil {
		return errf(s.Line, "void function %s returns a value", fl.fd.Name)
	}
	v, err := fl.lowerExpr(s.Value)
	if err != nil {
		return err
	}
	if err := fl.checkAssignable(fl.ret, v, s.Line); err != nil {
		return err
	}
	fl.b.Ret(v.reg)
	return nil
}

func (fl *fnLowerer) lowerIf(s *ifStmt) error {
	cond, err := fl.lowerCond(s.Cond)
	if err != nil {
		return err
	}
	condBlk := fl.b.Cur()
	thenBlk := fl.b.NewBlock("if.then")
	if err := fl.lowerStmts(s.Then); err != nil {
		return err
	}
	thenEnd := fl.b.Cur()
	var elseBlk, elseEnd *ir.Block
	if len(s.Else) > 0 {
		elseBlk = fl.b.NewBlock("if.else")
		if err := fl.lowerStmts(s.Else); err != nil {
			return err
		}
		elseEnd = fl.b.Cur()
	}
	join := fl.b.NewBlock("if.join")
	fl.b.SetBlock(condBlk)
	if elseBlk != nil {
		fl.b.CondJump(cond, thenBlk.Name, elseBlk.Name)
	} else {
		fl.b.CondJump(cond, thenBlk.Name, join.Name)
	}
	if thenEnd.Terminator() == nil {
		fl.b.SetBlock(thenEnd)
		fl.b.Jump(join.Name)
	}
	if elseEnd != nil && elseEnd.Terminator() == nil {
		fl.b.SetBlock(elseEnd)
		fl.b.Jump(join.Name)
	}
	fl.b.SetBlock(join)
	return nil
}

func (fl *fnLowerer) lowerWhile(s *whileStmt) error {
	head := fl.b.NewBlockLinked("while.head")
	cond, err := fl.lowerCond(s.Cond)
	if err != nil {
		return err
	}
	headEnd := fl.b.Cur()
	// Create the exit block up front so break can target it; it is moved to
	// the insertion point at the end.
	body := fl.b.NewBlock("while.body")
	exitName := body.Name + ".exit"
	fl.loops = append(fl.loops, loopCtx{breakBlk: exitName, continueBlk: head.Name})
	err = fl.lowerStmts(s.Body)
	fl.loops = fl.loops[:len(fl.loops)-1]
	if err != nil {
		return err
	}
	if !fl.b.Terminated() {
		fl.b.Jump(head.Name)
	}
	exit := fl.b.NewBlock(exitName)
	if exit.Name != exitName {
		return errf(s.Line, "internal: loop exit block name clash")
	}
	fl.b.SetBlock(headEnd)
	fl.b.CondJump(cond, body.Name, exit.Name)
	fl.b.SetBlock(exit)
	return nil
}

// lowerFor lowers for(init; cond; post) with break jumping to the exit and
// continue jumping to the post block.
func (fl *fnLowerer) lowerFor(s *forStmt) error {
	fl.pushScope() // init declarations scope to the loop
	defer fl.popScope()
	if s.Init != nil {
		if err := fl.lowerStmt(s.Init); err != nil {
			return err
		}
	}
	head := fl.b.NewBlockLinked("for.head")
	cond := ""
	if s.Cond != nil {
		c, err := fl.lowerCond(s.Cond)
		if err != nil {
			return err
		}
		cond = c
	}
	headEnd := fl.b.Cur()
	body := fl.b.NewBlock("for.body")
	postName := body.Name + ".post"
	exitName := body.Name + ".exit"
	fl.loops = append(fl.loops, loopCtx{breakBlk: exitName, continueBlk: postName})
	err := fl.lowerStmts(s.Body)
	fl.loops = fl.loops[:len(fl.loops)-1]
	if err != nil {
		return err
	}
	if !fl.b.Terminated() {
		fl.b.Jump(postName)
	}
	post := fl.b.NewBlock(postName)
	if post.Name != postName {
		return errf(s.Line, "internal: loop post block name clash")
	}
	if s.Post != nil {
		if err := fl.lowerStmt(s.Post); err != nil {
			return err
		}
	}
	if !fl.b.Terminated() {
		fl.b.Jump(head.Name)
	}
	exit := fl.b.NewBlock(exitName)
	if exit.Name != exitName {
		return errf(s.Line, "internal: loop exit block name clash")
	}
	fl.b.SetBlock(headEnd)
	if cond == "" {
		fl.b.Jump(body.Name)
	} else {
		fl.b.CondJump(cond, body.Name, exit.Name)
	}
	fl.b.SetBlock(exit)
	return nil
}

// lowerCond lowers a boolean context expression to an int register
// (pointers test non-null).
func (fl *fnLowerer) lowerCond(e expr) (string, error) {
	v, err := fl.lowerExpr(e)
	if err != nil {
		return "", err
	}
	if v.ty == nil || ir.IsPointerLike(v.ty) {
		t := fl.b.Temp()
		fl.b.Emit(&ir.BinOp{Dest: t, Op: ir.OpNe, A: v.reg, B: fl.b.Const(0)})
		return t, nil
	}
	return v.reg, nil
}

// checkAssignable verifies v can be stored into storage of type dst.
// Pointer compatibility is C-flavored but lenient: generic pointers
// (int*/char*/void*) interconvert with any pointer type, matching the casts
// real C code uses around memcpy-style helpers.
func (fl *fnLowerer) checkAssignable(dst ir.Type, v val, line int) error {
	src := v.ty
	if src == nil { // null literal (or integer 0 constant)
		return nil
	}
	if ir.TypeEqual(dst, src) {
		return nil
	}
	_, dstInt := dst.(ir.IntType)
	_, srcInt := src.(ir.IntType)
	if dstInt && srcInt {
		return nil
	}
	// Storing a pointer or function pointer through a generic char*/int*
	// location models the casts real C code uses; permitted, like C.
	if dstInt && ir.IsPointerLike(src) {
		return nil
	}
	dp, dstPtr := dst.(*ir.PointerType)
	sp, srcPtr := src.(*ir.PointerType)
	if dstPtr && srcPtr {
		if isGenericPtr(dp) || isGenericPtr(sp) {
			return nil
		}
		return errf(line, "cannot assign %s to %s", src, dst)
	}
	return errf(line, "cannot assign %s to %s", src, dst)
}

// isGenericPtr reports whether p is int*/char*/void* (all model as int*).
func isGenericPtr(p *ir.PointerType) bool {
	_, ok := p.Elem.(ir.IntType)
	return ok
}
