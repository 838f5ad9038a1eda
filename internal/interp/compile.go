package interp

import (
	"fmt"
	"strconv"

	"repro/internal/invariant"
	"repro/internal/ir"
)

// Program is a module compiled for execution under one instrumentation:
// registers become slots in a frame, block names become indexes, field
// offsets and the layouts of allocas, typed mallocs and globals are resolved
// once, alloca labels are rendered, and instrumentation decisions are folded
// into per-instruction flags. This keeps the hot execution loop free of map
// lookups, string building and string comparisons. A Program is immutable
// once Compile returns, so any number of machines may run it at once, on any
// goroutines; each machine owns only its frames, memory and trace.
type Program struct {
	funcs   []*cfunc // module order; a function value's Off indexes it
	byName  map[string]*cfunc
	globals []objInfo // module order, so a global's IR number indexes it
	// branchSites maps a branch index to its CondJump site. Branch i owns
	// edge counters 2i (not taken) and 2i+1 (taken) of a trace.
	branchSites []int
	maxSite     int  // largest instruction ID; sizes a trace's monitor set
	checkICalls bool // CFI-check every indirect callsite
}

type copcode uint8

const (
	opConst copcode = iota
	opBinOp
	opInput
	opOutput
	opAlloca
	opMalloc
	opAddrGlobal
	opAddrFunc
	opCopy
	opLoad
	opStore
	opFieldAddr
	opIndexAddr
	opPtrAdd
	opCall
	opICall
	opRet
	opJump
	opCondJump
)

// csample is a compiled Ctx monitor sample: register index plus deref flag.
type csample struct {
	reg   int
	deref bool
}

// cinstr is one compiled instruction. Field use varies by opcode:
//
//	dst       — destination register index (the frame's sink when unused)
//	a, b      — operand register indexes (-1 when unused)
//	val       — Const literal
//	blkA,blkB — branch targets (block indexes)
//	off       — FieldAddr runtime offset / IndexAddr element size /
//	            AddrGlobal global IR number / AddrFunc function index (-1 for a
//	            function outside the module) / CondJump branch index
//	site      — original instruction ID
type cinstr struct {
	op   copcode
	dst  int
	a, b int
	val  int64
	blkA int
	blkB int
	off  int
	site int

	binop   ir.BinOpKind
	obj     *objInfo  // Alloca/Malloc: what the allocated objects are
	fn      *RObj     // AddrFunc target's function object
	callee  *cfunc    // resolved direct callee
	args    []int     // Call/ICall argument registers
	hooked  bool      // site is instrumented (PtrAdd/FieldAddr monitors)
	samples []csample // Ctx check samples (Store/Ret sites)
	ctxArgs []int     // Ctx callsite argument positions (Call sites)
}

// cblock is a compiled basic block.
type cblock struct {
	instrs []cinstr
}

// cfunc is a compiled function.
type cfunc struct {
	name     string
	idx      int   // position in Program.funcs
	obj      *RObj // the object every pointer to this function refers to
	nRegs    int   // frame size: the registers, then the sink
	params   []int // register indexes of the parameters
	blocks   []cblock
	regNames []string // inverse register map (dynamic points-to tracking)
}

// compiler translates one module under one instrumentation.
type compiler struct {
	mod     *ir.Module
	layouts *ir.Layouts
	instr   *Instrumentation
	prog    *Program
}

// Compile compiles m for execution under instr (nil: uninstrumented).
func Compile(m *ir.Module, instr *Instrumentation) *Program {
	if instr == nil {
		instr = &Instrumentation{}
	}
	p := &Program{byName: make(map[string]*cfunc, len(m.Funcs)), checkICalls: instr.CheckICalls}
	c := &compiler{mod: m, layouts: ir.NewLayouts(), instr: instr, prog: p}
	// Create shells first so direct calls can resolve callee pointers.
	for i, f := range m.Funcs {
		cf := &cfunc{name: f.Name, idx: i, obj: funcObj(f.Obj, f.Name)}
		p.funcs = append(p.funcs, cf)
		p.byName[f.Name] = cf
	}
	for _, g := range m.Globals {
		p.globals = append(p.globals, objInfo{
			ID:     g.Obj,
			Type:   g.Type,
			layout: c.layouts.Of(g.Type),
			key:    "@" + g.Name,
		})
	}
	for i, f := range m.Funcs {
		c.compileFunc(p.funcs[i], f)
	}
	return p
}

func (c *compiler) compileFunc(cf *cfunc, f *ir.Function) {
	regIdx := map[string]int{}
	reg := func(name string) int {
		if name == "" {
			return -1
		}
		if i, ok := regIdx[name]; ok {
			return i
		}
		i := len(regIdx)
		regIdx[name] = i
		return i
	}
	for _, p := range f.Params {
		cf.params = append(cf.params, reg(p))
	}
	blkIdx := map[string]int{}
	for i, b := range f.Blocks {
		blkIdx[b.Name] = i
	}
	cf.blocks = make([]cblock, len(f.Blocks))
	for bi, b := range f.Blocks {
		instrs := make([]cinstr, 0, len(b.Instrs))
		for _, in := range b.Instrs {
			instrs = append(instrs, c.compileInstr(cf, in, reg, blkIdx))
		}
		cf.blocks[bi] = cblock{instrs: instrs}
	}
	// The register after the last is the frame's sink: an instruction
	// without a destination register writes there, so none needs a check.
	sink := len(regIdx)
	for bi := range cf.blocks {
		for ii := range cf.blocks[bi].instrs {
			if in := &cf.blocks[bi].instrs[ii]; in.dst < 0 {
				in.dst = sink
			}
		}
	}
	cf.nRegs = sink + 1
	cf.regNames = make([]string, len(regIdx))
	for name, i := range regIdx {
		cf.regNames[i] = name
	}
}

func (c *compiler) compileInstr(cf *cfunc, in ir.Instr, reg func(string) int, blkIdx map[string]int) cinstr {
	site := ir.InstrID(in)
	c.prog.maxSite = max(c.prog.maxSite, site)
	ci := cinstr{site: site, dst: -1, a: -1, b: -1}
	switch in := in.(type) {
	case *ir.Const:
		ci.op = opConst
		ci.dst = reg(in.Dest)
		ci.val = in.Val
	case *ir.BinOp:
		ci.op = opBinOp
		ci.dst = reg(in.Dest)
		ci.a = reg(in.A)
		ci.b = reg(in.B)
		ci.binop = in.Op
	case *ir.Input:
		ci.op = opInput
		ci.dst = reg(in.Dest)
	case *ir.Output:
		ci.op = opOutput
		ci.a = reg(in.Src)
	case *ir.Alloca:
		ci.op = opAlloca
		ci.dst = reg(in.Dest)
		ci.obj = &objInfo{
			ID:     in.Obj,
			Type:   in.Ty,
			layout: c.layouts.Of(in.Ty),
			key:    "stack#" + strconv.Itoa(site),
			name:   cf.name + "/" + in.Var,
		}
	case *ir.Malloc:
		ci.op = opMalloc
		ci.dst = reg(in.Dest)
		ci.a = reg(in.Size)
		ci.obj = &objInfo{ID: in.Obj, Type: in.SizeOf, key: "heap#" + strconv.Itoa(site)}
		if in.SizeOf != nil {
			ci.obj.layout = c.layouts.Of(in.SizeOf)
		}
	case *ir.AddrGlobal:
		ci.op = opAddrGlobal
		ci.dst = reg(in.Dest)
		g := c.mod.Global(in.Global)
		if g == nil {
			panic(fmt.Sprintf("interp: address of unknown global %q", in.Global))
		}
		ci.off = g.Obj
	case *ir.AddrFunc:
		ci.op = opAddrFunc
		ci.dst = reg(in.Dest)
		if tgt := c.prog.byName[in.Func]; tgt != nil {
			ci.fn, ci.off = tgt.obj, tgt.idx
		} else {
			// Calling it faults as an unknown function, as it must.
			ci.fn, ci.off = funcObj(-1, in.Func), -1
		}
	case *ir.Copy:
		ci.op = opCopy
		ci.dst = reg(in.Dest)
		ci.a = reg(in.Src)
	case *ir.Load:
		ci.op = opLoad
		ci.dst = reg(in.Dest)
		ci.a = reg(in.Addr)
	case *ir.Store:
		ci.op = opStore
		ci.a = reg(in.Addr)
		ci.b = reg(in.Src)
		if samples, ok := c.instr.CtxChecks[site]; ok {
			ci.samples = c.compileSamples(samples, reg)
		}
	case *ir.FieldAddr:
		ci.op = opFieldAddr
		ci.dst = reg(in.Dest)
		ci.a = reg(in.Base)
		ci.off = c.layouts.Of(in.Struct).FieldRuntimeOff[in.Field]
		ci.hooked = c.instr.FieldSites[site]
	case *ir.IndexAddr:
		ci.op = opIndexAddr
		ci.dst = reg(in.Dest)
		ci.a = reg(in.Base)
		ci.b = reg(in.Index)
		ci.off = c.layouts.Of(in.Elem).RuntimeSize
	case *ir.PtrAdd:
		ci.op = opPtrAdd
		ci.dst = reg(in.Dest)
		ci.a = reg(in.Base)
		ci.b = reg(in.Off)
		ci.hooked = c.instr.PtrAddSites[site]
	case *ir.Call:
		ci.op = opCall
		ci.dst = reg(in.Dest)
		ci.callee = c.prog.byName[in.Callee]
		for _, a := range in.Args {
			ci.args = append(ci.args, reg(a))
		}
		if idxs, ok := c.instr.CtxCallArgs[site]; ok {
			ci.hooked = true
			ci.ctxArgs = idxs
		}
	case *ir.ICall:
		ci.op = opICall
		ci.dst = reg(in.Dest)
		ci.a = reg(in.FuncPtr)
		for _, a := range in.Args {
			ci.args = append(ci.args, reg(a))
		}
	case *ir.Ret:
		ci.op = opRet
		ci.a = reg(in.Src)
		if samples, ok := c.instr.CtxChecks[site]; ok {
			ci.samples = c.compileSamples(samples, reg)
		}
	case *ir.Jump:
		ci.op = opJump
		ci.blkA = blkIdx[in.Target]
	case *ir.CondJump:
		ci.op = opCondJump
		ci.a = reg(in.Cond)
		ci.blkA = blkIdx[in.True]
		ci.blkB = blkIdx[in.False]
		ci.off = len(c.prog.branchSites)
		c.prog.branchSites = append(c.prog.branchSites, site)
	default:
		panic(fmt.Sprintf("interp: cannot compile %T", in))
	}
	return ci
}

func (c *compiler) compileSamples(samples []invariant.CtxSample, reg func(string) int) []csample {
	out := make([]csample, len(samples))
	for i, s := range samples {
		out[i] = csample{reg: reg(s.Reg), deref: s.Deref}
	}
	return out
}
