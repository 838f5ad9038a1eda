package ir

import (
	"fmt"
	"strconv"
)

// FuncBuilder incrementally constructs a Function. It manages fresh register
// names and the current insertion block, which keeps front-end lowering and
// test fixtures terse.
type FuncBuilder struct {
	F       *Function
	cur     *Block
	tmpSeq  int
	blkSeq  int
	curLine int
}

// NewFuncBuilder starts a function with the given signature. An entry block
// is created and selected.
func NewFuncBuilder(name string, params []string, paramTypes []Type, ret Type) *FuncBuilder {
	f := &Function{Name: name, Params: params, ParamTypes: paramTypes, RetType: ret}
	b := &FuncBuilder{F: f}
	b.NewBlock("entry")
	return b
}

// SetLine records the source line attached to subsequently emitted
// instructions.
func (b *FuncBuilder) SetLine(line int) { b.curLine = line }

// Temp returns a fresh register name.
func (b *FuncBuilder) Temp() string {
	b.tmpSeq++
	return "%t" + strconv.Itoa(b.tmpSeq)
}

// NewBlock appends a block with a unique name derived from hint and selects
// it as the insertion point.
func (b *FuncBuilder) NewBlock(hint string) *Block {
	name := hint
	if b.F.Block(name) != nil {
		b.blkSeq++
		name = fmt.Sprintf("%s.%d", hint, b.blkSeq)
	}
	blk := &Block{Name: name}
	b.F.Blocks = append(b.F.Blocks, blk)
	b.cur = blk
	return blk
}

// NewBlockLinked appends a block like NewBlock and, if the previously
// current block lacks a terminator, emits a jump from it to the new block.
func (b *FuncBuilder) NewBlockLinked(hint string) *Block {
	prev := b.cur
	blk := b.NewBlock(hint)
	if prev.Terminator() == nil {
		prev.Instrs = append(prev.Instrs, &Jump{Target: blk.Name})
	}
	return blk
}

// SetBlock selects blk as the insertion point.
func (b *FuncBuilder) SetBlock(blk *Block) { b.cur = blk }

// Cur returns the current insertion block.
func (b *FuncBuilder) Cur() *Block { return b.cur }

// Emit appends an instruction to the current block.
func (b *FuncBuilder) Emit(in Instr) Instr {
	in.base().Pos = b.curLine
	b.cur.Instrs = append(b.cur.Instrs, in)
	return in
}

// Terminated reports whether the current block already ends in a terminator.
func (b *FuncBuilder) Terminated() bool { return b.cur.Terminator() != nil }

// Const emits dest = const v into a fresh temp and returns the temp.
func (b *FuncBuilder) Const(v int64) string {
	t := b.Temp()
	b.Emit(&Const{Dest: t, Val: v})
	return t
}

// Alloca emits a stack allocation and returns the address register.
func (b *FuncBuilder) Alloca(varName string, ty Type) string {
	t := b.Temp()
	b.Emit(&Alloca{Dest: t, Ty: ty, Var: varName})
	return t
}

// Load emits dest = *addr and returns dest.
func (b *FuncBuilder) Load(addr string) string {
	t := b.Temp()
	b.Emit(&Load{Dest: t, Addr: addr})
	return t
}

// Store emits *addr = src.
func (b *FuncBuilder) Store(addr, src string) { b.Emit(&Store{Addr: addr, Src: src}) }

// FieldAddr emits dest = &(base->field k) and returns dest.
func (b *FuncBuilder) FieldAddr(base string, st *StructType, k int) string {
	t := b.Temp()
	b.Emit(&FieldAddr{Dest: t, Base: base, Struct: st, Field: k})
	return t
}

// Ret emits a return.
func (b *FuncBuilder) Ret(src string) { b.Emit(&Ret{Src: src}) }

// Jump emits an unconditional branch.
func (b *FuncBuilder) Jump(target string) { b.Emit(&Jump{Target: target}) }

// CondJump emits a conditional branch.
func (b *FuncBuilder) CondJump(cond, t, f string) {
	b.Emit(&CondJump{Cond: cond, True: t, False: f})
}
