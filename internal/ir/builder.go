package ir

import (
	"strconv"

	"repro/internal/slab"
)

// FuncBuilder incrementally constructs a Function. It manages fresh register
// names and the current insertion block, which keeps front-end lowering and
// test fixtures terse.
//
// While a function is built its blocks and their instruction lists live in
// the builder's scratch, which Finish copies out at exact size and the next
// Start reuses: lowering a module through one builder allocates what the
// module keeps, not the growth of every list. The most common instructions
// come from slabs the builder keeps across functions, and every function
// numbers its temps from %t1, so their names are made once per builder.
type FuncBuilder struct {
	F       *Function
	cur     *Block
	scratch []*Block        // the blocks being built; reused by the next function
	names   map[string]bool // every block name given so far
	temps   []string        // temps[i] is "%t<i+1>", shared by every function
	tmpSeq  int
	blkSeq  int
	curLine int

	allocas slab.Slab[Alloca]
	loads   slab.Slab[Load]
	stores  slab.Slab[Store]
}

// NewFuncBuilder starts a function with the given signature. An entry block
// is created and selected.
func NewFuncBuilder(name string, params []string, paramTypes []Type, ret Type) *FuncBuilder {
	b := &FuncBuilder{}
	b.Start(name, params, paramTypes, ret)
	return b
}

// Start begins the next function on b, after Finish returned the last
// one. An entry block is created and selected.
func (b *FuncBuilder) Start(name string, params []string, paramTypes []Type, ret Type) {
	b.F = &Function{Name: name, Params: params, ParamTypes: paramTypes, RetType: ret}
	b.tmpSeq, b.blkSeq, b.curLine = 0, 0, 0
	if b.names == nil {
		b.names = map[string]bool{}
	}
	clear(b.names)
	b.NewBlock("entry")
}

// Finish returns the function built. Its blocks are copied into one array
// and their instruction lists into one backing store, each block a
// full-capacity sub-slice of it: an append to a finished block copies it
// and never overwrites its neighbour.
func (b *FuncBuilder) Finish() *Function {
	f := b.F
	n := 0
	for _, blk := range f.Blocks {
		n += len(blk.Instrs)
	}
	store := make([]Instr, n)
	blocks := make([]Block, len(f.Blocks))
	f.Blocks = make([]*Block, len(blocks))
	for i := range blocks {
		ins := b.scratch[i].Instrs
		k := copy(store, ins)
		blocks[i] = Block{Name: b.scratch[i].Name, Instrs: store[:k:k]}
		store = store[k:]
		f.Blocks[i] = &blocks[i]
		clear(ins) // the scratch holds no instruction of a finished function
	}
	b.F, b.cur = nil, nil
	return f
}

// SetLine records the source line attached to subsequently emitted
// instructions.
func (b *FuncBuilder) SetLine(line int) { b.curLine = line }

// Temp returns a fresh register name.
func (b *FuncBuilder) Temp() string {
	if b.tmpSeq == len(b.temps) {
		b.temps = append(b.temps, "%t"+strconv.Itoa(b.tmpSeq+1))
	}
	b.tmpSeq++
	return b.temps[b.tmpSeq-1]
}

// NewBlock appends a block with a unique name derived from hint and selects
// it as the insertion point.
func (b *FuncBuilder) NewBlock(hint string) *Block {
	name := hint
	for b.names[name] {
		b.blkSeq++
		name = hint + "." + strconv.Itoa(b.blkSeq)
	}
	b.names[name] = true
	i := len(b.F.Blocks)
	if i == len(b.scratch) {
		b.scratch = append(b.scratch, &Block{})
	}
	blk := b.scratch[i]
	blk.Name, blk.Instrs = name, blk.Instrs[:0]
	b.F.Blocks = b.scratch[:i+1]
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
	b.Emit(b.allocas.New(Alloca{Dest: t, Ty: ty, Var: varName}))
	return t
}

// Load emits dest = *addr and returns dest.
func (b *FuncBuilder) Load(addr string) string {
	t := b.Temp()
	b.Emit(b.loads.New(Load{Dest: t, Addr: addr}))
	return t
}

// Store emits *addr = src.
func (b *FuncBuilder) Store(addr, src string) { b.Emit(b.stores.New(Store{Addr: addr, Src: src})) }

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
