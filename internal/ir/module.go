package ir

import (
	"fmt"
	"sort"
	"strings"
)

// Global is a module-level object. All access is by address (AddrGlobal),
// mirroring LLVM globals.
type Global struct {
	Name string
	Type Type
	Obj  int // abstract-object number, assigned by Module.Finalize
}

// Block is a basic block: a label and a straight-line instruction list ending
// in a terminator.
type Block struct {
	Name   string
	Instrs []Instr
}

// Terminator returns the block's final instruction, or nil if absent.
func (b *Block) Terminator() Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if IsTerminator(last) {
		return last
	}
	return nil
}

// Function is a KIR function. Params are register names holding arguments.
type Function struct {
	Name         string
	Params       []string
	ParamTypes   []Type
	RetType      Type // nil means void
	Blocks       []*Block
	AddressTaken bool // set by Finalize: the function's address is taken somewhere
	Obj          int  // abstract-object number, assigned by Module.Finalize

	firstID int // the ID Finalize gives the function's first instruction
}

// Entry returns the entry block.
func (f *Function) Entry() *Block { return f.Blocks[0] }

// Instrs iterates over all instructions in block order.
func (f *Function) Instrs(visit func(b *Block, in Instr)) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			visit(b, in)
		}
	}
}

// Module is a whole KIR program.
type Module struct {
	Name    string
	Structs map[string]*StructType
	Globals []*Global
	Funcs   []*Function

	funcIndex   map[string]*Function
	globalIndex map[string]*Global
	numInstrs   int
	numObjects  int
	finalized   bool
	derived     map[derivedKey]Type // PointerTo and ArrayOf results
}

// derivedKey names a pointer type (n < 0) or an array type of length n.
type derivedKey struct {
	elem Type
	n    int
}

// NewModule returns an empty module.
func NewModule(name string) *Module {
	return &Module{
		Name:    name,
		Structs: map[string]*StructType{},
		derived: map[derivedKey]Type{},
	}
}

// PointerTo returns the module's pointer type with element type t: the same
// value on every call.
func (m *Module) PointerTo(t Type) *PointerType {
	k := derivedKey{t, -1}
	if m.derived[k] == nil {
		m.derived[k] = &PointerType{Elem: t}
	}
	return m.derived[k].(*PointerType)
}

// ArrayOf returns the module's type of n-element arrays of elem: the same
// value on every call.
func (m *Module) ArrayOf(elem Type, n int) *ArrayType {
	k := derivedKey{elem, n}
	if m.derived[k] == nil {
		m.derived[k] = &ArrayType{Elem: elem, Len: n}
	}
	return m.derived[k].(*ArrayType)
}

// AddGlobal registers a global object.
func (m *Module) AddGlobal(name string, t Type) *Global {
	g := &Global{Name: name, Type: t}
	m.Globals = append(m.Globals, g)
	return g
}

// AddFunc registers a function.
func (m *Module) AddFunc(f *Function) { m.Funcs = append(m.Funcs, f) }

// Func returns the named function, or nil.
func (m *Module) Func(name string) *Function {
	if m.funcIndex != nil {
		return m.funcIndex[name]
	}
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Global returns the named global, or nil.
func (m *Module) Global(name string) *Global {
	if m.globalIndex != nil {
		return m.globalIndex[name]
	}
	for _, g := range m.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// InstrByID returns the instruction with the given Finalize-assigned ID, or
// nil if id is outside 1..NumInstrs().
func (m *Module) InstrByID(id int) Instr {
	f := m.FuncOfInstr(id)
	if f == nil {
		return nil
	}
	off := id - f.firstID
	for _, b := range f.Blocks {
		if off < len(b.Instrs) {
			return b.Instrs[off]
		}
		off -= len(b.Instrs)
	}
	return nil
}

// FuncOfInstr returns the function containing the instruction with id, or
// nil if id is outside 1..NumInstrs().
func (m *Module) FuncOfInstr(id int) *Function {
	if id < 1 || id > m.numInstrs {
		return nil
	}
	// The last function whose first ID is at most id.
	i := sort.Search(len(m.Funcs), func(i int) bool { return m.Funcs[i].firstID > id })
	return m.Funcs[i-1]
}

// NumInstrs returns the number of instructions in the module (post-Finalize).
func (m *Module) NumInstrs() int { return m.numInstrs }

// NumObjects returns the number of abstract objects in the module
// (post-Finalize): its globals, functions and allocation sites.
func (m *Module) NumObjects() int { return m.numObjects }

// Finalize assigns module-unique instruction IDs 1..n in block order, builds
// lookup indexes, and computes address-taken facts. It must be called once
// construction is done and before analysis or execution.
//
// Finalize lays out every struct in Structs and every type PointerTo and
// ArrayOf made (Type.Layout), so the analysis and the interpreter only read
// layouts.
//
// Finalize also numbers the module's abstract objects 0..NumObjects()-1 and
// stores each number on its IR value (the Obj fields): the globals in
// order, then the functions in order, then every Alloca and Malloc in
// instruction-ID order. That number is the one identity of an object: the
// pointer analysis places its object there, and the interpreter, the
// monitors and the soundness report name runtime objects by it.
func (m *Module) Finalize() error {
	if m.finalized {
		return nil
	}
	for _, st := range m.Structs {
		st.Layout()
	}
	for _, t := range m.derived {
		t.Layout()
	}
	m.funcIndex = make(map[string]*Function, len(m.Funcs))
	m.globalIndex = make(map[string]*Global, len(m.Globals))
	obj := 0
	for _, g := range m.Globals {
		if _, dup := m.globalIndex[g.Name]; dup {
			return fmt.Errorf("ir: duplicate global %q", g.Name)
		}
		m.globalIndex[g.Name] = g
		g.Obj = obj
		obj++
	}
	for _, f := range m.Funcs {
		if _, dup := m.funcIndex[f.Name]; dup {
			return fmt.Errorf("ir: duplicate function %q", f.Name)
		}
		m.funcIndex[f.Name] = f
		f.Obj = obj
		obj++
	}
	for _, f := range m.Funcs {
		f.firstID = m.numInstrs + 1
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				m.numInstrs++
				in.base().ID = m.numInstrs
				switch in := in.(type) {
				case *Alloca:
					in.Obj = obj
					obj++
				case *Malloc:
					in.Obj = obj
					obj++
				case *AddrFunc:
					tgt := m.funcIndex[in.Func]
					if tgt == nil {
						return fmt.Errorf("ir: %s: address of unknown function %q", f.Name, in.Func)
					}
					tgt.AddressTaken = true
				}
			}
		}
	}
	m.numObjects = obj
	m.finalized = true
	return m.Validate()
}

// Validate checks structural well-formedness: blocks end in terminators,
// referenced blocks/globals/functions exist, registers are defined before
// use within a function (conservatively: defined somewhere in the function),
// and field indices are in range.
func (m *Module) Validate() error {
	defined := map[string]bool{}
	var uses []string // one instruction's uses, reused across instructions
	for _, f := range m.Funcs {
		if len(f.Blocks) == 0 {
			return fmt.Errorf("ir: function %s has no blocks", f.Name)
		}
		if len(f.Params) != len(f.ParamTypes) {
			return fmt.Errorf("ir: function %s: %d params, %d param types", f.Name, len(f.Params), len(f.ParamTypes))
		}
		blocks := map[string]bool{}
		for _, b := range f.Blocks {
			if blocks[b.Name] {
				return fmt.Errorf("ir: %s: duplicate block %q", f.Name, b.Name)
			}
			blocks[b.Name] = true
		}
		clear(defined)
		for _, p := range f.Params {
			defined[p] = true
		}
		f.Instrs(func(_ *Block, in Instr) {
			if d := in.Def(); d != "" {
				defined[d] = true
			}
		})
		var err error
		for _, b := range f.Blocks {
			if b.Terminator() == nil {
				return fmt.Errorf("ir: %s/%s: block does not end in a terminator", f.Name, b.Name)
			}
			for pos, in := range b.Instrs {
				if IsTerminator(in) && pos != len(b.Instrs)-1 {
					return fmt.Errorf("ir: %s/%s: terminator %q not at block end", f.Name, b.Name, in)
				}
				uses = in.AppendUses(uses[:0])
				for _, u := range uses {
					if !defined[u] {
						return fmt.Errorf("ir: %s/%s: use of undefined register %q in %q", f.Name, b.Name, u, in)
					}
				}
				switch in := in.(type) {
				case *AddrGlobal:
					if m.Global(in.Global) == nil {
						err = fmt.Errorf("ir: %s: unknown global %q", f.Name, in.Global)
					}
				case *AddrFunc:
					if m.Func(in.Func) == nil {
						err = fmt.Errorf("ir: %s: unknown function %q", f.Name, in.Func)
					}
				case *Call:
					if m.Func(in.Callee) == nil {
						err = fmt.Errorf("ir: %s: call to unknown function %q", f.Name, in.Callee)
					}
				case *FieldAddr:
					if in.Field < 0 || in.Field >= len(in.Struct.Fields) {
						err = fmt.Errorf("ir: %s: field index %d out of range for %s", f.Name, in.Field, in.Struct.Name)
					}
				case *Jump:
					if !blocks[in.Target] {
						err = fmt.Errorf("ir: %s: jump to unknown block %q", f.Name, in.Target)
					}
				case *CondJump:
					if !blocks[in.True] || !blocks[in.False] {
						err = fmt.Errorf("ir: %s: branch to unknown block (%q/%q)", f.Name, in.True, in.False)
					}
				}
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// AddressTakenFuncs returns the names of all address-taken functions, sorted.
func (m *Module) AddressTakenFuncs() []string {
	var out []string
	for _, f := range m.Funcs {
		if f.AddressTaken {
			out = append(out, f.Name)
		}
	}
	sort.Strings(out)
	return out
}

// String renders the whole module in KIR assembly syntax.
func (m *Module) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "module %s\n", m.Name)
	names := make([]string, 0, len(m.Structs))
	for n := range m.Structs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		st := m.Structs[n]
		fmt.Fprintf(&b, "struct %s {", n)
		for i, fl := range st.Fields {
			if i > 0 {
				b.WriteString("; ")
			}
			fmt.Fprintf(&b, " %s %s", fl.Type, fl.Name)
		}
		b.WriteString(" }\n")
	}
	for _, g := range m.Globals {
		fmt.Fprintf(&b, "global @%s : %s\n", g.Name, g.Type)
	}
	for _, f := range m.Funcs {
		fmt.Fprintf(&b, "\nfunc %s(%s)", f.Name, typeList(f.ParamTypes))
		if f.RetType != nil {
			fmt.Fprintf(&b, " -> %s", f.RetType)
		}
		b.WriteString(" {\n")
		for _, blk := range f.Blocks {
			fmt.Fprintf(&b, "%s:\n", blk.Name)
			for _, in := range blk.Instrs {
				fmt.Fprintf(&b, "  %s\n", in)
			}
		}
		b.WriteString("}\n")
	}
	return b.String()
}
