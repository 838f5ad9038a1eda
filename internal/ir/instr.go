package ir

import (
	"fmt"
	"strings"
)

// Instr is a KIR instruction. Instructions that produce a value name the
// destination register via Def; registers are function-local string names.
type Instr interface {
	// Def returns the register defined by this instruction, or "".
	Def() string
	// AppendUses appends the registers read by this instruction to buf and
	// returns the extended slice, so a caller that reuses buf allocates
	// nothing per instruction.
	AppendUses(buf []string) []string
	// String renders the instruction in KIR assembly syntax.
	String() string
	// base returns the embedded instruction header.
	base() *InstrBase
}

// InstrBase carries identity and position shared by all instructions. ID is
// assigned module-wide by Module.Finalize and is the stable handle used by
// invariants, monitors and CFI callsite policies.
type InstrBase struct {
	ID  int // unique within the module after Finalize; 0 before
	Pos int // source line for diagnostics (0 if synthetic)
}

func (b *InstrBase) base() *InstrBase { return b }

// InstrID returns the module-unique ID of an instruction (0 before
// Module.Finalize).
func InstrID(in Instr) int { return in.base().ID }

// BinOpKind enumerates interpreter arithmetic/comparison operators.
type BinOpKind string

// Binary operators understood by the interpreter.
const (
	OpAdd BinOpKind = "+"
	OpSub BinOpKind = "-"
	OpMul BinOpKind = "*"
	OpDiv BinOpKind = "/"
	OpRem BinOpKind = "%"
	OpLt  BinOpKind = "<"
	OpLe  BinOpKind = "<="
	OpGt  BinOpKind = ">"
	OpGe  BinOpKind = ">="
	OpEq  BinOpKind = "=="
	OpNe  BinOpKind = "!="
	OpAnd BinOpKind = "&&"
	OpOr  BinOpKind = "||"
)

// Const materializes an integer constant: dest = val. When the constant was
// lowered from a sizeof(T) expression, SizeOfType retains T — the metadata
// the paper's modified Clang front-end preserves (§6) so heap-type detection
// can see through allocation wrappers.
type Const struct {
	InstrBase
	Dest       string
	Val        int64
	SizeOfType Type // non-nil when lowered from sizeof(T)
}

func (i *Const) Def() string                      { return i.Dest }
func (i *Const) AppendUses(buf []string) []string { return buf }
func (i *Const) String() string {
	if i.SizeOfType != nil {
		return fmt.Sprintf("%s = const %d ; sizeof(%s)", i.Dest, i.Val, i.SizeOfType)
	}
	return fmt.Sprintf("%s = const %d", i.Dest, i.Val)
}

// BinOp computes dest = a op b on integers.
type BinOp struct {
	InstrBase
	Dest string
	Op   BinOpKind
	A, B string
}

func (i *BinOp) Def() string                      { return i.Dest }
func (i *BinOp) AppendUses(buf []string) []string { return append(buf, i.A, i.B) }
func (i *BinOp) String() string                   { return fmt.Sprintf("%s = %s %s %s", i.Dest, i.A, i.Op, i.B) }

// Input reads the next value from the execution driver's input stream.
// Statically unknowable values (the paper's "difficult to determine
// statically", e.g. the i in *(p+i)) are modeled with Input.
type Input struct {
	InstrBase
	Dest string
}

func (i *Input) Def() string                      { return i.Dest }
func (i *Input) AppendUses(buf []string) []string { return buf }
func (i *Input) String() string                   { return i.Dest + " = input" }

// Output appends a value to the execution trace (driver-visible effect).
type Output struct {
	InstrBase
	Src string
}

func (i *Output) Def() string                      { return "" }
func (i *Output) AppendUses(buf []string) []string { return append(buf, i.Src) }
func (i *Output) String() string                   { return "output " + i.Src }

// Alloca creates a fresh stack object of type Ty: dest = &obj.
type Alloca struct {
	InstrBase
	Dest string
	Ty   Type
	Var  string // source-level variable name, for diagnostics
	Obj  int    // abstract-object number, assigned by Module.Finalize
}

func (i *Alloca) Def() string                      { return i.Dest }
func (i *Alloca) AppendUses(buf []string) []string { return buf }
func (i *Alloca) String() string {
	return fmt.Sprintf("%s = alloca %s ; %s", i.Dest, i.Ty, i.Var)
}

// AddrGlobal takes the address of a module global: dest = &g.
type AddrGlobal struct {
	InstrBase
	Dest   string
	Global string
}

func (i *AddrGlobal) Def() string                      { return i.Dest }
func (i *AddrGlobal) AppendUses(buf []string) []string { return buf }
func (i *AddrGlobal) String() string                   { return fmt.Sprintf("%s = &@%s", i.Dest, i.Global) }

// AddrFunc takes the address of a function: dest = &f. Marks f address-taken.
type AddrFunc struct {
	InstrBase
	Dest string
	Func string
}

func (i *AddrFunc) Def() string                      { return i.Dest }
func (i *AddrFunc) AppendUses(buf []string) []string { return buf }
func (i *AddrFunc) String() string                   { return fmt.Sprintf("%s = &%s", i.Dest, i.Func) }

// Copy is a register move: dest = src.
type Copy struct {
	InstrBase
	Dest, Src string
}

func (i *Copy) Def() string                      { return i.Dest }
func (i *Copy) AppendUses(buf []string) []string { return append(buf, i.Src) }
func (i *Copy) String() string                   { return fmt.Sprintf("%s = %s", i.Dest, i.Src) }

// Load is an indirect read: dest = *addr.
type Load struct {
	InstrBase
	Dest, Addr string
}

func (i *Load) Def() string                      { return i.Dest }
func (i *Load) AppendUses(buf []string) []string { return append(buf, i.Addr) }
func (i *Load) String() string                   { return fmt.Sprintf("%s = load %s", i.Dest, i.Addr) }

// Store is an indirect write: *addr = src.
type Store struct {
	InstrBase
	Addr, Src string
}

func (i *Store) Def() string                      { return "" }
func (i *Store) AppendUses(buf []string) []string { return append(buf, i.Addr, i.Src) }
func (i *Store) String() string                   { return fmt.Sprintf("store %s, %s", i.Addr, i.Src) }

// FieldAddr computes a field address: dest = &(base->field) where base points
// to a value of Struct type. This is the Field-Of constraint of Table 1.
type FieldAddr struct {
	InstrBase
	Dest   string
	Base   string
	Struct *StructType
	Field  int // index into Struct.Fields
}

func (i *FieldAddr) Def() string                      { return i.Dest }
func (i *FieldAddr) AppendUses(buf []string) []string { return append(buf, i.Base) }
func (i *FieldAddr) String() string {
	return fmt.Sprintf("%s = &%s->%s", i.Dest, i.Base, i.Struct.Fields[i.Field].Name)
}

// IndexAddr computes an array-element address: dest = &base[idx]. The
// analysis is array-index insensitive, so IndexAddr propagates the base
// object unchanged; the interpreter uses idx for real element addressing.
type IndexAddr struct {
	InstrBase
	Dest  string
	Base  string
	Index string
	Elem  Type // element type of the array being indexed
}

func (i *IndexAddr) Def() string                      { return i.Dest }
func (i *IndexAddr) AppendUses(buf []string) []string { return append(buf, i.Base, i.Index) }
func (i *IndexAddr) String() string                   { return fmt.Sprintf("%s = &%s[%s]", i.Dest, i.Base, i.Index) }

// PtrAdd is arbitrary pointer arithmetic: dest = base + off, where off is a
// register holding a statically unknown slot offset. This is the construct
// the PA likely invariant targets (§4.2).
type PtrAdd struct {
	InstrBase
	Dest, Base, Off string
}

func (i *PtrAdd) Def() string                      { return i.Dest }
func (i *PtrAdd) AppendUses(buf []string) []string { return append(buf, i.Base, i.Off) }
func (i *PtrAdd) String() string                   { return fmt.Sprintf("%s = %s +p %s", i.Dest, i.Base, i.Off) }

// Call is a direct call: dest = callee(args...). Dest may be "".
type Call struct {
	InstrBase
	Dest   string
	Callee string
	Args   []string
}

func (i *Call) Def() string                      { return i.Dest }
func (i *Call) AppendUses(buf []string) []string { return append(buf, i.Args...) }
func (i *Call) String() string {
	s := fmt.Sprintf("call %s(%s)", i.Callee, strings.Join(i.Args, ", "))
	if i.Dest != "" {
		s = i.Dest + " = " + s
	}
	return s
}

// ICall is an indirect call through a function-pointer register. Each ICall
// is a CFI-protected indirect callsite.
type ICall struct {
	InstrBase
	Dest    string
	FuncPtr string
	Args    []string
}

func (i *ICall) Def() string { return i.Dest }
func (i *ICall) AppendUses(buf []string) []string {
	return append(append(buf, i.FuncPtr), i.Args...)
}
func (i *ICall) String() string {
	s := fmt.Sprintf("icall %s(%s)", i.FuncPtr, strings.Join(i.Args, ", "))
	if i.Dest != "" {
		s = i.Dest + " = " + s
	}
	return s
}

// Malloc allocates a heap object: dest = malloc(sizeof SizeOf). SizeOf is
// the type named at the allocation site (the paper's retained sizeof
// metadata, §6). When SizeOf is nil the size comes from the Size register;
// the analysis then tries to recover the type interprocedurally from
// sizeof-tagged constants (§6's heap-type propagation), and if that fails
// the object's type stays unknown and the PA invariant never filters it
// (§6's soundness rule).
type Malloc struct {
	InstrBase
	Dest   string
	SizeOf Type   // may be nil: type not named at the allocation site
	Size   string // size register for dynamic allocations ("" when SizeOf set)
	Obj    int    // abstract-object number, assigned by Module.Finalize
}

func (i *Malloc) Def() string { return i.Dest }
func (i *Malloc) AppendUses(buf []string) []string {
	if i.Size == "" {
		return buf
	}
	return append(buf, i.Size)
}
func (i *Malloc) String() string {
	switch {
	case i.SizeOf != nil:
		return fmt.Sprintf("%s = malloc sizeof(%s)", i.Dest, i.SizeOf)
	case i.Size != "":
		return fmt.Sprintf("%s = malloc %s", i.Dest, i.Size)
	default:
		return fmt.Sprintf("%s = malloc ?", i.Dest)
	}
}

// Ret returns from the function. Src may be "" for void returns.
type Ret struct {
	InstrBase
	Src string
}

func (i *Ret) Def() string { return "" }
func (i *Ret) AppendUses(buf []string) []string {
	if i.Src == "" {
		return buf
	}
	return append(buf, i.Src)
}
func (i *Ret) String() string {
	if i.Src == "" {
		return "ret"
	}
	return "ret " + i.Src
}

// Jump is an unconditional branch to a block.
type Jump struct {
	InstrBase
	Target string
}

func (i *Jump) Def() string                      { return "" }
func (i *Jump) AppendUses(buf []string) []string { return buf }
func (i *Jump) String() string                   { return "jmp " + i.Target }

// CondJump branches on cond != 0.
type CondJump struct {
	InstrBase
	Cond        string
	True, False string
}

func (i *CondJump) Def() string                      { return "" }
func (i *CondJump) AppendUses(buf []string) []string { return append(buf, i.Cond) }
func (i *CondJump) String() string {
	return fmt.Sprintf("br %s, %s, %s", i.Cond, i.True, i.False)
}

// IsTerminator reports whether in ends a basic block.
func IsTerminator(in Instr) bool {
	switch in.(type) {
	case *Ret, *Jump, *CondJump:
		return true
	}
	return false
}
