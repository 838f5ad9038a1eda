package ir

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func sslStruct() *StructType {
	return &StructType{
		Name: "ssl_context",
		Fields: []Field{
			{Name: "f_send", Type: Fn},
			{Name: "f_recv", Type: Fn},
			{Name: "buf", Type: &ArrayType{Elem: Int, Len: 8}},
			{Name: "peer", Type: PointerTo(Int)},
		},
	}
}

func TestNumSlots(t *testing.T) {
	st := sslStruct()
	cases := []struct {
		t    Type
		want int
	}{
		{Int, 1},
		{PointerTo(Int), 1},
		{Fn, 1},
		{st, 1 + 1 + 8 + 1},
		{&ArrayType{Elem: st, Len: 3}, 33},
		{&StructType{Name: "empty"}, 1},
	}
	for _, c := range cases {
		if got := NumSlots(c.t); got != c.want {
			t.Errorf("NumSlots(%s) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestFlattenedFields(t *testing.T) {
	st := sslStruct()
	flat := FlattenedFields(st)
	// arrays collapse to a single slot for the analysis
	if len(flat) != 4 {
		t.Fatalf("flattened slots = %d, want 4: %+v", len(flat), flat)
	}
	if flat[0].Path != "f_send" || flat[2].Path != "buf[]" || flat[3].Path != "peer" {
		t.Errorf("paths = %v %v %v %v", flat[0].Path, flat[1].Path, flat[2].Path, flat[3].Path)
	}
	if _, ok := flat[0].Type.(FuncType); !ok {
		t.Errorf("f_send slot type = %s", flat[0].Type)
	}
}

func TestFlattenedNestedStruct(t *testing.T) {
	inner := &StructType{Name: "inner", Fields: []Field{
		{Name: "a", Type: Int},
		{Name: "fp", Type: Fn},
	}}
	outer := &StructType{Name: "outer", Fields: []Field{
		{Name: "x", Type: PointerTo(Int)},
		{Name: "in", Type: inner},
	}}
	flat := FlattenedFields(outer)
	if len(flat) != 3 {
		t.Fatalf("flattened slots = %d, want 3", len(flat))
	}
	if flat[1].Path != "in.a" || flat[2].Path != "in.fp" {
		t.Errorf("nested paths = %q, %q", flat[1].Path, flat[2].Path)
	}
}

func TestLayoutStruct(t *testing.T) {
	st := sslStruct()
	l := NewLayouts().Of(st)
	if l.RuntimeSize != 11 {
		t.Errorf("RuntimeSize = %d, want 11", l.RuntimeSize)
	}
	if l.AnalysisSize != 4 {
		t.Errorf("AnalysisSize = %d, want 4", l.AnalysisSize)
	}
	wantROff := []int{0, 1, 2, 10}
	wantAOff := []int{0, 1, 2, 3}
	for k := range st.Fields {
		if l.FieldRuntimeOff[k] != wantROff[k] {
			t.Errorf("FieldRuntimeOff[%d] = %d, want %d", k, l.FieldRuntimeOff[k], wantROff[k])
		}
		if l.FieldAnalysisOff[k] != wantAOff[k] {
			t.Errorf("FieldAnalysisOff[%d] = %d, want %d", k, l.FieldAnalysisOff[k], wantAOff[k])
		}
	}
	// all 8 array slots map onto analysis slot 2
	for r := 2; r < 10; r++ {
		if l.RToA[r] != 2 {
			t.Errorf("RToA[%d] = %d, want 2", r, l.RToA[r])
		}
	}
	if l.RToA[0] != 0 || l.RToA[1] != 1 || l.RToA[10] != 3 {
		t.Errorf("scalar RToA mapping wrong: %v", l.RToA)
	}
}

func TestLayoutArrayOfStructs(t *testing.T) {
	st := &StructType{Name: "pair", Fields: []Field{
		{Name: "p", Type: PointerTo(Int)},
		{Name: "q", Type: PointerTo(Int)},
	}}
	arr := &ArrayType{Elem: st, Len: 4}
	l := NewLayouts().Of(arr)
	if l.RuntimeSize != 8 || l.AnalysisSize != 2 {
		t.Fatalf("sizes = %d/%d, want 8/2", l.RuntimeSize, l.AnalysisSize)
	}
	for i := 0; i < 4; i++ {
		if l.RToA[2*i] != 0 || l.RToA[2*i+1] != 1 {
			t.Errorf("element %d maps to %d/%d", i, l.RToA[2*i], l.RToA[2*i+1])
		}
	}
}

func TestTypeEqual(t *testing.T) {
	a := sslStruct()
	b := sslStruct()
	if !TypeEqual(a, b) {
		t.Error("same-named structs unequal")
	}
	if TypeEqual(PointerTo(Int), PointerTo(PointerTo(Int))) {
		t.Error("int* equals int**")
	}
	if !TypeEqual(PointerTo(a), PointerTo(b)) {
		t.Error("struct pointers unequal")
	}
	if TypeEqual(Int, Fn) {
		t.Error("int equals fn")
	}
	if !TypeEqual(&ArrayType{Elem: Int, Len: 3}, &ArrayType{Elem: Int, Len: 3}) {
		t.Error("identical arrays unequal")
	}
	if TypeEqual(&ArrayType{Elem: Int, Len: 3}, &ArrayType{Elem: Int, Len: 4}) {
		t.Error("different-length arrays equal")
	}
}

// buildTinyModule constructs:
//
//	global @o : int
//	func target() -> int { ret 1 }
//	func main() -> int {
//	  p = &@o ; q = alloca int* ; store q, p ; r = load q
//	  f = &target ; x = icall f()
//	  ret x
//	}
func buildTinyModule(t *testing.T) *Module {
	t.Helper()
	m := NewModule("tiny")
	m.AddGlobal("o", Int)

	tb := NewFuncBuilder("target", nil, nil, Int)
	one := tb.Const(1)
	tb.Ret(one)
	m.AddFunc(tb.F)

	b := NewFuncBuilder("main", nil, nil, Int)
	p := b.Temp()
	b.Emit(&AddrGlobal{Dest: p, Global: "o"})
	q := b.Alloca("q", PointerTo(Int))
	b.Store(q, p)
	b.Load(q)
	f := b.Temp()
	b.Emit(&AddrFunc{Dest: f, Func: "target"})
	x := b.Temp()
	b.Emit(&ICall{Dest: x, FuncPtr: f})
	b.Ret(x)
	m.AddFunc(b.F)

	if err := m.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return m
}

func TestFinalizeAssignsIDsAndAddressTaken(t *testing.T) {
	m := buildTinyModule(t)
	if !m.Func("target").AddressTaken {
		t.Error("target not marked address-taken")
	}
	if m.Func("main").AddressTaken {
		t.Error("main wrongly address-taken")
	}
	seen := map[int]bool{}
	for _, f := range m.Funcs {
		f.Instrs(func(_ *Block, in Instr) {
			id := in.base().ID
			if id == 0 {
				t.Errorf("instruction %q has no ID", in)
			}
			if seen[id] {
				t.Errorf("duplicate instruction ID %d", id)
			}
			seen[id] = true
			if m.InstrByID(id) != in {
				t.Errorf("InstrByID(%d) mismatch", id)
			}
		})
	}
	if got := m.AddressTakenFuncs(); len(got) != 1 || got[0] != "target" {
		t.Errorf("AddressTakenFuncs = %v", got)
	}
	// Object numbers: globals, then functions, then allocation sites.
	var alloca *Alloca
	m.Func("main").Instrs(func(_ *Block, in Instr) {
		if a, ok := in.(*Alloca); ok {
			alloca = a
		}
	})
	if got := []int{m.Global("o").Obj, m.Func("target").Obj, m.Func("main").Obj, alloca.Obj, m.NumObjects()}; !slices.Equal(got, []int{0, 1, 2, 3, 4}) {
		t.Errorf("object numbers of @o, target, main, q and their count = %v, want [0 1 2 3 4]", got)
	}
}

// TestInstrTables: a module built with FuncBuilder alone gets IDs 1..n in
// block order, the ID tables answer every ID in range and nil outside it
// (and before Finalize), and a second Finalize changes nothing.
func TestInstrTables(t *testing.T) {
	m := NewModule("tables")
	if m.InstrByID(1) != nil || m.FuncOfInstr(1) != nil || m.InstrByID(0) != nil || m.FuncOfInstr(0) != nil {
		t.Fatal("un-finalized module answers an instruction ID")
	}
	tb := NewFuncBuilder("leaf", []string{"%a"}, []Type{Int}, Int)
	tb.Ret("%a")
	m.AddFunc(tb.F)
	b := NewFuncBuilder("main", nil, nil, Int)
	c := b.Const(1)
	b.CondJump(c, "then", "else")
	b.NewBlock("then")
	x := b.Temp()
	b.Emit(&Call{Dest: x, Callee: "leaf", Args: []string{c}})
	b.Ret(x)
	b.NewBlock("else")
	b.Ret(c)
	m.AddFunc(b.F)
	if m.InstrByID(1) != nil || m.FuncOfInstr(1) != nil {
		t.Fatal("un-finalized module answers an instruction ID")
	}
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}

	type entry struct {
		in Instr
		f  *Function
	}
	var order []entry
	for _, f := range m.Funcs {
		f.Instrs(func(_ *Block, in Instr) { order = append(order, entry{in, f}) })
	}
	check := func() {
		t.Helper()
		if m.NumInstrs() != len(order) {
			t.Fatalf("NumInstrs = %d, want %d", m.NumInstrs(), len(order))
		}
		for i, e := range order {
			id := i + 1
			if got := InstrID(e.in); got != id {
				t.Errorf("instruction %d (%q) has ID %d", id, e.in, got)
			}
			if m.InstrByID(id) != e.in || m.FuncOfInstr(id) != e.f {
				t.Errorf("ID %d: InstrByID/FuncOfInstr = %q/%v, want %q/%s", id, m.InstrByID(id), m.FuncOfInstr(id), e.in, e.f.Name)
			}
		}
		for _, id := range []int{0, -1, len(order) + 1} {
			if m.InstrByID(id) != nil || m.FuncOfInstr(id) != nil {
				t.Errorf("ID %d outside 1..%d answers %q/%v", id, len(order), m.InstrByID(id), m.FuncOfInstr(id))
			}
		}
	}
	check()
	if err := m.Finalize(); err != nil {
		t.Fatalf("second Finalize: %v", err)
	}
	check()
}

func TestValidateRejectsMissingTerminator(t *testing.T) {
	m := NewModule("bad")
	f := &Function{Name: "f", Blocks: []*Block{{Name: "entry"}}}
	m.AddFunc(f)
	if err := m.Finalize(); err == nil || !strings.Contains(err.Error(), "terminator") {
		t.Fatalf("Finalize err = %v, want terminator error", err)
	}
}

func TestValidateRejectsUndefinedRegister(t *testing.T) {
	m := NewModule("bad")
	b := NewFuncBuilder("f", nil, nil, nil)
	b.Emit(&Copy{Dest: "%x", Src: "%nope"})
	b.Emit(&Ret{})
	m.AddFunc(b.F)
	if err := m.Finalize(); err == nil || !strings.Contains(err.Error(), "undefined register") {
		t.Fatalf("Finalize err = %v, want undefined register error", err)
	}
}

// TestValidateRegistersArePerFunction: a register defined in one function
// does not count as defined in the next.
func TestValidateRegistersArePerFunction(t *testing.T) {
	m := NewModule("bad")
	a := NewFuncBuilder("a", nil, nil, nil)
	a.Emit(&Copy{Dest: "%x", Src: a.Const(1)})
	a.Emit(&Ret{})
	m.AddFunc(a.F)
	b := NewFuncBuilder("b", nil, nil, nil)
	b.Emit(&Copy{Dest: "%y", Src: "%x"})
	b.Emit(&Ret{})
	m.AddFunc(b.F)
	if err := m.Finalize(); err == nil || !strings.Contains(err.Error(), "b/entry: use of undefined register \"%x\"") {
		t.Fatalf("Finalize err = %v, want undefined register %%x in b", err)
	}
}

func TestValidateRejectsUnknownCallee(t *testing.T) {
	m := NewModule("bad")
	b := NewFuncBuilder("f", nil, nil, nil)
	b.Emit(&Call{Callee: "ghost"})
	b.Emit(&Ret{})
	m.AddFunc(b.F)
	if err := m.Finalize(); err == nil || !strings.Contains(err.Error(), "unknown function") {
		t.Fatalf("Finalize err = %v, want unknown function error", err)
	}
}

func TestValidateRejectsBadFieldIndex(t *testing.T) {
	st := &StructType{Name: "s", Fields: []Field{{Name: "a", Type: Int}}}
	m := NewModule("bad")
	m.Structs["s"] = st
	b := NewFuncBuilder("f", []string{"%p"}, []Type{PointerTo(st)}, nil)
	b.Emit(&FieldAddr{Dest: "%x", Base: "%p", Struct: st, Field: 3})
	b.Emit(&Ret{})
	m.AddFunc(b.F)
	err := m.Finalize()
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("Finalize err = %v, want field range error", err)
	}
}

func TestValidateRejectsDuplicateFunction(t *testing.T) {
	m := NewModule("bad")
	for i := 0; i < 2; i++ {
		b := NewFuncBuilder("dup", nil, nil, nil)
		b.Emit(&Ret{})
		m.AddFunc(b.F)
	}
	if err := m.Finalize(); err == nil || !strings.Contains(err.Error(), "duplicate function") {
		t.Fatalf("Finalize err = %v, want duplicate error", err)
	}
}

func TestValidateRejectsJumpToUnknownBlock(t *testing.T) {
	m := NewModule("bad")
	b := NewFuncBuilder("f", nil, nil, nil)
	b.Jump("nowhere")
	m.AddFunc(b.F)
	if err := m.Finalize(); err == nil || !strings.Contains(err.Error(), "unknown block") {
		t.Fatalf("Finalize err = %v, want unknown block error", err)
	}
}

func TestModuleString(t *testing.T) {
	m := buildTinyModule(t)
	s := m.String()
	for _, want := range []string{"module tiny", "global @o : int", "func main()", "icall", "= &target"} {
		if !strings.Contains(s, want) {
			t.Errorf("module printout missing %q:\n%s", want, s)
		}
	}
}

func TestInstrStrings(t *testing.T) {
	st := &StructType{Name: "s", Fields: []Field{{Name: "fp", Type: Fn}}}
	cases := []struct {
		in   Instr
		want string
	}{
		{&Const{Dest: "%a", Val: 7}, "%a = const 7"},
		{&BinOp{Dest: "%c", Op: OpAdd, A: "%a", B: "%b"}, "%c = %a + %b"},
		{&Load{Dest: "%v", Addr: "%p"}, "%v = load %p"},
		{&Store{Addr: "%p", Src: "%v"}, "store %p, %v"},
		{&FieldAddr{Dest: "%f", Base: "%p", Struct: st, Field: 0}, "%f = &%p->fp"},
		{&PtrAdd{Dest: "%d", Base: "%p", Off: "%i"}, "%d = %p +p %i"},
		{&Malloc{Dest: "%h", SizeOf: st}, "%h = malloc sizeof(struct s)"},
		{&Malloc{Dest: "%h"}, "%h = malloc ?"},
		{&Ret{}, "ret"},
		{&Ret{Src: "%x"}, "ret %x"},
		{&Jump{Target: "loop"}, "jmp loop"},
		{&CondJump{Cond: "%c", True: "a", False: "b"}, "br %c, a, b"},
		{&ICall{Dest: "%r", FuncPtr: "%f", Args: []string{"%x"}}, "%r = icall %f(%x)"},
		{&Call{Callee: "g", Args: []string{"%x", "%y"}}, "call g(%x, %y)"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestBuilderBlocksAndTemps(t *testing.T) {
	b := NewFuncBuilder("f", []string{"%p"}, []Type{PointerTo(Int)}, nil)
	if b.Cur().Name != "entry" {
		t.Fatalf("entry block = %q", b.Cur().Name)
	}
	t1, t2 := b.Temp(), b.Temp()
	if t1 == t2 {
		t.Error("Temp returned duplicate names")
	}
	loop := b.NewBlock("loop")
	again := b.NewBlock("loop")
	if loop.Name == again.Name {
		t.Error("NewBlock returned duplicate block names")
	}
	if b.Cur() != again {
		t.Error("NewBlock did not select the new block")
	}
	b.SetBlock(loop)
	if b.Terminated() {
		t.Error("empty block reported terminated")
	}
	b.Jump(again.Name)
	if !b.Terminated() {
		t.Error("block with jump not terminated")
	}
}

// Property: runtime-to-analysis slot mapping is total and within bounds for
// randomly shaped nested types.
func TestQuickLayoutMapping(t *testing.T) {
	buildType := func(seed int64) Type {
		r := rand.New(rand.NewSource(seed))
		var mk func(depth int) Type
		mk = func(depth int) Type {
			if depth >= 3 {
				return Int
			}
			switch r.Intn(5) {
			case 0:
				return Int
			case 1:
				return PointerTo(mk(depth + 1))
			case 2:
				return Fn
			case 3:
				return &ArrayType{Elem: mk(depth + 1), Len: 1 + r.Intn(5)}
			default:
				n := 1 + r.Intn(4)
				st := &StructType{Name: fmt.Sprintf("s%d_%d", seed, depth)}
				for i := 0; i < n; i++ {
					st.Fields = append(st.Fields, Field{Name: fmt.Sprintf("f%d", i), Type: mk(depth + 1)})
				}
				return st
			}
		}
		return mk(0)
	}
	ls := NewLayouts()
	for seed := int64(0); seed < 200; seed++ {
		ty := buildType(seed)
		l := ls.Of(ty)
		if l.RuntimeSize != NumSlots(ty) {
			t.Fatalf("seed %d: RuntimeSize %d != NumSlots %d for %s", seed, l.RuntimeSize, NumSlots(ty), ty)
		}
		if l.AnalysisSize != len(FlattenedFields(ty)) {
			t.Fatalf("seed %d: AnalysisSize %d != flattened %d", seed, l.AnalysisSize, len(FlattenedFields(ty)))
		}
		if len(l.RToA) != l.RuntimeSize {
			t.Fatalf("seed %d: RToA length %d != runtime size %d", seed, len(l.RToA), l.RuntimeSize)
		}
		covered := make([]bool, l.AnalysisSize)
		for r, a := range l.RToA {
			if a < 0 || a >= l.AnalysisSize {
				t.Fatalf("seed %d: RToA[%d] = %d out of range %d", seed, r, a, l.AnalysisSize)
			}
			covered[a] = true
		}
		for a, ok := range covered {
			if !ok {
				t.Fatalf("seed %d: analysis slot %d unreachable from runtime slots (%s)", seed, a, ty)
			}
		}
		if st, ok := ty.(*StructType); ok && len(st.Fields) > 0 {
			if l.FieldRuntimeOff[0] != 0 || l.FieldAnalysisOff[0] != 0 {
				t.Fatalf("seed %d: first field offsets nonzero", seed)
			}
			for k := 1; k < len(st.Fields); k++ {
				if l.FieldRuntimeOff[k] <= l.FieldRuntimeOff[k-1] {
					t.Fatalf("seed %d: runtime offsets not increasing", seed)
				}
			}
		}
	}
}

// TestAppendUses: every instruction appends exactly the registers it reads,
// after whatever the buffer already holds, and into a buffer with room it
// allocates nothing.
func TestAppendUses(t *testing.T) {
	cases := []struct {
		in   Instr
		want []string
	}{
		{&Const{Dest: "%d"}, nil},
		{&BinOp{Dest: "%d", A: "%a", B: "%b"}, []string{"%a", "%b"}},
		{&Input{Dest: "%d"}, nil},
		{&Output{Src: "%s"}, []string{"%s"}},
		{&Alloca{Dest: "%d"}, nil},
		{&AddrGlobal{Dest: "%d"}, nil},
		{&AddrFunc{Dest: "%d"}, nil},
		{&Copy{Dest: "%d", Src: "%s"}, []string{"%s"}},
		{&Load{Dest: "%d", Addr: "%p"}, []string{"%p"}},
		{&Store{Addr: "%p", Src: "%s"}, []string{"%p", "%s"}},
		{&FieldAddr{Dest: "%d", Base: "%b"}, []string{"%b"}},
		{&IndexAddr{Dest: "%d", Base: "%b", Index: "%i"}, []string{"%b", "%i"}},
		{&PtrAdd{Dest: "%d", Base: "%b", Off: "%o"}, []string{"%b", "%o"}},
		{&Call{Dest: "%d", Callee: "f", Args: []string{"%x", "%y"}}, []string{"%x", "%y"}},
		{&ICall{Dest: "%d", FuncPtr: "%f", Args: []string{"%x"}}, []string{"%f", "%x"}},
		{&Malloc{Dest: "%d", SizeOf: Int}, nil},
		{&Malloc{Dest: "%d", Size: "%n"}, []string{"%n"}},
		{&Ret{}, nil},
		{&Ret{Src: "%r"}, []string{"%r"}},
		{&Jump{Target: "b"}, nil},
		{&CondJump{Cond: "%c", True: "t", False: "f"}, []string{"%c"}},
	}
	buf := make([]string, 0, 8)
	for _, c := range cases {
		got := c.in.AppendUses(append(buf[:0], "%prefix"))
		if !slices.Equal(got, append([]string{"%prefix"}, c.want...)) {
			t.Errorf("%T: AppendUses = %q, want %q after the prefix", c.in, got, c.want)
		}
		if n := testing.AllocsPerRun(10, func() { buf = c.in.AppendUses(buf[:0]) }); n != 0 {
			t.Errorf("%T: AppendUses into a buffer with room allocates %v times", c.in, n)
		}
	}
}
