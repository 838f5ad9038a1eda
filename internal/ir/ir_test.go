package ir

import (
	"slices"
	"strings"
	"testing"
)

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
	q := b.Alloca("q", m.PointerTo(Int))
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
	b := NewFuncBuilder("f", []string{"%p"}, []Type{m.PointerTo(st)}, nil)
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
	b := NewFuncBuilder("f", []string{"%p"}, []Type{&PointerType{Elem: Int}}, nil)
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

// TestBuilderReuseAndFinish: one builder builds two functions in turn.
// Finish leaves each function's blocks in one instruction store, every block
// a full-capacity sub-slice of it, so appending to a finished block leaves
// its neighbour alone; building the second function through the same
// builder leaves the first intact.
func TestBuilderReuseAndFinish(t *testing.T) {
	b := NewFuncBuilder("f", nil, nil, Int)
	c := b.Const(1)
	entry := b.Cur()
	b.NewBlock("then")
	b.Ret(c)
	b.SetBlock(entry)
	b.Jump("then") // a block revisited for its terminator
	f := b.Finish()
	want := "entry: %t1 = const 1; jmp then | then: ret %t1"
	got := func(f *Function) string {
		var parts []string
		for _, blk := range f.Blocks {
			var ins []string
			for _, in := range blk.Instrs {
				ins = append(ins, in.String())
			}
			parts = append(parts, blk.Name+": "+strings.Join(ins, "; "))
		}
		return strings.Join(parts, " | ")
	}
	if s := got(f); s != want {
		t.Fatalf("finished f = %q, want %q", s, want)
	}
	b.Start("g", nil, nil, nil)
	b.NewBlock("then")
	b.Emit(&Ret{})
	b.SetBlock(b.F.Blocks[0])
	b.Jump("then")
	g := b.Finish()
	if s := got(f); s != want {
		t.Errorf("after building g, f = %q, want %q", s, want)
	}
	if s := got(g); s != "entry: jmp then | then: ret" {
		t.Errorf("g = %q", s)
	}
	for _, blk := range f.Blocks {
		if len(blk.Instrs) != cap(blk.Instrs) {
			t.Errorf("block %s: len %d, cap %d", blk.Name, len(blk.Instrs), cap(blk.Instrs))
		}
	}
	f.Blocks[0].Instrs = append(f.Blocks[0].Instrs, &Ret{})
	if s := f.Blocks[1].Instrs[0].String(); s != "ret %t1" {
		t.Errorf("appending to entry overwrote then's first instruction: %q", s)
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
