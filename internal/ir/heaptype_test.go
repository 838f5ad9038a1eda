package ir

import "testing"

// buildWrapperModule constructs:
//
//	func alloc(n int) -> int* { h = malloc n ; ret h }
//	func main() { a = const sizeof(S) ; x = call alloc(a) ; ... }
func buildWrapperModule(t *testing.T, callerConsts []*Const) *Module {
	t.Helper()
	m := NewModule("wrap")

	ab := NewFuncBuilder("alloc", []string{"%n"}, []Type{Int}, m.PointerTo(Int))
	h := ab.Temp()
	ab.Emit(&Malloc{Dest: h, Size: "%n"})
	ab.Ret(h)
	m.AddFunc(ab.F)

	b := NewFuncBuilder("main", nil, nil, Int)
	for _, c := range callerConsts {
		c.Dest = b.Temp()
		b.Emit(c)
		x := b.Temp()
		b.Emit(&Call{Dest: x, Callee: "alloc", Args: []string{c.Dest}})
	}
	b.Ret(b.Const(0))
	m.AddFunc(b.F)
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	return m
}

func mallocIn(m *Module, fn string) *Malloc {
	var out *Malloc
	m.Func(fn).Instrs(func(_ *Block, in Instr) {
		if mal, ok := in.(*Malloc); ok {
			out = mal
		}
	})
	return out
}

func TestPropagateHeapTypesThroughWrapper(t *testing.T) {
	st := &StructType{Name: "sess", Fields: []Field{{Name: "a", Type: Int}, {Name: "fp", Type: Fn}}}
	m := buildWrapperModule(t, []*Const{
		{Val: int64(st.Layout().RuntimeSize), SizeOfType: st},
		{Val: int64(st.Layout().RuntimeSize), SizeOfType: st},
	})
	PropagateHeapTypes(m)
	mal := mallocIn(m, "alloc")
	if mal.SizeOf == nil || BaseName(mal.SizeOf) != "sess" {
		t.Fatalf("wrapper malloc type = %v, want sess", mal.SizeOf)
	}
}

func TestPropagateHeapTypesMixedCallersStayUnknown(t *testing.T) {
	s1 := &StructType{Name: "a1", Fields: []Field{{Name: "x", Type: Int}}}
	s2 := &StructType{Name: "a2", Fields: []Field{{Name: "y", Type: Fn}}}
	m := buildWrapperModule(t, []*Const{
		{Val: int64(s1.Layout().RuntimeSize), SizeOfType: s1},
		{Val: int64(s2.Layout().RuntimeSize), SizeOfType: s2},
	})
	PropagateHeapTypes(m)
	if mal := mallocIn(m, "alloc"); mal.SizeOf != nil {
		t.Fatalf("mixed-type wrapper got typed: %v", mal.SizeOf)
	}
}

func TestPropagateHeapTypesPlainSizeStaysUnknown(t *testing.T) {
	m := buildWrapperModule(t, []*Const{{Val: 64}}) // no sizeof metadata
	PropagateHeapTypes(m)
	if mal := mallocIn(m, "alloc"); mal.SizeOf != nil {
		t.Fatalf("untyped size got typed: %v", mal.SizeOf)
	}
}

func TestPropagateHeapTypesAddressTakenWrapperStaysUnknown(t *testing.T) {
	st := &StructType{Name: "s", Fields: []Field{{Name: "x", Type: Int}}}
	m := buildWrapperModule(t, []*Const{{Val: int64(st.Layout().RuntimeSize), SizeOfType: st}})
	// Take the wrapper's address: indirect callers are invisible, so the
	// propagation must refuse.
	mainF := m.Func("main")
	entry := mainF.Entry()
	af := &AddrFunc{Dest: "%taken", Func: "alloc"}
	entry.Instrs = append([]Instr{af}, entry.Instrs...)
	m2 := NewModule("rebuilt")
	m2.Funcs = m.Funcs
	m2.Globals = m.Globals
	if err := m2.Finalize(); err != nil {
		t.Fatal(err)
	}
	PropagateHeapTypes(m2)
	if mal := mallocIn(m2, "alloc"); mal.SizeOf != nil {
		t.Fatalf("address-taken wrapper got typed: %v", mal.SizeOf)
	}
}

func TestPropagateHeapTypesDirectConst(t *testing.T) {
	st := &StructType{Name: "d", Fields: []Field{{Name: "x", Type: Int}}}
	m := NewModule("direct")
	b := NewFuncBuilder("main", nil, nil, Int)
	c := b.Temp()
	b.Emit(&Const{Dest: c, Val: 1, SizeOfType: st})
	cp := b.Temp()
	b.Emit(&Copy{Dest: cp, Src: c})
	h := b.Temp()
	b.Emit(&Malloc{Dest: h, Size: cp})
	b.Ret(b.Const(0))
	m.AddFunc(b.F)
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	PropagateHeapTypes(m)
	if mal := mallocIn(m, "main"); mal.SizeOf == nil || BaseName(mal.SizeOf) != "d" {
		t.Fatalf("copy-chained sizeof not recovered: %v", mallocIn(m, "main").SizeOf)
	}
}

// TestPropagateHeapTypesLastDefinitionWins: a register defined twice
// resolves through its last definition in block order, even when the first
// one would resolve and the def map is built only once resolution needs it.
func TestPropagateHeapTypesLastDefinitionWins(t *testing.T) {
	first := &StructType{Name: "first", Fields: []Field{{Name: "x", Type: Int}}}
	last := &StructType{Name: "last", Fields: []Field{{Name: "y", Type: Fn}}}
	m := NewModule("redef")
	b := NewFuncBuilder("main", nil, nil, Int)
	b.Emit(&Const{Dest: "%n", Val: 1, SizeOfType: first})
	b.NewBlockLinked("next")
	b.Emit(&Const{Dest: "%n", Val: 1, SizeOfType: last})
	h := b.Temp()
	b.Emit(&Malloc{Dest: h, Size: "%n"})
	b.Ret(b.Const(0))
	m.AddFunc(b.F)
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	PropagateHeapTypes(m)
	if mal := mallocIn(m, "main"); mal.SizeOf == nil || BaseName(mal.SizeOf) != "last" {
		t.Fatalf("redefined size register typed %v, want last", mal.SizeOf)
	}
}
