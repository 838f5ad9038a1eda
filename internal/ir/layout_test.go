package ir_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/workload"
)

// The reference layout: the recursive computation every type ran on each
// query before a module laid its types out once. Type.Layout must agree
// with it field for field.

// refNumSlots is a value's runtime slot count: structs flatten
// recursively, arrays expand every element.
func refNumSlots(t ir.Type) int {
	switch t := t.(type) {
	case ir.IntType, *ir.PointerType, ir.FuncType:
		return 1
	case *ir.StructType:
		n := 0
		for _, f := range t.Fields {
			n += refNumSlots(f.Type)
		}
		if n == 0 {
			return 1
		}
		return n
	case *ir.ArrayType:
		return t.Len * refNumSlots(t.Elem)
	}
	panic(fmt.Sprintf("unknown type %T", t))
}

// refPaths returns one dotted path per analysis slot of t, collapsing
// arrays to one element.
func refPaths(t ir.Type, prefix string, out []string) []string {
	switch t := t.(type) {
	case ir.IntType, *ir.PointerType, ir.FuncType:
		return append(out, prefix)
	case *ir.StructType:
		if len(t.Fields) == 0 {
			return append(out, prefix)
		}
		for _, f := range t.Fields {
			p := f.Name
			if prefix != "" {
				p = prefix + "." + f.Name
			}
			out = refPaths(f.Type, p, out)
		}
		return out
	case *ir.ArrayType:
		return refPaths(t.Elem, prefix+"[]", out)
	}
	panic(fmt.Sprintf("unknown type %T", t))
}

func refLayout(t ir.Type) *ir.Layout {
	l := &ir.Layout{Paths: refPaths(t, "", nil)}
	l.AnalysisSize = len(l.Paths)
	switch t := t.(type) {
	case ir.IntType, *ir.PointerType, ir.FuncType:
		l.RuntimeSize = 1
		l.RToA = []int{0}
	case *ir.StructType:
		if len(t.Fields) == 0 {
			l.RuntimeSize = 1
			l.RToA = []int{0}
			return l
		}
		l.FieldRuntimeOff = make([]int, len(t.Fields))
		l.FieldAnalysisOff = make([]int, len(t.Fields))
		rOff, aOff := 0, 0
		for k, f := range t.Fields {
			l.FieldRuntimeOff[k] = rOff
			l.FieldAnalysisOff[k] = aOff
			sub := refLayout(f.Type)
			for _, a := range sub.RToA {
				l.RToA = append(l.RToA, aOff+a)
			}
			rOff += sub.RuntimeSize
			aOff += sub.AnalysisSize
		}
		l.RuntimeSize = rOff
	case *ir.ArrayType:
		sub := refLayout(t.Elem)
		l.RuntimeSize = t.Len * sub.RuntimeSize
		for i := 0; i < t.Len; i++ {
			l.RToA = append(l.RToA, sub.RToA...)
		}
		if t.Len == 0 {
			l.RuntimeSize = 1
			l.RToA = []int{0}
		}
	}
	return l
}

// checkLayout fails unless t's layout equals the reference computation.
func checkLayout(t *testing.T, ty ir.Type) {
	t.Helper()
	got, want := ty.Layout(), refLayout(ty)
	if got.RuntimeSize != want.RuntimeSize || got.AnalysisSize != want.AnalysisSize ||
		!slices.Equal(got.RToA, want.RToA) ||
		!slices.Equal(got.FieldRuntimeOff, want.FieldRuntimeOff) ||
		!slices.Equal(got.FieldAnalysisOff, want.FieldAnalysisOff) ||
		!slices.Equal(got.Paths, want.Paths) {
		t.Fatalf("%s: layout %+v, reference %+v", ty, got, want)
	}
}

func sslStruct(m *ir.Module) *ir.StructType {
	return &ir.StructType{
		Name: "ssl_context",
		Fields: []ir.Field{
			{Name: "f_send", Type: ir.Fn},
			{Name: "f_recv", Type: ir.Fn},
			{Name: "buf", Type: m.ArrayOf(ir.Int, 8)},
			{Name: "peer", Type: m.PointerTo(ir.Int)},
		},
	}
}

func TestNumSlots(t *testing.T) {
	m := ir.NewModule("t")
	st := sslStruct(m)
	cases := []struct {
		t    ir.Type
		want int
	}{
		{ir.Int, 1},
		{m.PointerTo(ir.Int), 1},
		{ir.Fn, 1},
		{st, 1 + 1 + 8 + 1},
		{m.ArrayOf(st, 3), 33},
		{&ir.StructType{Name: "empty"}, 1},
	}
	for _, c := range cases {
		if got := refNumSlots(c.t); got != c.want {
			t.Errorf("refNumSlots(%s) = %d, want %d", c.t, got, c.want)
		}
		if got := c.t.Layout().RuntimeSize; got != c.want {
			t.Errorf("%s: RuntimeSize = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestFlattenedFields(t *testing.T) {
	paths := sslStruct(ir.NewModule("t")).Layout().Paths
	// arrays collapse to a single slot for the analysis
	if !slices.Equal(paths, []string{"f_send", "f_recv", "buf[]", "peer"}) {
		t.Fatalf("paths = %q", paths)
	}
}

func TestFlattenedNestedStruct(t *testing.T) {
	m := ir.NewModule("t")
	inner := &ir.StructType{Name: "inner", Fields: []ir.Field{
		{Name: "a", Type: ir.Int},
		{Name: "fp", Type: ir.Fn},
	}}
	outer := &ir.StructType{Name: "outer", Fields: []ir.Field{
		{Name: "x", Type: m.PointerTo(ir.Int)},
		{Name: "in", Type: inner},
		{Name: "arr", Type: m.ArrayOf(inner, 2)},
	}}
	want := []string{"x", "in.a", "in.fp", "arr[].a", "arr[].fp"}
	if paths := outer.Layout().Paths; !slices.Equal(paths, want) {
		t.Errorf("nested paths = %q, want %q", paths, want)
	}
	checkLayout(t, outer)
}

func TestLayoutStruct(t *testing.T) {
	st := sslStruct(ir.NewModule("t"))
	l := st.Layout()
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
	checkLayout(t, st)
}

func TestLayoutArrayOfStructs(t *testing.T) {
	m := ir.NewModule("t")
	st := &ir.StructType{Name: "pair", Fields: []ir.Field{
		{Name: "p", Type: m.PointerTo(ir.Int)},
		{Name: "q", Type: m.PointerTo(ir.Int)},
	}}
	l := m.ArrayOf(st, 4).Layout()
	if l.RuntimeSize != 8 || l.AnalysisSize != 2 {
		t.Fatalf("sizes = %d/%d, want 8/2", l.RuntimeSize, l.AnalysisSize)
	}
	for i := 0; i < 4; i++ {
		if l.RToA[2*i] != 0 || l.RToA[2*i+1] != 1 {
			t.Errorf("element %d maps to %d/%d", i, l.RToA[2*i], l.RToA[2*i+1])
		}
	}
}

// TestTypeEqual: a module makes each pointer and array type once, so type
// equality within a module is ==; another module makes its own.
func TestTypeEqual(t *testing.T) {
	m := ir.NewModule("t")
	st := sslStruct(m)
	if m.PointerTo(ir.Int) != m.PointerTo(ir.Int) || m.PointerTo(st) != m.PointerTo(st) {
		t.Error("PointerTo returned two values for one type")
	}
	if ir.Type(m.PointerTo(ir.Int)) == ir.Type(m.PointerTo(m.PointerTo(ir.Int))) {
		t.Error("int* equals int**")
	}
	if ir.Type(ir.Int) == ir.Type(ir.Fn) {
		t.Error("int equals fn")
	}
	if m.ArrayOf(ir.Int, 3) != m.ArrayOf(ir.Int, 3) {
		t.Error("ArrayOf returned two values for one type")
	}
	if m.ArrayOf(ir.Int, 3) == m.ArrayOf(ir.Int, 4) {
		t.Error("different-length arrays equal")
	}
	if ir.NewModule("u").PointerTo(ir.Int) == m.PointerTo(ir.Int) {
		t.Error("two modules share a pointer type")
	}
}

// Property: runtime-to-analysis slot mapping is total and within bounds for
// randomly shaped nested types, and every layout equals the reference.
func TestQuickLayoutMapping(t *testing.T) {
	buildType := func(m *ir.Module, seed int64) ir.Type {
		r := rand.New(rand.NewSource(seed))
		var mk func(depth int) ir.Type
		mk = func(depth int) ir.Type {
			if depth >= 3 {
				return ir.Int
			}
			switch r.Intn(5) {
			case 0:
				return ir.Int
			case 1:
				return m.PointerTo(mk(depth + 1))
			case 2:
				return ir.Fn
			case 3:
				return m.ArrayOf(mk(depth+1), 1+r.Intn(5))
			default:
				n := 1 + r.Intn(4)
				st := &ir.StructType{Name: fmt.Sprintf("s%d_%d", seed, depth)}
				for i := 0; i < n; i++ {
					st.Fields = append(st.Fields, ir.Field{Name: fmt.Sprintf("f%d", i), Type: mk(depth + 1)})
				}
				return st
			}
		}
		return mk(0)
	}
	m := ir.NewModule("quick")
	for seed := int64(0); seed < 200; seed++ {
		ty := buildType(m, seed)
		checkLayout(t, ty)
		l := ty.Layout()
		if l.RuntimeSize != refNumSlots(ty) {
			t.Fatalf("seed %d: RuntimeSize %d != NumSlots %d for %s", seed, l.RuntimeSize, refNumSlots(ty), ty)
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
		if st, ok := ty.(*ir.StructType); ok && len(st.Fields) > 0 {
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

// moduleTypes returns every type a module's structs, globals, signatures
// and instructions name, with the types they are built from.
func moduleTypes(m *ir.Module) []ir.Type {
	seen := map[ir.Type]bool{}
	var out []ir.Type
	var add func(t ir.Type)
	add = func(t ir.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		out = append(out, t)
		switch t := t.(type) {
		case *ir.PointerType:
			add(t.Elem)
		case *ir.ArrayType:
			add(t.Elem)
		case *ir.StructType:
			for _, f := range t.Fields {
				add(f.Type)
			}
		}
	}
	for _, st := range m.Structs {
		add(st)
	}
	for _, g := range m.Globals {
		add(g.Type)
	}
	for _, f := range m.Funcs {
		for _, pt := range f.ParamTypes {
			add(pt)
		}
		add(f.RetType)
		f.Instrs(func(_ *ir.Block, in ir.Instr) {
			switch in := in.(type) {
			case *ir.Alloca:
				add(in.Ty)
			case *ir.Malloc:
				add(in.SizeOf)
			case *ir.Const:
				add(in.SizeOfType)
			case *ir.FieldAddr:
				add(in.Struct)
			case *ir.IndexAddr:
				add(in.Elem)
			}
		})
	}
	return out
}

// TestCanonicalTypes: on analyze-30k's program and the nine apps, a
// compiled module holds one value per type (as many distinct values as
// distinct type strings), and every type's precomputed layout equals the
// reference computation.
func TestCanonicalTypes(t *testing.T) {
	srcs := map[string]string{"scaled-1000": workload.ScaledProgram(1, 1000)}
	for _, app := range workload.Apps() {
		srcs[app.Name] = app.Source
	}
	for name, src := range srcs {
		m, err := minic.Compile(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		types := moduleTypes(m)
		strs := map[string]bool{}
		for _, ty := range types {
			strs[ty.String()] = true
			checkLayout(t, ty)
		}
		if len(types) != len(strs) {
			t.Errorf("%s: %d type values for %d type strings", name, len(types), len(strs))
		}
	}
}
