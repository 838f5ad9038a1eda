// Package interp executes KIR modules. It provides the runtime substrate the
// paper obtains from native execution of hardened binaries: concrete memory
// with per-object bounds, indirect-call dispatch guarded by CFI checks,
// runtime-monitor hook points, branch coverage accounting, and dynamic
// points-to observation (the "Runtime Observed" series of Figure 1).
package interp

import (
	"fmt"

	"repro/internal/ir"
)

// ValueKind discriminates runtime values.
type ValueKind uint8

// Runtime value kinds.
const (
	KindInt ValueKind = iota // integer (0 doubles as the null pointer)
	KindPtr                  // pointer to a slot of a runtime object
	KindFn                   // function pointer
)

// Value is a runtime value: an integer, a pointer (object + runtime slot
// offset), or a function pointer. A function pointer's Obj is the function's
// object, which has no slots and names the function; its Off is the
// function's index in the program that made the value (-1 for FnVal), so an
// indirect call resolves its callee without a name lookup. A Value is 32
// bytes and holds no string, so register writes stay cheap.
type Value struct {
	Kind ValueKind
	Int  int64
	Obj  *RObj
	Off  int
}

// IntVal makes an integer value.
func IntVal(v int64) Value { return Value{Kind: KindInt, Int: v} }

// PtrVal makes a pointer value.
func PtrVal(obj *RObj, off int) Value { return Value{Kind: KindPtr, Obj: obj, Off: off} }

// FnVal makes a function-pointer value to the named function, outside any
// program.
func FnVal(name string) Value { return Value{Kind: KindFn, Obj: funcObj(-1, name), Off: -1} }

// funcObj makes the object a function pointer to the named function refers
// to; id is the function's IR object number.
func funcObj(id int, name string) *RObj {
	return &RObj{objInfo: &objInfo{ID: id, key: name + "()", fn: name}}
}

// fnName returns the name of the function a function pointer refers to.
func (v Value) fnName() string { return v.Obj.fn }

// IsNull reports whether v is the null pointer (integer zero).
func (v Value) IsNull() bool { return v.Kind == KindInt && v.Int == 0 }

// Truthy implements condition evaluation: non-zero integers and all pointers
// are true.
func (v Value) Truthy() bool {
	switch v.Kind {
	case KindInt:
		return v.Int != 0
	default:
		return true
	}
}

// Equal implements == on runtime values. Pointers compare by object+offset;
// a pointer equals an integer only if the integer is 0 (null) — and then the
// comparison is false because a valid pointer is never null.
func (v Value) Equal(w Value) bool {
	if v.Kind != w.Kind {
		return false // includes ptr == 0 (null): always false for live pointers
	}
	switch v.Kind {
	case KindInt:
		return v.Int == w.Int
	case KindPtr:
		return v.Obj == w.Obj && v.Off == w.Off
	default:
		return v.Obj == w.Obj || v.fnName() == w.fnName()
	}
}

func (v Value) String() string {
	switch v.Kind {
	case KindInt:
		return fmt.Sprintf("%d", v.Int)
	case KindPtr:
		return fmt.Sprintf("&%s+%d", v.Obj.Label(), v.Off)
	default:
		return "&" + v.fnName()
	}
}

// RObj is a runtime memory object: its slots, and what it is.
type RObj struct {
	*objInfo
	Slots []Value
}

// objInfo is what a runtime object is. It is fixed when a program is
// compiled, one per global, allocation site and function, and every object
// made there shares it read-only. ID is the abstract object's IR number
// (ir.Module.Finalize), which is also its index in the analysis's
// pointsto.Result.Objects; -1 marks an object made outside a program.
type objInfo struct {
	ID     int
	layout *ir.Layout // nil for unknown-type heap objects
	key    string     // the identity's text: @g, f(), stack#N or heap#N
	name   string     // diagnostics, when they say more than key (an alloca's fn/var)
	fn     string     // a function object's function name
}

// NewObj makes a standalone object with IR object number id, identity text
// key, and n zeroed, untyped slots, like the objects an unknown-type malloc
// makes.
func NewObj(id int, key string, n int) *RObj {
	return &RObj{objInfo: &objInfo{ID: id, key: key}, Slots: make([]Value, n)}
}

// Key renders the object's abstract identity: @g for a global, f() for a
// function, stack#N or heap#N for the objects allocation site N makes.
func (o *RObj) Key() string { return o.key }

// Label renders the object for error messages.
func (o *RObj) Label() string {
	if o.name != "" {
		return o.name
	}
	return o.key
}

// AnalysisSlot maps a runtime slot offset to the analysis slot it belongs to
// (arrays collapse). Unknown-type objects map everything to slot 0.
func (o *RObj) AnalysisSlot(off int) int {
	if o.layout == nil || off < 0 || off >= len(o.layout.RToA) {
		return 0
	}
	return o.layout.RToA[off]
}
