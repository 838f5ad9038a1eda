// Package ir defines KIR, a small typed intermediate representation modeled
// after the subset of LLVM IR that inclusion-based pointer analysis consumes:
// address-taken objects (globals, stack allocations, heap allocations,
// functions), loads, stores, copies, field addressing, arbitrary pointer
// arithmetic, and direct/indirect calls.
//
// KIR programs are produced by the minic front-end (or constructed directly)
// and consumed by the constraint builder, the solver, and the interpreter.
package ir

import (
	"fmt"
	"strings"
)

// Type is the interface implemented by all KIR types. A module holds one
// value per type (Module.PointerTo, Module.ArrayOf; structs by name), so
// two types of one module are equal exactly when they are ==.
type Type interface {
	String() string
	// Layout returns the type's slot layout. A struct or array type lays
	// itself out on first use; Module.Finalize lays out every type of the
	// module, so afterwards Layout only reads.
	Layout() *Layout
	isType()
}

// IntType is the sole scalar type (covers C's int/char/void in MiniC).
type IntType struct{}

func (IntType) isType()         {}
func (IntType) String() string  { return "int" }
func (IntType) Layout() *Layout { return scalarLayout }

// Int is the canonical IntType instance.
var Int = IntType{}

// PointerType is a pointer to Elem. Make one with Module.PointerTo.
type PointerType struct {
	Elem Type
}

func (*PointerType) isType()         {}
func (*PointerType) Layout() *Layout { return scalarLayout }

func (p *PointerType) String() string { return p.Elem.String() + "*" }

// FuncType is the type of a function pointer. KIR function pointers are
// signature-erased, matching the paper's points-to-based (not type-based) CFI.
type FuncType struct{}

func (FuncType) isType()         {}
func (FuncType) String() string  { return "fn" }
func (FuncType) Layout() *Layout { return scalarLayout }

// Fn is the canonical FuncType instance.
var Fn = FuncType{}

// Field is a named member of a struct type.
type Field struct {
	Name string
	Type Type
}

// StructType is a named aggregate.
type StructType struct {
	Name   string
	Fields []Field
	layout *Layout
}

func (*StructType) isType() {}

func (s *StructType) String() string { return "struct " + s.Name }

// FieldIndex returns the index of the named field, or -1.
func (s *StructType) FieldIndex(name string) int {
	for i, f := range s.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// ArrayType is a fixed-length array of Elem. Make one with Module.ArrayOf.
type ArrayType struct {
	Elem   Type
	Len    int
	layout *Layout
}

func (*ArrayType) isType() {}

func (a *ArrayType) String() string { return fmt.Sprintf("%s[%d]", a.Elem, a.Len) }

// IsPointerLike reports whether values of t can hold an address (pointer or
// function pointer).
func IsPointerLike(t Type) bool {
	switch t.(type) {
	case *PointerType, FuncType:
		return true
	}
	return false
}

// IsStruct reports whether t is a (non-array) struct type.
func IsStruct(t Type) bool {
	_, ok := t.(*StructType)
	return ok
}

// IsArray reports whether t is an array type.
func IsArray(t Type) bool {
	_, ok := t.(*ArrayType)
	return ok
}

// BaseName renders a type for terse diagnostics ("plugin", "int*", ...).
func BaseName(t Type) string {
	if s, ok := t.(*StructType); ok {
		return s.Name
	}
	return t.String()
}

// typeList renders parameter lists.
func typeList(ts []Type) string {
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return strings.Join(parts, ", ")
}
