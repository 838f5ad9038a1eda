package ir

// Layout describes how a type maps onto memory slots in the two models used
// by this repository:
//
//   - the runtime model (interpreter): arrays are fully expanded, every
//     scalar gets its own slot;
//   - the analysis model (points-to objects): arrays are collapsed to a
//     single element (array-index insensitivity, as in the paper's baseline
//     SVF/Andersen configuration), and structs flatten recursively.
//
// RToA maps a runtime slot to its analysis slot, which is how runtime
// monitors and dynamic points-to observation relate concrete addresses to
// analysis field objects. Every type has one Layout (Type.Layout); a
// Layout is never modified once made.
type Layout struct {
	RuntimeSize  int
	AnalysisSize int
	RToA         []int
	// FieldRuntimeOff[k] / FieldAnalysisOff[k] give the slot offsets of
	// field k when the type is a struct.
	FieldRuntimeOff  []int
	FieldAnalysisOff []int
	// Paths[k] is analysis slot k's dotted path for diagnostics, e.g.
	// "ctx.f_send" or "buf[]"; "" for a scalar.
	Paths []string
}

// scalarLayout is the layout of every scalar type (int, pointers, fn) and
// of a struct without fields: one slot in both models.
var scalarLayout = &Layout{RuntimeSize: 1, AnalysisSize: 1, RToA: []int{0}, Paths: []string{""}}

func (s *StructType) Layout() *Layout {
	if len(s.Fields) == 0 {
		return scalarLayout
	}
	if s.layout != nil {
		return s.layout
	}
	l := &Layout{
		FieldRuntimeOff:  make([]int, len(s.Fields)),
		FieldAnalysisOff: make([]int, len(s.Fields)),
	}
	for k, f := range s.Fields {
		sub := f.Type.Layout()
		l.FieldRuntimeOff[k] = l.RuntimeSize
		l.FieldAnalysisOff[k] = l.AnalysisSize
		for _, a := range sub.RToA {
			l.RToA = append(l.RToA, l.AnalysisSize+a)
		}
		for _, p := range sub.Paths {
			l.Paths = append(l.Paths, joinPath(f.Name, p))
		}
		l.RuntimeSize += sub.RuntimeSize
		l.AnalysisSize += sub.AnalysisSize
	}
	s.layout = l
	return l
}

func (a *ArrayType) Layout() *Layout {
	if a.layout != nil {
		return a.layout
	}
	sub := a.Elem.Layout()
	// Arrays are index-insensitive for the analysis: a single element
	// stands for all of them.
	l := &Layout{AnalysisSize: sub.AnalysisSize, Paths: make([]string, len(sub.Paths))}
	for k, p := range sub.Paths {
		l.Paths[k] = joinPath("[]", p)
	}
	l.RuntimeSize = a.Len * sub.RuntimeSize
	l.RToA = make([]int, 0, l.RuntimeSize)
	for i := 0; i < a.Len; i++ {
		// every element maps onto the same collapsed analysis slots
		l.RToA = append(l.RToA, sub.RToA...)
	}
	if a.Len == 0 {
		l.RuntimeSize, l.RToA = 1, []int{0}
	}
	a.layout = l
	return l
}

// joinPath prefixes a component's slot path with the field name or "[]"
// that leads to it.
func joinPath(prefix, rel string) string {
	switch {
	case rel == "":
		return prefix
	case rel[0] == '[':
		return prefix + rel
	}
	return prefix + "." + rel
}
