package pointsto

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/invariant"
	"repro/internal/ir"
)

// PtrRef names a top-level pointer (a register or return-value node).
type PtrRef struct {
	Fn  string
	Reg string // "" for the function's return node
}

// ObjRef names one element of a points-to set: an abstract object plus the
// analysis slot within it (0 for the base or single-slot objects).
type ObjRef struct {
	Obj  *Object
	Slot int
}

// Result is an immutable view over a finished Analysis. Nothing writes the
// analysis once its Result exists: a restore derives a new analysis and
// returns a new Result, so a Result can be shared and read concurrently.
type Result struct {
	a    *Analysis
	recs []invariant.Record // the invariants a assumes, derived once by the solve
}

func newResult(a *Analysis, recs []invariant.Record) *Result { return &Result{a: a, recs: recs} }

// Config returns the invariant configuration the result was computed under.
func (r *Result) Config() invariant.Config { return r.a.cfg }

// Module returns the analyzed module.
func (r *Result) Module() *ir.Module { return r.a.mod }

// Stats returns solver statistics.
func (r *Result) Stats() Stats { return r.a.stats }

// Invariants returns the likely invariants currently assumed by this
// analysis (empty for the baseline; shrinks after Restore calls). The solve
// derives the records once; every caller shares them and must not modify
// them.
func (r *Result) Invariants() []invariant.Record { return r.recs[:len(r.recs):len(r.recs)] }

// Objects returns all abstract objects, each at its IR number
// (ir.Module.Finalize).
func (r *Result) Objects() []*Object { return r.a.objects }

// ObjectByGlobal returns the abstract object of a global, or nil.
func (r *Result) ObjectByGlobal(name string) *Object {
	if g := r.a.mod.Global(name); g != nil {
		return r.a.objects[g.Obj]
	}
	return nil
}

// ObjSlot is one element of a canonical points-to set at the id level: an
// object's index in Objects() and the analysis slot within it (0 for the
// base, single-slot objects, and objects that lost field sensitivity).
type ObjSlot struct {
	Obj, Slot int32
}

// AppendSet appends to dst the canonical points-to set of node: the
// (object, slot) keys of its representative's set, sorted and deduplicated.
// Elements are always concrete object-slot node ids; slots of objects that
// lost field sensitivity collapse onto slot 0. Representative lookups use
// the read-only find so a finished Result can serve concurrent readers.
//
// Serialization must never depend on set representation: this reads the set
// only through ForEach, so inline and bit-vector sets yield the same keys,
// and callers never alias solver storage. newObject numbers each object's
// slot nodes contiguously, in object index order, so ForEach's ascending ids
// arrive in key order and the slots a collapse merges arrive adjacent.
func (r *Result) AppendSet(dst []ObjSlot, node int) []ObjSlot {
	a := r.a
	set := a.state[a.findRead(node)].pts
	if set == nil {
		return dst
	}
	start := len(dst)
	set.ForEach(func(o int) bool {
		nn := &a.nodes[o]
		if nn.kind != nodeObj {
			return true
		}
		k := ObjSlot{nn.obj, nn.slot}
		if a.objects[nn.obj].Insens {
			k.Slot = 0
		}
		if len(dst) == start || dst[len(dst)-1] != k {
			dst = append(dst, k)
		}
		return true
	})
	return dst
}

// canonicalRefs returns node's canonical points-to set as ObjRefs.
func (r *Result) canonicalRefs(node int) []ObjRef {
	keys := r.AppendSet(nil, node)
	if len(keys) == 0 {
		return nil
	}
	out := make([]ObjRef, len(keys))
	for i, k := range keys {
		out[i] = ObjRef{Obj: r.a.objects[k.Obj], Slot: int(k.Slot)}
	}
	return out
}

// PointsTo returns the canonical points-to set of register reg in function
// fn.
func (r *Result) PointsTo(fn, reg string) []ObjRef {
	id, ok := r.a.regNodes[regKey{fn, reg}]
	if !ok {
		return nil
	}
	return r.canonicalRefs(id)
}

// SlotPointsTo returns the points-to set stored in slot of object obj (what
// a load through that field would yield).
func (r *Result) SlotPointsTo(obj *Object, slot int) []ObjRef {
	if obj.Insens || slot >= obj.Size {
		slot = 0
	}
	return r.canonicalRefs(obj.NodeBase + slot)
}

// TopLevelPointers enumerates every register and return-value node with a
// non-empty points-to set, in deterministic order. This is the population
// whose set sizes Table 3 reports.
func (r *Result) TopLevelPointers() []PtrRef {
	var out []PtrRef
	var keys []ObjSlot
	nonEmpty := make([]int8, len(r.a.nodes)) // per representative: 0 unknown, 1 empty, 2 non-empty
	for _, p := range r.PointerReps() {
		if nonEmpty[p.Rep] == 0 {
			nonEmpty[p.Rep] = 1
			if keys = r.AppendSet(keys[:0], p.Rep); len(keys) > 0 {
				nonEmpty[p.Rep] = 2
			}
		}
		if nonEmpty[p.Rep] == 2 {
			out = append(out, p.PtrRef)
		}
	}
	return out
}

// PtrRep pairs a top-level pointer with its solver representative node.
// Pointers with equal Rep share one points-to set.
type PtrRep struct {
	PtrRef
	Rep int
}

// PointerReps lists every register and return-value node, empty sets
// included, with its representative, sorted by (Fn, Reg). A caller that
// renders many pointers' sets can render each representative once: all
// pointers sharing it have the same PointsTo/ReturnPointsTo answer. Like
// every Result accessor it is read-only, so concurrent readers may share
// the Result. The sort moves node ids, not names.
func (r *Result) PointerReps() []PtrRep {
	a := r.a
	ids := make([]int32, 0, len(a.regNodes)+len(a.retNodes))
	for id := range a.nodes {
		if k := a.nodes[id].kind; k == nodeReg || k == nodeRet {
			ids = append(ids, int32(id))
		}
	}
	slices.SortFunc(ids, func(x, y int32) int {
		p, q := &a.nodes[x], &a.nodes[y]
		return cmp.Or(strings.Compare(p.fn, q.fn), strings.Compare(p.reg, q.reg))
	})
	out := make([]PtrRep, len(ids))
	for i, id := range ids {
		n := &a.nodes[id]
		out[i] = PtrRep{PtrRef{Fn: n.fn, Reg: n.reg}, a.findRead(int(id))}
	}
	return out
}

// PointerRepsAlong returns r's PointerReps given like, the PointerReps of
// another analysis of the same module (such as the one r derives from).
// When r holds exactly like's pointers it keeps like's order and looks each
// pointer's node up instead of sorting; otherwise it sorts its own.
func (r *Result) PointerRepsAlong(like []PtrRep) []PtrRep {
	a := r.a
	if len(like) != len(a.regNodes)+len(a.retNodes) {
		return r.PointerReps()
	}
	out := make([]PtrRep, len(like))
	for i, p := range like {
		id, ok := a.ptrNode(p.PtrRef)
		if !ok {
			return r.PointerReps()
		}
		out[i] = PtrRep{p.PtrRef, a.findRead(id)}
	}
	return out
}

// ptrNode returns the node of a top-level pointer.
func (a *Analysis) ptrNode(p PtrRef) (int, bool) {
	if p.Reg == "" {
		id, ok := a.retNodes[p.Fn]
		return id, ok
	}
	id, ok := a.regNodes[regKey{p.Fn, p.Reg}]
	return id, ok
}

// Less orders pointers by function, then register; a function's return
// node (Reg "") sorts before its registers.
func (p PtrRef) Less(q PtrRef) bool {
	if p.Fn != q.Fn {
		return p.Fn < q.Fn
	}
	return p.Reg < q.Reg
}

// ReturnPointsTo returns the canonical points-to set of fn's return-value
// node (the PtrRef with an empty Reg), or nil if fn has none.
func (r *Result) ReturnPointsTo(fn string) []ObjRef {
	id, ok := r.a.retNodes[fn]
	if !ok {
		return nil
	}
	return r.canonicalRefs(id)
}

// SizeOf returns the canonical points-to set size of a PtrRef.
func (r *Result) SizeOf(p PtrRef) int {
	id, ok := r.a.ptrNode(p)
	if !ok {
		return 0
	}
	var buf [16]ObjSlot
	return len(r.AppendSet(buf[:0], id))
}

// ICallSites returns the instruction IDs of all indirect callsites, sorted.
func (r *Result) ICallSites() []int {
	var out []int
	for _, s := range r.a.icallSites {
		out = append(out, int(s.site))
	}
	return out
}

// CallTargets returns the function names this analysis permits at the given
// indirect callsite, sorted. This is the CFI target set for the site.
func (r *Result) CallTargets(site int) []string {
	sites := r.a.icallSites
	i, ok := slices.BinarySearchFunc(sites, site, func(s *icallSite, site int) int { return cmp.Compare(int(s.site), site) })
	if !ok {
		return nil
	}
	var out []string
	var buf [16]ObjSlot
	for _, k := range r.AppendSet(buf[:0], int(sites[i].fptr)) {
		if obj := r.a.objects[k.Obj]; obj.Kind == ObjFunc {
			out = append(out, obj.Name)
		}
	}
	slices.Sort(out)
	return out
}

// Provenance returns up to five recorded derivations explaining how object
// slot node obj entered pts(node of fn:reg); available only when a tracer
// was installed before Solve.
func (r *Result) Provenance(fn, reg string, obj *Object, slot int) []Origin {
	id, ok := r.a.regNodes[regKey{fn, reg}]
	if !ok || r.a.provs == nil {
		return nil
	}
	entries := r.a.provs[provKey{int32(r.a.findRead(id)), int32(obj.NodeBase + slot)}]
	var out []Origin
	for _, e := range entries {
		out = append(out, Origin{Site: int(e.site), Trigger: int(e.srcNode)})
	}
	return out
}

// Backtrack walks derivation provenance from (fn, reg, obj) toward primitive
// constraints, up to five levels (§4.1), returning the constraint sites
// encountered (most recent derivation first).
func (r *Result) Backtrack(fn, reg string, obj *Object) []int {
	id, ok := r.a.regNodes[regKey{fn, reg}]
	if !ok {
		return nil
	}
	return r.a.backtrack(id, obj.NodeBase, 5)
}

// NodeCount returns the number of constraint-graph nodes (diagnostics).
func (r *Result) NodeCount() int { return len(r.a.nodes) }

// DescribeObject renders an ObjRef for reports.
func (ref ObjRef) String() string {
	label := ref.Obj.Label()
	if ref.Obj.Type == nil || ref.Obj.Size == 1 || ref.Slot == 0 {
		return label
	}
	flat := ir.FlattenedFields(ref.Obj.Type)
	if ref.Slot < len(flat) {
		return label + "." + flat[ref.Slot].Path
	}
	return label
}
