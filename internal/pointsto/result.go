package pointsto

import (
	"sort"

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
	a *Analysis
}

func newResult(a *Analysis) *Result { return &Result{a: a} }

// Config returns the invariant configuration the result was computed under.
func (r *Result) Config() invariant.Config { return r.a.cfg }

// Module returns the analyzed module.
func (r *Result) Module() *ir.Module { return r.a.mod }

// Stats returns solver statistics.
func (r *Result) Stats() Stats { return r.a.stats }

// Invariants returns the likely invariants currently assumed by this
// analysis (empty for the baseline; shrinks after Restore calls).
func (r *Result) Invariants() []invariant.Record { return r.a.invariantRecords() }

// Objects returns all abstract objects in deterministic order.
func (r *Result) Objects() []*Object { return r.a.objects }

// ObjectBySite returns the abstract object allocated at instruction id
// (alloca or malloc sites), or nil.
func (r *Result) ObjectBySite(id int) *Object { return r.a.objBySite[id] }

// ObjectByGlobal returns the abstract object of a global, or nil.
func (r *Result) ObjectByGlobal(name string) *Object { return r.a.objByGlobal[name] }

// ObjectByFunc returns the abstract object of a function, or nil.
func (r *Result) ObjectByFunc(name string) *Object { return r.a.objByFunc[name] }

// canonicalRefs converts a raw points-to set into deduplicated ObjRefs.
// Elements are always concrete object-slot node ids; slots of objects that
// lost field sensitivity collapse onto slot 0. Representative lookups use
// the read-only find so a finished Result can serve concurrent readers.
//
// Serialization must never depend on set representation: this reads the set
// only through ForEach and builds fresh, independently sorted output, so
// inline and bit-vector sets render identically and callers never alias
// solver storage.
func (r *Result) canonicalRefs(ptsNode int) []ObjRef {
	a := r.a
	n := a.findRead(ptsNode)
	if a.pts[n] == nil {
		return nil
	}
	seen := map[int64]bool{}
	var out []ObjRef
	a.pts[n].ForEach(func(o int) bool {
		nn := a.nodes[o]
		if nn.kind != nodeObj {
			return true
		}
		obj := a.objects[nn.obj]
		slot := int(nn.slot)
		if obj.Insens {
			slot = 0
		}
		key := int64(obj.Index)<<32 | int64(slot)
		if seen[key] {
			return true
		}
		seen[key] = true
		out = append(out, ObjRef{Obj: obj, Slot: slot})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Obj.Index != out[j].Obj.Index {
			return out[i].Obj.Index < out[j].Obj.Index
		}
		return out[i].Slot < out[j].Slot
	})
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
	nonEmpty := map[int]bool{}
	for _, p := range r.PointerReps() {
		ne, ok := nonEmpty[p.Rep]
		if !ok {
			ne = len(r.canonicalRefs(p.Rep)) > 0
			nonEmpty[p.Rep] = ne
		}
		if ne {
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
// the Result.
func (r *Result) PointerReps() []PtrRep {
	a := r.a
	out := make([]PtrRep, 0, len(a.regNodes)+len(a.retNodes))
	for k, id := range a.regNodes {
		out = append(out, PtrRep{PtrRef{Fn: k.fn, Reg: k.reg}, a.findRead(id)})
	}
	for fn, id := range a.retNodes {
		out = append(out, PtrRep{PtrRef{Fn: fn}, a.findRead(id)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PtrRef.Less(out[j].PtrRef) })
	return out
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
	if p.Reg == "" {
		id, ok := r.a.retNodes[p.Fn]
		if !ok {
			return 0
		}
		return len(r.canonicalRefs(id))
	}
	return len(r.PointsTo(p.Fn, p.Reg))
}

// ICallSites returns the instruction IDs of all indirect callsites.
func (r *Result) ICallSites() []int {
	var out []int
	for _, s := range r.a.icallSites {
		out = append(out, int(s.site))
	}
	sort.Ints(out)
	return out
}

// CallTargets returns the function names this analysis permits at the given
// indirect callsite, sorted. This is the CFI target set for the site.
func (r *Result) CallTargets(site int) []string {
	for _, s := range r.a.icallSites {
		if int(s.site) != site {
			continue
		}
		var out []string
		for _, ref := range r.canonicalRefs(int(s.fptr)) {
			if ref.Obj.Kind == ObjFunc {
				out = append(out, ref.Obj.Name)
			}
		}
		sort.Strings(out)
		return out
	}
	return nil
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
	a := r.a
	if a.provs == nil {
		return nil
	}
	id, ok := a.regNodes[regKey{fn, reg}]
	if !ok {
		return nil
	}
	var sites []int
	cur := int32(a.findRead(id))
	target := int32(obj.NodeBase)
	for level := 0; level < 5; level++ {
		entries := a.provs[provKey{cur, target}]
		if len(entries) == 0 {
			break
		}
		e := entries[len(entries)-1]
		sites = append(sites, int(e.site))
		if e.srcNode < 0 {
			break // primitive Addr-Of
		}
		cur = int32(a.findRead(int(e.srcNode)))
	}
	return sites
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
