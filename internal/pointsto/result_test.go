package pointsto

import (
	"context"
	"slices"
	"testing"

	"repro/internal/invariant"
	"repro/internal/ir"
)

// referenceSet is the canonical set AppendSet must return, derived the
// long way: every object element of node's set, collapsed, deduplicated in
// a map and sorted.
func referenceSet(r *Result, node int) []ObjSlot {
	a := r.a
	seen := map[ObjSlot]bool{}
	var out []ObjSlot
	set := a.state[a.findRead(node)].pts
	if set == nil {
		return nil
	}
	for _, o := range set.Elements() {
		if a.nodes[o].kind != nodeObj {
			continue
		}
		k := ObjSlot{a.nodes[o].obj, a.nodes[o].slot}
		if a.objects[k.Obj].Insens {
			k.Slot = 0
		}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	slices.SortFunc(out, func(x, y ObjSlot) int {
		if x.Obj != y.Obj {
			return int(x.Obj - y.Obj)
		}
		return int(x.Slot - y.Slot)
	})
	return out
}

// TestAppendSetMatchesReference checks AppendSet against referenceSet on
// every node of the oracle corpus, under every configuration and its
// derived fallback. AppendSet relies on object slot nodes being numbered in
// (object, slot) order; a change to that numbering fails here.
func TestAppendSetMatchesReference(t *testing.T) {
	for name, m := range oracleModules(t) {
		for _, cfg := range invariant.Ablations() {
			opt := New(m, cfg).Solve()
			fb, err := opt.RestoreAll(context.Background(), Budget{})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*Result{opt, fb} {
				var keys []ObjSlot
				for node := range r.a.nodes {
					keys = r.AppendSet(keys[:0], node)
					if want := referenceSet(r, node); !slices.Equal(keys, want) {
						t.Fatalf("%s/%s node %d: AppendSet %v, reference %v", name, oracleConfigs[cfg], node, keys, want)
					}
				}
			}
		}
	}
}

// TestPointerRepsAlong: reusing another analysis's order gives what sorting
// gives, whether the two hold the same pointers (a derived fallback) or not
// (another module's analysis, which falls back to sorting).
func TestPointerRepsAlong(t *testing.T) {
	mods := oracleModules(t)
	other := New(mods["fig/figure2"], invariant.Config{}).Solve().PointerReps()
	for name, m := range mods {
		opt := New(m, invariant.All()).Solve()
		fb, err := opt.RestoreAll(context.Background(), Budget{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fb.PointerRepsAlong(opt.PointerReps()), fb.PointerReps(); !slices.Equal(got, want) {
			t.Fatalf("%s: along the optimistic order %v, sorted %v", name, got, want)
		}
		if name != "fig/figure2" {
			if got, want := fb.PointerRepsAlong(other), fb.PointerReps(); !slices.Equal(got, want) {
				t.Fatalf("%s: along another module's order %v, sorted %v", name, got, want)
			}
		}
	}
}

type nopTracer struct{}

func (nopTracer) Growth(GrowthEvent) {}
func (nopTracer) Cycle(int, bool)    {}

// TestProvenance: with a tracer installed, Provenance explains every
// element of every register's points-to set with at most five origins. An
// Addr-Of origin names the instruction that takes the object's address
// into a register sharing the pointer's representative; a derived one
// names a constraint instruction of the module (0 for a copy edge) and a
// node of the graph. RestoreAll leaves the receiver's answers as they were,
// and its result answers every query as the receiver did wherever its
// re-solve left the pointer's representative in place: provenance is kept
// per representative, so a pointer whose node a restored cycle merges away
// reads the survivor's entries.
func TestProvenance(t *testing.T) {
	for name, m := range oracleModules(t) {
		a := New(m, invariant.All())
		a.SetTracer(nopTracer{})
		r := a.Solve()
		type query struct {
			p   PtrRef
			ref ObjRef
		}
		var queries []query
		want := map[query][]Origin{}
		for _, p := range r.TopLevelPointers() {
			if p.Reg == "" {
				continue // Provenance names registers only
			}
			id := r.a.regNodes[regKey{p.Fn, p.Reg}]
			for _, ref := range r.PointsTo(p.Fn, p.Reg) {
				q := query{p, ref}
				origins := r.Provenance(p.Fn, p.Reg, ref.Obj, ref.Slot)
				if len(origins) > 5 {
					t.Errorf("%s %v %v: %d origins, want at most 5", name, p, ref, len(origins))
				}
				for _, o := range origins {
					if o.Trigger < 0 {
						if !addrOf(m.InstrByID(o.Site), ref.Obj, func(reg string) bool {
							n, ok := r.a.regNodes[regKey{p.Fn, reg}]
							return ok && r.a.findRead(n) == r.a.findRead(id)
						}) {
							t.Errorf("%s %v %v: Addr-Of origin at %d takes no address into the pointer", name, p, ref, o.Site)
						}
					} else if o.Site != 0 && m.InstrByID(o.Site) == nil || o.Trigger >= r.NodeCount() {
						t.Errorf("%s %v %v: origin %+v names no constraint of the module", name, p, ref, o)
					}
				}
				queries = append(queries, q)
				want[q] = origins
			}
		}
		if len(want) == 0 {
			t.Fatalf("%s: no provenance recorded", name)
		}
		fb, err := r.RestoreAll(context.Background(), Budget{})
		if err != nil {
			t.Fatal(err)
		}
		kept := 0
		for _, q := range queries {
			id := r.a.regNodes[regKey{q.p.Fn, q.p.Reg}]
			results := []*Result{r}
			if fb.a.findRead(id) == r.a.findRead(id) {
				results = append(results, fb)
				kept++
			}
			for _, res := range results {
				if got := res.Provenance(q.p.Fn, q.p.Reg, q.ref.Obj, q.ref.Slot); !slices.Equal(got, want[q]) {
					t.Errorf("%s %v %v: provenance %v after RestoreAll, %v before", name, q.p, q.ref, got, want[q])
				}
			}
		}
		if kept == 0 {
			t.Errorf("%s: RestoreAll moved every pointer's representative", name)
		}
	}
}

// addrOf reports whether in is an Addr-Of constraint putting obj into a
// register dest accepts.
func addrOf(in ir.Instr, obj *Object, dest func(reg string) bool) bool {
	switch in := in.(type) {
	case *ir.Alloca:
		return in.Obj == obj.Index && dest(in.Dest)
	case *ir.Malloc:
		return in.Obj == obj.Index && dest(in.Dest)
	case *ir.AddrGlobal:
		return obj.Kind == ObjGlobal && in.Global == obj.Name && dest(in.Dest)
	case *ir.AddrFunc:
		return obj.Kind == ObjFunc && in.Func == obj.Name && dest(in.Dest)
	}
	return false
}
