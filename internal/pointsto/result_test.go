package pointsto

import (
	"context"
	"slices"
	"testing"

	"repro/internal/invariant"
)

// referenceSet is the canonical set AppendSet must return, derived the
// long way: every object element of node's set, collapsed, deduplicated in
// a map and sorted.
func referenceSet(r *Result, node int) []ObjSlot {
	a := r.a
	seen := map[ObjSlot]bool{}
	var out []ObjSlot
	set := a.pts[a.findRead(node)]
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
