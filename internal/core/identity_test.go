package core

import (
	"fmt"
	"testing"

	"repro/internal/interp"
	"repro/internal/invariant"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/pointsto"
	"repro/internal/workload"
)

// identityProgram is one module with a driver input stream.
type identityProgram struct {
	name   string
	m      *ir.Module
	inputs []int64
}

// identityPrograms returns the nine paper apps, a small scaled program and
// three random programs.
func identityPrograms(t *testing.T) []identityProgram {
	t.Helper()
	var out []identityProgram
	for _, w := range workload.Apps() {
		out = append(out, identityProgram{w.Name, w.MustModule(), w.Requests(20, 1)})
	}
	gen := []int64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7}
	for _, g := range []struct{ name, src string }{
		{"scaled-30", workload.ScaledProgram(1, 30)},
		{"rand-1", workload.RandomProgram(1)},
		{"rand-7", workload.RandomProgram(7)},
		{"rand-13", workload.RandomProgram(13)},
	} {
		m, err := minic.Compile(g.name, g.src)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		out = append(out, identityProgram{g.name, m, gen})
	}
	return out
}

// TestObjectNumberIsAnalysisObject: the number ir.Module.Finalize gives a
// global, function or allocation site is the index of the analysis object
// of the same kind, name and site, under a baseline and an optimistic
// solve, and every analysis object is named by exactly one IR value.
// A tracked unhardened run records only numbers of analysis objects.
func TestObjectNumberIsAnalysisObject(t *testing.T) {
	for _, p := range identityPrograms(t) {
		for _, cfg := range []invariant.Config{{}, invariant.All()} {
			objs := pointsto.New(p.m, cfg).Solve().Objects()
			if len(objs) != p.m.NumObjects() {
				t.Fatalf("%s %s: %d analysis objects, %d IR numbers", p.name, cfg.Name(), len(objs), p.m.NumObjects())
			}
			named := make([]bool, len(objs))
			check := func(id int, kind pointsto.ObjKind, name, fn string, site int) {
				if id < 0 || id >= len(objs) || named[id] {
					t.Errorf("%s %s: IR number %d out of range or taken twice (%s %s)", p.name, cfg.Name(), id, fn, name)
					return
				}
				named[id] = true
				o := objs[id]
				if o.Index != id || o.Kind != kind || o.Name != name || o.Fn != fn || o.Site != site {
					t.Errorf("%s %s: IR number %d is %s/%s#%d (kind %v), analysis object %d is %s (kind %v)",
						p.name, cfg.Name(), id, fn, name, site, kind, o.Index, o.Label(), o.Kind)
				}
			}
			for _, g := range p.m.Globals {
				check(g.Obj, pointsto.ObjGlobal, g.Name, "", 0)
			}
			for _, f := range p.m.Funcs {
				check(f.Obj, pointsto.ObjFunc, f.Name, "", 0)
			}
			for _, f := range p.m.Funcs {
				f.Instrs(func(_ *ir.Block, in ir.Instr) {
					switch in := in.(type) {
					case *ir.Alloca:
						check(in.Obj, pointsto.ObjStack, in.Var, f.Name, in.ID)
					case *ir.Malloc:
						check(in.Obj, pointsto.ObjHeap, "heap", f.Name, in.ID)
					}
				})
			}
			for id, ok := range named {
				if !ok {
					t.Errorf("%s %s: analysis object %d (%s) has no IR value", p.name, cfg.Name(), id, objs[id].Label())
				}
			}
		}

		tr := interp.New(p.m, interp.Config{TrackPointsTo: true}).Run("main", p.inputs)
		n := p.m.NumObjects()
		inRange := func(what string, id int) {
			if id < 0 || id >= n {
				t.Errorf("%s: %s records object number %d outside [0,%d)", p.name, what, id, n)
			}
		}
		for pt, ids := range tr.RegPoints {
			for id := range ids {
				inRange(pt.Fn+":"+pt.Reg, id)
			}
		}
		for pt, ids := range tr.SlotPoints {
			inRange("a slot's container", pt.Obj)
			for id := range ids {
				inRange(fmt.Sprintf("slot %d+%d", pt.Obj, pt.Slot), id)
			}
		}
		if len(tr.RegPoints) == 0 {
			t.Errorf("%s: the tracked run recorded no register points-to fact", p.name)
		}
	}
}
