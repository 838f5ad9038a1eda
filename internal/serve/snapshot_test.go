package serve

// Tests of the deduplicating snapshot projection (snapshot.go): what every
// handler serves must equal the live solver answer, on the paper apps and
// the scaled family under every ablation, and two solves of one program
// must persist identical bytes — also when the fallback is a fresh
// standard solve rather than the configuration's own derived one.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/minic"
	"repro/internal/pointsto"
	"repro/internal/workload"
)

// liveLabels renders p's canonical points-to set in r the way the wire does.
func liveLabels(r *pointsto.Result, p pointsto.PtrRef) []string {
	refs := r.PointsTo(p.Fn, p.Reg)
	if p.Reg == "" {
		refs = r.ReturnPointsTo(p.Fn)
	}
	out := []string{}
	for _, ref := range refs {
		out = append(out, ref.String())
	}
	return out
}

// solveViews compiles src and runs one analysis per ablation, in
// invariant.Ablations order, as the daemon's cache does: each System holds
// the configuration's optimistic view and its own derived fallback.
func solveViews(t *testing.T, name, src string) (systems []*core.System) {
	t.Helper()
	m, err := minic.Compile(name, src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, cfg := range invariant.Ablations() {
		sys, err := core.AnalyzeCtx(context.Background(), m, cfg, core.AnalyzeOpts{})
		if err != nil {
			t.Fatalf("%s/%s: %v", name, cfg.Name(), err)
		}
		systems = append(systems, sys)
	}
	return systems
}

func mustProject(t *testing.T, opt, fb *pointsto.Result) *resultSnapshot {
	t.Helper()
	snap, err := project(context.Background(), opt, fb)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.check(); err != nil {
		t.Fatalf("projected snapshot fails its own check: %v", err)
	}
	return snap
}

// TestSnapshotDifferential checks the projection against the live results
// it was projected from, over the nine paper apps, ScaledProgram(s, 3..34)
// and randprog-1k under all eight ablation configs: every pointer of
// either view serves exactly the live labels under both views, a pointer
// the snapshot omits is empty in both, and two fresh solves marshal to
// identical bytes. Each snapshot also marshals to the same bytes as the
// projection over one separately solved standard fallback (the baseline
// projecting that fallback as both views), so records written when every
// configuration shared one fresh fallback stay valid.
func TestSnapshotDifferential(t *testing.T) {
	type program struct{ name, src string }
	var progs []program
	for _, app := range workload.Apps() {
		progs = append(progs, program{app.Name, app.Source})
	}
	for units := 3; units <= 34; units++ {
		if testing.Short() && units%8 != 2 {
			continue
		}
		progs = append(progs, program{fmt.Sprintf("scaled-%d", units), workload.ScaledProgram(int64(units), units)})
	}
	progs = append(progs, program{"randprog-1k", workload.ScaledApps()[0].Source})

	for _, pr := range progs {
		systems := solveViews(t, pr.name, pr.src)
		systems2 := solveViews(t, pr.name, pr.src)
		shared := systems2[0].Fallback // the Baseline analysis: one fresh standard solve
		for i, cfg := range invariant.Ablations() {
			opt, fb := systems[i].Optimistic, systems[i].Fallback
			snap := mustProject(t, opt, fb)
			res := newServedResult(snap)
			listed := map[pointsto.PtrRef]bool{}
			for _, rg := range snap.Regs {
				listed[pointsto.PtrRef{Fn: rg.Fn, Reg: rg.Reg}] = true
			}
			for _, view := range []*pointsto.Result{opt, fb} {
				for _, p := range view.PointerReps() {
					wantOpt, wantFb := liveLabels(opt, p.PtrRef), liveLabels(fb, p.PtrRef)
					gotOpt, gotFb := res.pointsTo(p.Fn, p.Reg)
					if !reflect.DeepEqual(gotOpt, wantOpt) || !reflect.DeepEqual(gotFb, wantFb) {
						t.Fatalf("%s/%s %s:%s served %v / %v, live %v / %v",
							pr.name, cfg.Name(), p.Fn, p.Reg, gotOpt, gotFb, wantOpt, wantFb)
					}
					if !listed[p.PtrRef] && (len(wantOpt) > 0 || len(wantFb) > 0) {
						t.Fatalf("%s/%s: non-empty pointer %s:%s missing from the snapshot", pr.name, cfg.Name(), p.Fn, p.Reg)
					}
				}
			}
			first, _ := json.Marshal(snap)
			second, _ := json.Marshal(mustProject(t, systems2[i].Optimistic, systems2[i].Fallback))
			if string(first) != string(second) {
				t.Fatalf("%s/%s: two fresh solves marshal to different snapshots", pr.name, cfg.Name())
			}
			sharedOpt := opt
			if !cfg.Any() {
				sharedOpt = shared
			}
			if third, _ := json.Marshal(mustProject(t, sharedOpt, shared)); string(first) != string(third) {
				t.Fatalf("%s/%s: snapshot over the derived fallback differs from one over a fresh fallback", pr.name, cfg.Name())
			}
		}
	}
}

// TestProjectSmallProgramBytes pins the marshalled snapshots of two tiny
// programs, one without any non-empty pointer, so the empty tables keep
// their JSON form (null, not []) as well as their contents.
func TestProjectSmallProgramBytes(t *testing.T) {
	for src, want := range map[string]string{
		"int main() { return 0; }":                         `{"objects":1,"constraint_nodes":3,"solver_iterations":0,"monitor_sites":0,"icall_sites":null,"labels":null,"sets":[[]],"regs":null,"cfi_sites":null,"invariants":[]}`,
		"int g;\nint main() { int* p; p = &g; return 0; }": `{"objects":3,"constraint_nodes":7,"solver_iterations":3,"monitor_sites":0,"icall_sites":null,"labels":["main/p#1","@g"],"sets":[[],[0],[1]],"regs":[{"fn":"main","reg":"%t1","optimistic":1,"fallback":1},{"fn":"main","reg":"%t2","optimistic":2,"fallback":2}],"cfi_sites":null,"invariants":[]}`,
	} {
		sys := solveViews(t, "tiny", src)[len(invariant.Ablations())-1]
		if got, _ := json.Marshal(mustProject(t, sys.Optimistic, sys.Fallback)); string(got) != want {
			t.Errorf("snapshot of %q:\n got %s\nwant %s", src, got, want)
		}
	}
}

// TestSnapshotStoresEachSetOnce: the set table holds no duplicate, and
// every pointer whose views agree names one set for both.
func TestSnapshotStoresEachSetOnce(t *testing.T) {
	systems := solveViews(t, "randprog-1k", workload.ScaledApps()[0].Source)
	all := systems[len(systems)-1]
	snap := mustProject(t, all.Optimistic, all.Fallback)
	seen := map[string]bool{}
	for _, set := range snap.Sets {
		key := fmt.Sprint(set)
		if seen[key] {
			t.Fatalf("set %v stored twice", set)
		}
		seen[key] = true
	}
	labels := map[string]bool{}
	for _, l := range snap.Labels {
		if labels[l] {
			t.Fatalf("label %q stored twice", l)
		}
		labels[l] = true
	}
	res := newServedResult(snap)
	for _, rg := range snap.Regs {
		o, f := res.pointsTo(rg.Fn, rg.Reg)
		if reflect.DeepEqual(o, f) != (rg.Optimistic == rg.Fallback) {
			t.Fatalf("%s:%s: equal views must share one set id (%d, %d)", rg.Fn, rg.Reg, rg.Optimistic, rg.Fallback)
		}
	}
	if len(snap.Sets) >= len(snap.Regs) {
		t.Fatalf("%d sets for %d pointers: nothing was shared", len(snap.Sets), len(snap.Regs))
	}
}

// TestProjectAbortsOnDoneContext: a projection whose context has ended
// returns the solver's typed abort, carrying the context error.
func TestProjectAbortsOnDoneContext(t *testing.T) {
	systems := solveViews(t, "demo", demoSource)
	all := systems[len(systems)-1]
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	<-ctx.Done()
	snap, err := project(ctx, all.Optimistic, all.Fallback)
	if snap != nil || !errors.Is(err, pointsto.ErrSolveAborted) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("project under an expired context = %v, %v; want nil and a typed abort", snap, err)
	}
}

// TestSnapshotCheckRejectsDanglingIDs: a snapshot whose pointers or sets
// name missing entries, or whose pointers or CFI sites are out of order or
// repeated, fails its check instead of serving wrong answers.
func TestSnapshotCheckRejectsDanglingIDs(t *testing.T) {
	for name, snap := range map[string]*resultSnapshot{
		"no sets":           {},
		"set 0 not empty":   {Labels: []string{"@g"}, Sets: [][]int{{0}}},
		"dangling label":    {Sets: [][]int{{}, {0}}},
		"dangling set":      {Sets: [][]int{{}}, Regs: []regSnapshot{{Fn: "main", Reg: "%p", Optimistic: 1}}},
		"negative set id":   {Sets: [][]int{{}}, Regs: []regSnapshot{{Fn: "main", Reg: "%p", Fallback: -1}}},
		"negative label id": {Labels: []string{"@g"}, Sets: [][]int{{}, {-1}}},
		"unsorted pointers": {Sets: [][]int{{}}, Regs: []regSnapshot{{Fn: "main", Reg: "%q"}, {Fn: "main", Reg: "%p"}}},
		"repeated pointer":  {Sets: [][]int{{}}, Regs: []regSnapshot{{Fn: "f"}, {Fn: "f"}}},
		"unsorted sites":    {Sets: [][]int{{}}, CFISites: []cfiSite{{Site: 9}, {Site: 4}}},
		"repeated site":     {Sets: [][]int{{}}, CFISites: []cfiSite{{Site: 4}, {Site: 4}}},
	} {
		if snap.check() == nil {
			t.Errorf("%s: check accepted the snapshot", name)
		}
	}
}

// TestLargeProgramRecordBounded pins the record size of a ~30k-node
// program (ScaledProgram(7, 1000) under all): under 2 MB. With a label
// list per pointer per view it was 217 MB.
func TestLargeProgramRecordBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a ~30k-node program")
	}
	src := workload.ScaledProgram(7, 1000)
	m, err := minic.Compile("scaled-1000", src)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.Analyze(m, invariant.All())
	payload, err := json.Marshal(persistRecord{Format: recordFormat, Source: src, Config: "Kaleidoscope",
		Snapshot: mustProject(t, sys.Optimistic, sys.Fallback)})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("record: %d bytes", len(payload))
	if len(payload) >= 2e6 {
		t.Fatalf("record is %d bytes, want under 2 MB", len(payload))
	}
}
