package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/interp"
	"repro/internal/invariant"
	"repro/internal/memview"
	"repro/internal/workload"
)

// sharedApp is one paper app hardened under every invariant, with four
// seeded request streams.
type sharedApp struct {
	name   string
	h      *Hardened
	inputs [][]int64
}

func sharedApps(t *testing.T) []sharedApp {
	t.Helper()
	var out []sharedApp
	for _, w := range workload.Apps() {
		a := sharedApp{name: w.Name, h: Analyze(w.MustModule(), invariant.All()).Harden()}
		for k := int64(0); k < 4; k++ {
			a.inputs = append(a.inputs, w.Requests(40, 1000+k))
		}
		out = append(out, a)
	}
	return out
}

// freshRun runs in on a machine of its own: interp.New compiles the module
// anew under the instrumentation the execution's own monitor runtime
// reports, with a switcher of its own behind it.
func freshRun(t *testing.T, h *Hardened, track bool, in []int64) *interp.Trace {
	t.Helper()
	sw, secret := memview.NewSwitcher(h.Optimistic, h.Fallback)
	rt, err := memview.BuildRuntime(h.Sys.Optimistic, sw.Handler(secret), nil)
	if err != nil {
		t.Fatal(err)
	}
	return interp.Compile(h.Sys.Module, memview.Instrumentation(h.Sys.Optimistic)).NewMachine(interp.Config{Hooks: rt, TrackPointsTo: track}).Run("main", in)
}

// traceDiff lists every observable on which got and want differ.
func traceDiff(got, want *interp.Trace) []string {
	var out []string
	cmp := func(what string, g, w any) {
		if !reflect.DeepEqual(g, w) {
			out = append(out, fmt.Sprintf("%s: got %v, want %v", what, g, w))
		}
	}
	errText := func(err error) string { return fmt.Sprint(err) }
	cmp("Result", got.Result, want.Result)
	cmp("Outputs", got.Outputs, want.Outputs)
	cmp("Err", errText(got.Err), errText(want.Err))
	cmp("Steps", got.Steps, want.Steps)
	cmp("MemOps", got.MemOps, want.MemOps)
	cmp("BranchBuckets", got.BranchBuckets(), want.BranchBuckets())
	ge, gt := got.BranchCoverage()
	we, wt := want.BranchCoverage()
	cmp("BranchCoverage", [2]int{ge, gt}, [2]int{we, wt})
	cmp("ICallObserved", got.ICallObserved, want.ICallObserved)
	cmp("MonitorsExecuted", got.MonitorsExecuted(), want.MonitorsExecuted())
	cmp("RegPoints", got.RegPoints, want.RegPoints)
	cmp("SlotPoints", got.SlotPoints, want.SlotPoints)
	return out
}

// TestSharedProgramChangesNoTrace: executions that share their Hardened's
// compiled program observe exactly what a machine compiled for the run
// alone observes, on every paper app and input set, with and without
// dynamic points-to tracking. Each shared execution runs after others on
// the same program, so state left behind by one would show in the next.
func TestSharedProgramChangesNoTrace(t *testing.T) {
	for _, a := range sharedApps(t) {
		for _, track := range []bool{false, true} {
			for k, in := range a.inputs {
				want := freshRun(t, a.h, track, in)
				if want.Err != nil {
					t.Fatalf("%s inputs %d: fresh run: %v", a.name, k, want.Err)
				}
				for _, d := range traceDiff(a.h.NewExecution(track).Run("main", in), want) {
					t.Errorf("%s inputs %d track %v: %s", a.name, k, track, d)
				}
			}
		}
	}
}

// TestSharedProgramConcurrent is the same comparison with four goroutines
// running executions of every app at once (make race runs it under the race
// detector). The Hardeneds are fresh, so the goroutines also race to
// compile each one's program on its first execution.
func TestSharedProgramConcurrent(t *testing.T) {
	apps := sharedApps(t)
	want := make([][][2]*interp.Trace, len(apps))
	for i, a := range apps {
		for _, in := range a.inputs {
			want[i] = append(want[i], [2]*interp.Trace{freshRun(t, a.h, false, in), freshRun(t, a.h, true, in)})
		}
		apps[i].h = a.h.Sys.Harden()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := range apps {
				i := (n + g) % len(apps)
				a := apps[i]
				for k, in := range a.inputs {
					track := (g+k)%2 == 1
					w := want[i][k][0]
					if track {
						w = want[i][k][1]
					}
					for _, d := range traceDiff(a.h.NewExecution(track).Run("main", in), w) {
						t.Errorf("goroutine %d, %s inputs %d track %v: %s", g, a.name, k, track, d)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
