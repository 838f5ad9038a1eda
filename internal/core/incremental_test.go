package core

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/invariant"
	"repro/internal/minic"
	"repro/internal/pointsto"
	"repro/internal/stats"
	"repro/internal/workload"
)

func TestIncrementalCleanRun(t *testing.T) {
	s := analyzeSrc(t, paViolationSrc, invariant.All())
	before := len(s.Invariants())
	e := s.NewIncrementalExecution(true)
	tr := e.Run("main", []int64{0, 3})
	if tr.Err != nil {
		t.Fatalf("run: %v", tr.Err)
	}
	if e.Controller.Restores != 0 || len(e.Controller.Violations) != 0 {
		t.Fatalf("clean run restored: %+v", e.Controller.Violations)
	}
	if got := len(s.Invariants()); got != before {
		t.Errorf("invariant count changed on clean run: %d -> %d", before, got)
	}
	if bad := SoundnessReport(s.Optimistic, tr); len(bad) != 0 {
		t.Errorf("optimistic unsound on clean run:\n%v", bad)
	}
}

func TestIncrementalRestoreOnViolation(t *testing.T) {
	s := analyzeSrc(t, paViolationSrc, invariant.All())
	before := len(s.Invariants())
	e := s.NewIncrementalExecution(true)
	tr := e.Run("main", []int64{1, 0})
	if tr.Err != nil {
		t.Fatalf("run: %v", tr.Err)
	}
	if e.Controller.Restores != 1 {
		t.Fatalf("restores = %d, want 1 (violations %v)", e.Controller.Restores, e.Controller.Violations)
	}
	if got := len(e.Controller.Result().Invariants()); got >= before {
		t.Errorf("invariant count did not shrink: %d -> %d", before, got)
	}
	// The restored analysis must re-admit evil at the callsite, so the
	// hijacked call succeeds under the refreshed (still partly optimistic)
	// policy.
	if tr.Result != 666 {
		t.Fatalf("result = %d, want 666 under restored policy", tr.Result)
	}
	// The restored analysis is sound for this run: the violated assumption
	// is gone and the remaining ones held.
	if bad := SoundnessReport(e.Controller.Result(), tr); len(bad) != 0 {
		t.Errorf("restored analysis unsound:\n%v", bad)
	}
}

// TestIncrementalExecutionKeepsFallback: the fallback is derived from the
// optimistic analysis and shares its state, and every restore returns a new
// result, so a violating incremental execution must leave both views'
// answers unchanged, while the controller's result assumes one invariant
// fewer.
func TestIncrementalExecutionKeepsFallback(t *testing.T) {
	s := analyzeSrc(t, paViolationSrc, invariant.All())
	opt, fallback := render(s.Optimistic), render(s.Fallback)
	before := len(s.Invariants())
	e := s.NewIncrementalExecution(true)
	if tr := e.Run("main", []int64{1, 0}); tr.Err != nil {
		t.Fatalf("run: %v", tr.Err)
	}
	if e.Controller.Restores == 0 {
		t.Fatalf("the run restored nothing (violations %v)", e.Controller.Violations)
	}
	if got := render(s.Fallback); got != fallback {
		t.Errorf("an incremental execution changed the fallback:\nbefore:\n%s\nafter:\n%s", fallback, got)
	}
	if got := render(s.Optimistic); got != opt {
		t.Errorf("an incremental execution changed the optimistic result:\nbefore:\n%s\nafter:\n%s", opt, got)
	}
	if got := len(s.Invariants()); got != before {
		t.Errorf("the optimistic result's invariants changed: %d -> %d", before, got)
	}
	if got := len(e.Controller.Result().Invariants()); got != before-1 {
		t.Errorf("the controller's result assumes %d invariants, want %d", got, before-1)
	}
}

// TestIncrementalExecutionsConcurrent: nothing an incremental execution
// restores is written into its System, so two violating executions may run
// on one System at once (run under -race by make race), each restoring to
// the same answer.
func TestIncrementalExecutionsConcurrent(t *testing.T) {
	s := analyzeSrc(t, paViolationSrc, invariant.All())
	var execs [2]*IncrementalExecution
	var wg sync.WaitGroup
	for i := range execs {
		execs[i] = s.NewIncrementalExecution(true)
		wg.Add(1)
		go func(e *IncrementalExecution) {
			defer wg.Done()
			if tr := e.Run("main", []int64{1, 0}); tr.Err != nil || tr.Result != 666 {
				t.Errorf("run: result %d, err %v; want 666", tr.Result, tr.Err)
			}
		}(execs[i])
	}
	wg.Wait()
	for i, e := range execs {
		if e.Controller.Restores != 1 {
			t.Fatalf("execution %d restored %d times, want 1", i, e.Controller.Restores)
		}
	}
	if a, b := render(execs[0].Controller.Result()), render(execs[1].Controller.Result()); a != b {
		t.Errorf("concurrent executions restored to different answers:\n%s\nand:\n%s", a, b)
	}
}

// The incrementally restored solution must lie between the full optimistic
// solution and the fallback: every restored points-to set is a superset of
// the optimistic one and a subset of the fallback one.
func TestIncrementalSolutionBracketedByViews(t *testing.T) {
	m, err := minic.Compile("bracket", paViolationSrc)
	if err != nil {
		t.Fatal(err)
	}
	full := Analyze(m, invariant.All()) // independent optimistic reference
	s := Analyze(m, invariant.All())
	fallback := s.Fallback

	recs := s.Optimistic.Invariants()
	var paRec *invariant.Record
	for i := range recs {
		if recs[i].Kind == invariant.PA {
			paRec = &recs[i]
		}
	}
	if paRec == nil {
		t.Fatal("no PA invariant to restore")
	}
	res, err := s.Optimistic.Restore(*paRec)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	for _, p := range s.Population() {
		if p.Reg == "" {
			continue
		}
		restored := map[string]bool{}
		for _, ref := range res.PointsTo(p.Fn, p.Reg) {
			restored[ref.Obj.Label()] = true
		}
		for _, ref := range full.Optimistic.PointsTo(p.Fn, p.Reg) {
			if !restored[ref.Obj.Label()] {
				t.Errorf("%s:%s lost optimistic target %s after restore", p.Fn, p.Reg, ref.Obj.Label())
			}
		}
		fb := map[string]bool{}
		for _, ref := range fallback.PointsTo(p.Fn, p.Reg) {
			fb[ref.Obj.Label()] = true
		}
		for label := range restored {
			if !fb[label] {
				t.Errorf("%s:%s restored target %s exceeds fallback", p.Fn, p.Reg, label)
			}
		}
	}
	// Restoring the same record twice must fail.
	if _, err := res.Restore(*paRec); err == nil {
		t.Error("double restore succeeded")
	}
}

func TestIncrementalCtxRestore(t *testing.T) {
	s := analyzeSrc(t, ctxViolationSrc, invariant.Config{Ctx: true})
	if len(s.Invariants()) == 0 {
		t.Skip("no ctx invariants detected")
	}
	e := s.NewIncrementalExecution(true)
	tr := e.Run("main", []int64{1, 0})
	if tr.Err != nil {
		t.Fatalf("run: %v", tr.Err)
	}
	if e.Controller.Restores != 1 {
		t.Fatalf("restores = %d, want 1 (violations %v)", e.Controller.Restores, e.Controller.Violations)
	}
	if bad := SoundnessReport(e.Controller.Result(), tr); len(bad) != 0 {
		t.Errorf("restored analysis unsound:\n%v", bad)
	}
}

func TestIncrementalPWCRestoreMatchesBaselineMitigation(t *testing.T) {
	// Use the tinydtls workload (PWC-dominated): restoring its PWC invariant
	// must land at the Kd-less precision for the affected pointers, i.e. the
	// average must move from the Kd-PWC value to the baseline value.
	app := workload.TinyDTLS()
	m := app.MustModule()
	s := Analyze(m, invariant.Config{PWC: true})
	optAvg := stats.Mean(s.Sizes(s.Optimistic))
	// A fresh baseline solve, independent of the derived s.Fallback.
	baseAvg := stats.Mean(s.Sizes(pointsto.New(m, invariant.Config{}).Solve()))
	var pwcRec *invariant.Record
	recs := s.Optimistic.Invariants()
	for i := range recs {
		if recs[i].Kind == invariant.PWC {
			pwcRec = &recs[i]
		}
	}
	if pwcRec == nil {
		t.Fatal("no PWC invariant")
	}
	res, err := s.Optimistic.Restore(*pwcRec)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	restoredAvg := stats.Mean(s.Sizes(res))
	if restoredAvg < optAvg {
		t.Errorf("restore increased precision: %.3f -> %.3f", optAvg, restoredAvg)
	}
	// tinydtls assumes one PWC invariant, so restoring it lands exactly on
	// the baseline.
	if restoredAvg != baseAvg {
		t.Errorf("restore did not land on the baseline: %.3f, baseline %.3f", restoredAvg, baseAvg)
	}
	if len(res.Invariants()) != len(recs)-1 {
		t.Errorf("PWC record not dropped: %d -> %d", len(recs), len(res.Invariants()))
	}
}

// pwcViolationSrc is tinydtls with one change: a peer added with epoch 19
// is re-read through the session field's address, so that address becomes
// the base of the next session access — a positive-weight cycle that really
// forms at run time, violating the PWC invariant.
var pwcViolationSrc = strings.Replace(workload.TinyDTLS().Source, "  *resume_slot = sslot;\n}", `  *resume_slot = sslot;
  if (epoch == 19) {
    char* alias;
    alias = sslot;
    *peer_slot = alias;
    cur = *peer_slot;
    sslot = &cur->session;
  }
}`, 1)

// A dynamic PWC violation restores the invariant through the incremental
// controller, and the refreshed view is sound for the violating run. The
// program assumes nothing else, so the refreshed view is the fallback's.
func TestIncrementalPWCViolationStaysSound(t *testing.T) {
	if pwcViolationSrc == workload.TinyDTLS().Source {
		t.Fatal("tinydtls source changed: the violating variant was not built")
	}
	s := analyzeSrc(t, pwcViolationSrc, invariant.Config{PWC: true})
	if n := len(s.Invariants()); n != 1 {
		t.Fatalf("%d invariants, want the one PWC", n)
	}
	e := s.NewIncrementalExecution(true)
	// Two records: add a peer with epoch 19 (type 0, length 19), then
	// notify the peers (type 3).
	tr := e.Run("main", []int64{2, 0, 19, 0, 3, 0, 0})
	if tr.Err != nil {
		t.Fatalf("run: %v", tr.Err)
	}
	vs := e.Controller.Violations
	if len(vs) == 0 || vs[0].Kind != invariant.PWC || e.Controller.Restores != 1 {
		t.Fatalf("violations %v, restores %d; want a PWC violation and one restore", vs, e.Controller.Restores)
	}
	if bad := SoundnessReport(e.Controller.Result(), tr); len(bad) != 0 {
		t.Errorf("refreshed view unsound after the PWC violation:\n%v", bad)
	}
	if render(e.Controller.Result()) != render(pointsto.New(s.Module, invariant.Config{}).Solve()) {
		t.Error("restoring the only invariant does not give back a fresh fallback solve")
	}
}

func TestRestoreRejectsUnknownRecords(t *testing.T) {
	s := analyzeSrc(t, paViolationSrc, invariant.All())
	if _, err := s.Optimistic.Restore(invariant.Record{Kind: invariant.PA, Site: 99999}); err == nil {
		t.Error("restore of unknown PA site succeeded")
	}
	if _, err := s.Optimistic.Restore(invariant.Record{Kind: invariant.PWC}); err == nil {
		t.Error("restore of empty PWC record succeeded")
	}
	if _, err := s.Optimistic.Restore(invariant.Record{Kind: invariant.Ctx, Site: 99999}); err == nil {
		t.Error("restore of unknown Ctx site succeeded")
	}
}
