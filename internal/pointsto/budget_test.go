package pointsto

import (
	"context"
	"errors"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/invariant"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// These tests compare results via the differential suite's fingerprint
// helper (differential_test.go), which serializes everything observable
// about a Result.

// An exhausted step budget must surface as a typed *AbortError matching
// ErrSolveAborted, with a nil Result — never a partial fixpoint.
func TestBudgetAbortIsTyped(t *testing.T) {
	m := workload.MbedTLS().MustModule()
	reg := telemetry.New()
	a := New(m, invariant.All())
	a.SetMetrics(reg)
	r, err := a.SolveCtx(context.Background(), Budget{MaxSteps: 5})
	if r != nil {
		t.Fatal("aborted solve returned a result")
	}
	var ab *AbortError
	if !errors.As(err, &ab) {
		t.Fatalf("err = %v (%T), want *AbortError", err, err)
	}
	if !errors.Is(err, ErrSolveAborted) {
		t.Errorf("abort does not match ErrSolveAborted: %v", err)
	}
	if ab.Cause != nil {
		t.Errorf("step-budget abort carries cause %v, want none", ab.Cause)
	}
	if got := reg.Counter("pointsto/solve/aborts").Value(); got != 1 {
		t.Errorf("abort counter = %d, want 1", got)
	}
}

// An aborted solve must be resumable: repeatedly re-solving under a small
// step budget has to converge to the byte-identical fixpoint of an
// uninterrupted solve.
func TestBudgetedSolveResumes(t *testing.T) {
	for _, app := range workload.Apps()[:4] {
		t.Run(app.Name, func(t *testing.T) {
			m := app.MustModule()
			want := fingerprint(New(m, invariant.All()).Solve())
			a := New(m, invariant.All())
			aborts := 0
			for {
				r, err := a.SolveCtx(context.Background(), Budget{MaxSteps: 40})
				if err == nil {
					if got := fingerprint(r); got != want {
						t.Fatalf("fixpoint after %d aborted resumes differs from uninterrupted solve", aborts)
					}
					break
				}
				if !errors.Is(err, ErrSolveAborted) {
					t.Fatalf("unexpected error: %v", err)
				}
				aborts++
				if aborts > 10000 {
					t.Fatal("solve never converges under repeated 40-step budgets")
				}
			}
			if aborts == 0 {
				t.Error("solve finished inside the first 40-step budget; test exercised nothing")
			}
		})
	}
}

// A large-enough budget must change nothing: the result is identical to an
// unbounded Solve.
func TestGenerousBudgetIsIdentity(t *testing.T) {
	m := workload.Curl().MustModule()
	want := fingerprint(New(m, invariant.All()).Solve())
	r, err := New(m, invariant.All()).SolveCtx(context.Background(), Budget{MaxSteps: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(r) != want {
		t.Fatal("budgeted solve differs from unbounded solve")
	}
}

// A cancelled context must abort the solve with both sentinel matches:
// ErrSolveAborted (ours) and context.Canceled (the cause).
func TestContextCancellationAborts(t *testing.T) {
	m := workload.MbedTLS().MustModule()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := New(m, invariant.All()).SolveCtx(ctx, Budget{})
	if r != nil {
		t.Fatal("cancelled solve returned a result")
	}
	if !errors.Is(err, ErrSolveAborted) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want AbortError wrapping context.Canceled", err)
	}
}

// An injected SolverBudget fault must abort exactly like a real budget
// exhaustion, carrying the *faultinject.Injected cause; because the fault is
// single-shot, a follow-up SolveCtx resumes to the true fixpoint.
func TestInjectedSolverFaultAborts(t *testing.T) {
	m := workload.MbedTLS().MustModule()
	want := fingerprint(New(m, invariant.All()).Solve())
	a := New(m, invariant.All())
	a.SetFaults(faultinject.ExplicitAt(faultinject.SolverBudget, 20))
	r, err := a.SolveCtx(context.Background(), Budget{})
	if r != nil {
		t.Fatal("faulted solve returned a result")
	}
	var inj *faultinject.Injected
	if !errors.As(err, &inj) || inj.Site != faultinject.SolverBudget {
		t.Fatalf("err = %v, want injected %s cause", err, faultinject.SolverBudget)
	}
	if !errors.Is(err, ErrSolveAborted) {
		t.Errorf("injected abort does not match ErrSolveAborted: %v", err)
	}
	r2, err := a.SolveCtx(context.Background(), Budget{})
	if err != nil {
		t.Fatalf("resume after injected fault: %v", err)
	}
	if fingerprint(r2) != want {
		t.Fatal("fixpoint after injected fault differs from clean solve")
	}
}

// Restore cannot abort: a result whose analysis carries an armed
// SolverBudget fault still restores, without firing the fault, to the same
// answer as an unarmed restore. The restored result keeps the plan for the
// bounded form, RestoreAll, whose re-solve the fault then aborts.
func TestRestoreIgnoresArmedSolverBudget(t *testing.T) {
	m := workload.MbedTLS().MustModule()
	r := New(m, invariant.All()).Solve()
	recs := r.Invariants()
	if len(recs) < 2 {
		t.Fatalf("mbedtls assumes %d invariants, want several", len(recs))
	}
	want, err := r.Restore(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	plan := faultinject.ExplicitAt(faultinject.SolverBudget, 1)
	r.a.faults = plan
	got, err := r.Restore(recs[0])
	if err != nil {
		t.Fatalf("restore with an armed solver fault: %v", err)
	}
	if plan.Fired(faultinject.SolverBudget) {
		t.Error("restore fired the solver fault")
	}
	if fingerprint(got) != fingerprint(want) {
		t.Error("restore with an armed solver fault differs from an unarmed one")
	}
	if _, err := got.RestoreAll(context.Background(), Budget{}); !errors.Is(err, ErrSolveAborted) {
		t.Errorf("RestoreAll from the restored result: err = %v, want the armed fault's abort", err)
	}
}
