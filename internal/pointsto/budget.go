package pointsto

import (
	"errors"
	"fmt"

	"repro/internal/faultinject"
)

// Budget bounds one SolveCtx call. The zero value is unlimited.
type Budget struct {
	// MaxSteps is the maximum number of solver steps (worklist pops) the
	// solve may consume; 0 means unlimited. When the budget runs
	// out the solve aborts with a typed *AbortError — never a partial result
	// presented as complete.
	MaxSteps int64
}

// ErrSolveAborted is the sentinel matched (via errors.Is) by every SolveCtx
// abort, whatever its cause: step budget, context cancellation/deadline, or
// an injected fault.
var ErrSolveAborted = errors.New("pointsto: solve aborted")

// AbortError is the typed error returned when SolveCtx aborts. The analysis
// is left in a consistent (monotone, resumable) intermediate state: a later
// SolveCtx with a larger budget continues from where the abort happened and
// reaches the identical fixpoint (asserted by tests).
type AbortError struct {
	Steps  int64  // solver steps consumed before the abort
	Reason string // what exhausted the budget
	Cause  error  // context error or injected fault, when applicable
}

func (e *AbortError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("pointsto: solve aborted after %d steps: %s: %v", e.Steps, e.Reason, e.Cause)
	}
	return fmt.Sprintf("pointsto: solve aborted after %d steps: %s", e.Steps, e.Reason)
}

// Is makes every AbortError match ErrSolveAborted.
func (e *AbortError) Is(target error) bool { return target == ErrSolveAborted }

// Unwrap exposes the underlying context or injection error.
func (e *AbortError) Unwrap() error { return e.Cause }

// SetFaults arms a fault-injection plan on this analysis: an armed
// SolverBudget site aborts the solve mid-worklist exactly as a real budget
// exhaustion would. Callers that arm faults must use SolveCtx (Solve treats
// any abort as a programming error). Must be called before Solve/SolveCtx.
func (a *Analysis) SetFaults(p *faultinject.Plan) { a.faults = p }

// budgetStep accounts one solver step against the active budget, returning
// false (and recording the abort) when the solve must stop before taking the
// step. Called only when a.budgeted is set, so unbudgeted solves pay nothing.
func (a *Analysis) budgetStep() bool {
	if a.abortErr != nil {
		return false
	}
	if err := a.faults.Err(faultinject.SolverBudget); err != nil {
		a.abortErr = &AbortError{Steps: int64(a.stats.Iterations), Reason: "injected budget-exhaustion fault", Cause: err}
		return false
	}
	if a.stepsLeft > 0 {
		a.stepsLeft--
		if a.stepsLeft == 0 {
			a.stepsLeft = -1 // distinguish "exhausted" from "unlimited"
		}
	} else if a.stepsLeft < 0 {
		a.abortErr = &AbortError{Steps: int64(a.stats.Iterations), Reason: "step budget exhausted"}
		return false
	}
	// Poll the context every 64 steps: often enough that cancellation lands
	// promptly, rare enough to stay off the per-pop hot path.
	a.ctxPolls++
	if a.ctxPolls&63 == 0 && a.solveCtx.Done() != nil {
		select {
		case <-a.solveCtx.Done():
			a.abortErr = &AbortError{Steps: int64(a.stats.Iterations), Reason: "context done", Cause: a.solveCtx.Err()}
			return false
		default:
		}
	}
	return true
}
