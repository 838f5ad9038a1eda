package core

import (
	"repro/internal/cfi"
	"repro/internal/interp"
	"repro/internal/invariant"
	"repro/internal/ir"
	"repro/internal/memview"
	"repro/internal/pointsto"
)

// Incremental fallback (paper §8, second alternative): instead of switching
// to a pre-generated fallback memory view, an invariant violation triggers
// an incremental re-analysis (pointsto.Result.Restore) that abandons only
// the violated assumption and refreshes the CFI policy and monitors on the
// fly. Precision degrades by exactly one invariant per violation — strictly
// finer-grained than even the graded controller, at the cost of an online
// solver pass.

// IncrementalController is the restore-on-violation memview.Handler: it
// answers CFI lookups from the policy of its current result and, per
// violation, restores the violated invariant and installs the restored
// result's monitors into the execution's runtime.
type IncrementalController struct {
	opt    *pointsto.Result
	policy *cfi.Policy
	rt     *memview.Runtime

	// Violations lists every violation observed, in order.
	Violations []memview.Violation
	// Restores counts successful incremental re-analyses.
	Restores int
}

// IncrementalExecution is a monitored run with restore-on-violation.
type IncrementalExecution struct {
	Machine    *interp.Machine
	Runtime    *memview.Runtime
	Controller *IncrementalController
}

// NewIncrementalExecution builds an execution whose violations trigger
// incremental re-analysis. Each restore returns a new result that the
// controller switches to; s.Optimistic and s.Fallback are never written, so
// any number of executions may run on one System concurrently.
func (s *System) NewIncrementalExecution(track bool) *IncrementalExecution {
	ctrl := &IncrementalController{opt: s.Optimistic, policy: cfi.PolicyFrom(s.Optimistic)}
	rt, err := memview.BuildRuntime(s.Optimistic, ctrl, nil)
	if err != nil {
		panic(err) // unreachable: no fault plan
	}
	ctrl.rt = rt
	mc := interp.Compile(s.Module, fullInstrumentation(s.Module, s.Optimistic)).NewMachine(interp.Config{
		Hooks:         rt,
		TrackPointsTo: track,
	})
	return &IncrementalExecution{Machine: mc, Runtime: rt, Controller: ctrl}
}

// Run executes the entry function under incremental monitoring.
func (e *IncrementalExecution) Run(entry string, inputs []int64) *interp.Trace {
	return e.Machine.Run(entry, inputs)
}

// Result returns the controller's current result: the optimistic result it
// started from, less every invariant restored since.
func (c *IncrementalController) Result() *pointsto.Result { return c.opt }

// Permits consults the current (possibly restored) CFI policy.
func (c *IncrementalController) Permits(site int, target string) bool {
	return c.policy.Permits(site, target)
}

// OnViolation finds the violated invariant, restores its constraints
// incrementally, and refreshes the policy and monitors. Monitor state of
// the invariants the restored result still assumes survives the refresh.
func (c *IncrementalController) OnViolation(v memview.Violation) {
	c.Violations = append(c.Violations, v)
	for _, rec := range c.opt.Invariants() {
		if rec.Kind != v.Kind {
			continue
		}
		match := rec.Site == v.Site
		if !match && rec.Kind == invariant.PWC {
			for _, s := range rec.CycleFieldSites {
				if s == v.Site {
					match = true
					break
				}
			}
		}
		if !match {
			continue
		}
		if next, err := c.opt.Restore(rec); err == nil {
			c.opt = next
			c.Restores++
			c.policy = cfi.PolicyFrom(next)
			if err := c.rt.Install(next); err != nil {
				panic(err) // unreachable: the controller arms no fault plan
			}
		}
		return
	}
}

// fullInstrumentation is the instrumentation the monitors of opt need,
// plus a hook at every PtrAdd and FieldAddr site. Restored analyses may
// grow PA filter sets at sites that previously filtered nothing, so all
// arithmetic and field-access sites must carry hooks from the start (the
// hooks no-op while the runtime has no entry for a site).
func fullInstrumentation(m *ir.Module, opt *pointsto.Result) *interp.Instrumentation {
	ins := memview.Instrumentation(opt)
	for _, f := range m.Funcs {
		f.Instrs(func(_ *ir.Block, in ir.Instr) {
			switch in.(type) {
			case *ir.PtrAdd:
				ins.PtrAddSites[ir.InstrID(in)] = true
			case *ir.FieldAddr:
				ins.FieldSites[ir.InstrID(in)] = true
			}
		})
	}
	return ins
}
