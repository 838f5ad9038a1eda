package interp

import (
	"fmt"

	"repro/internal/invariant"
	"repro/internal/ir"
	"repro/internal/telemetry"
)

// Hooks receives instrumentation callbacks during execution. The memory-view
// runtime (internal/memview) implements Hooks to evaluate likely-invariant
// monitors and CFI checks; a nil hook method set (NopHooks) runs the program
// unhardened.
type Hooks interface {
	// PtrAdd fires at instrumented PtrAdd sites with the base pointer value
	// (PA invariant monitors, §4.2).
	PtrAdd(site int, base Value)
	// FieldAddr fires at instrumented FieldAddr sites with the base pointer
	// and the generated field address (PWC invariant monitors, §4.3).
	FieldAddr(site int, base, result Value)
	// CtxCall fires at instrumented direct callsites with the recorded
	// actual arguments (Ctx invariant, §4.4).
	CtxCall(site int, args []Value)
	// CtxCheck fires at precision-critical stores/returns with the current
	// values of the critical parameters.
	CtxCheck(site int, vals []Value)
	// CheckICall authorizes an indirect call under the active memory view;
	// returning false blocks the call (CFI violation).
	CheckICall(site int, target string) bool
}

// NopHooks is the no-instrumentation Hooks implementation.
type NopHooks struct{}

func (NopHooks) PtrAdd(int, Value)           {}
func (NopHooks) FieldAddr(int, Value, Value) {}
func (NopHooks) CtxCall(int, []Value)        {}
func (NopHooks) CtxCheck(int, []Value)       {}
func (NopHooks) CheckICall(int, string) bool { return true }

// Instrumentation selects which sites trigger hooks.
type Instrumentation struct {
	PtrAddSites map[int]bool                  // PtrAdd instruction IDs with PA monitors
	FieldSites  map[int]bool                  // FieldAddr instruction IDs with PWC monitors
	CtxCallArgs map[int][]int                 // callsite instr ID -> actual-argument positions to record
	CtxChecks   map[int][]invariant.CtxSample // store/ret instr ID -> critical-parameter samples
	CheckICalls bool                          // CFI-check all indirect callsites
}

// NumMonitorSites counts distinct instrumented monitor sites (excluding CFI
// checks), for the coverage tables.
func (ins *Instrumentation) NumMonitorSites() int {
	seen := map[int]bool{}
	for s := range ins.PtrAddSites {
		seen[s] = true
	}
	for s := range ins.FieldSites {
		seen[s] = true
	}
	for s := range ins.CtxCallArgs {
		seen[s] = true
	}
	for s := range ins.CtxChecks {
		seen[s] = true
	}
	return len(seen)
}

// heapSlots is the runtime size of a malloc of unknown type whose size
// operand is not a positive count of at most 1<<16 slots.
const heapSlots = 16

// maxDepth is the call-stack depth limit.
const maxDepth = 512

// Config controls execution.
type Config struct {
	StepLimit     int64 // 0 = default (50M)
	TrackPointsTo bool  // record dynamic points-to observations
	Hooks         Hooks
	// Metrics, when non-nil, receives per-run execution telemetry: steps,
	// memory operations, monitor fires per invariant kind, and CFI lookups.
	Metrics *telemetry.Registry
}

// CFIViolation is returned when an indirect call is blocked by the active
// memory view.
type CFIViolation struct {
	Site   int
	Target string
}

func (e *CFIViolation) Error() string {
	return fmt.Sprintf("interp: CFI violation at callsite #%d: target %s not permitted", e.Site, e.Target)
}

// RuntimeError is a memory-safety or resource-limit fault.
type RuntimeError struct {
	Site int
	Msg  string
}

func (e *RuntimeError) Error() string { return fmt.Sprintf("interp: #%d: %s", e.Site, e.Msg) }

// Machine executes one compiled program. It owns only what an execution
// changes: the register stack, the globals, heap objects and trace of the
// current run, and its hook state; the program is shared and read-only.
type Machine struct {
	prog  *Program
	cfg   Config
	hooks Hooks

	// stack is the register stack. A call's frame is the window of nRegs
	// registers above the caller's, cleared on entry and popped on return.
	// Frames are addressed by their base offset, so growing (reallocating)
	// the stack leaves every frame below valid.
	stack []Value
	sp    int // first free register

	globals []RObj // this run's globals, indexed like Program.globals
	trace   *Trace
	inputs  []int64
	inPos   int
	steps   int64
	depth   int
	fires   monitorFires
}

// monitorFires accumulates hook invocations per kind for one Run. Counts are
// kept as plain locals on the machine (no atomics on the hot path) and
// flushed into the telemetry registry when the run finishes.
type monitorFires struct {
	ptrAdd   int64 // PA monitors fired
	field    int64 // PWC monitors fired
	ctxCall  int64 // Ctx callsite recordings
	ctxCheck int64 // Ctx critical-site checks
	cfi      int64 // CFI target lookups
}

// New compiles m without instrumentation and creates a machine for it. An
// instrumented machine comes from Compile(m, instr).NewMachine(cfg).
func New(m *ir.Module, cfg Config) *Machine {
	return Compile(m, nil).NewMachine(cfg)
}

// NewMachine creates a machine that runs p, with the instrumentation p was
// compiled under.
func (p *Program) NewMachine(cfg Config) *Machine {
	if cfg.StepLimit == 0 {
		cfg.StepLimit = 50_000_000
	}
	if cfg.Hooks == nil {
		cfg.Hooks = NopHooks{}
	}
	return &Machine{prog: p, cfg: cfg, hooks: cfg.Hooks}
}

// Run executes the named entry function on a fresh memory image with the
// given input stream, returning the execution trace. CFI violations and
// runtime faults are reported in Trace.Err (the trace up to the fault is
// valid).
func (mc *Machine) Run(entry string, inputs []int64) *Trace {
	_, finish := mc.cfg.Metrics.StartSpan("interp/run", nil)
	defer finish()
	mc.newGlobals()
	mc.trace = newTrace(mc.prog)
	mc.inputs = inputs
	mc.inPos = 0
	mc.steps = 0
	mc.depth = 0
	mc.sp = 0
	mc.fires = monitorFires{}
	f := mc.prog.byName[entry]
	if f == nil {
		mc.trace.Err = &RuntimeError{Msg: fmt.Sprintf("no entry function %q", entry)}
		return mc.trace
	}
	ret, err := mc.call(f, nil, nil)
	mc.trace.Err = err
	if err == nil && ret.Kind == KindInt {
		mc.trace.Result = ret.Int
	}
	mc.trace.Steps = mc.steps
	mc.flushMetrics()
	return mc.trace
}

// newGlobals lays out a fresh, zeroed set of globals: one object array and
// one slot array for all of them.
func (mc *Machine) newGlobals() {
	gs := mc.prog.globals
	n := 0
	for i := range gs {
		n += gs[i].layout.RuntimeSize
	}
	slots := make([]Value, n)
	mc.globals = make([]RObj, len(gs))
	for i := range gs {
		size := gs[i].layout.RuntimeSize
		mc.globals[i] = RObj{objInfo: &gs[i], Slots: slots[:size:size]}
		slots = slots[size:]
	}
}

// flushMetrics exports one run's execution counts into the telemetry
// registry (no-op without one).
func (mc *Machine) flushMetrics() {
	r := mc.cfg.Metrics
	if r == nil {
		return
	}
	r.Counter("interp/runs").Inc()
	r.Counter("interp/steps").Add(mc.steps)
	r.Histogram("interp/steps-per-run").Observe(mc.steps)
	r.Counter("interp/memops").Add(mc.trace.MemOps)
	r.Counter("interp/monitor/ptradd").Add(mc.fires.ptrAdd)
	r.Counter("interp/monitor/fieldaddr").Add(mc.fires.field)
	r.Counter("interp/monitor/ctxcall").Add(mc.fires.ctxCall)
	r.Counter("interp/monitor/ctxcheck").Add(mc.fires.ctxCheck)
	r.Counter("interp/cfi/lookups").Add(mc.fires.cfi)
}
