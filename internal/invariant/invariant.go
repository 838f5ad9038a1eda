// Package invariant defines the likely-invariant records produced by the
// optimistic pointer analysis and consumed by the runtime (monitors, memory
// views). The three kinds mirror §4.2–§4.4 of the paper.
package invariant

import (
	"fmt"
	"strings"
)

// Kind identifies a likely-invariant policy.
type Kind int

// The three likely-invariant policies of the paper.
const (
	// PA: a pointer with an arbitrary offset added accesses array elements
	// only, never fields of a plain struct object (§4.2).
	PA Kind = iota
	// PWC: positive-weight cycles in the constraint graph stem from
	// imprecision and do not occur at runtime (§4.3).
	PWC
	// Ctx: precision-critical arguments are not redirected to other objects
	// inside the called function (§4.4).
	Ctx
)

func (k Kind) String() string {
	switch k {
	case PA:
		return "pointer-arithmetic"
	case PWC:
		return "positive-weight-cycle"
	case Ctx:
		return "context-sensitivity"
	}
	return fmt.Sprintf("invariant.Kind(%d)", int(k))
}

// Config selects which likely-invariant policies the optimistic analysis
// assumes. The zero value is the baseline (no invariants).
type Config struct {
	PA  bool
	PWC bool
	Ctx bool
}

// All returns the full-Kaleidoscope configuration.
func All() Config { return Config{PA: true, PWC: true, Ctx: true} }

// Any reports whether at least one policy is enabled.
func (c Config) Any() bool { return c.PA || c.PWC || c.Ctx }

// Assumes reports whether the configuration enables policy k.
func (c Config) Assumes(k Kind) bool {
	switch k {
	case PA:
		return c.PA
	case PWC:
		return c.PWC
	case Ctx:
		return c.Ctx
	}
	return false
}

// Name renders the paper's configuration label (Baseline, Kd-Ctx, ...,
// Kaleidoscope).
func (c Config) Name() string {
	switch {
	case !c.Any():
		return "Baseline"
	case c.PA && c.PWC && c.Ctx:
		return "Kaleidoscope"
	case c.Ctx && c.PA:
		return "Kd-Ctx-PA"
	case c.Ctx && c.PWC:
		return "Kd-Ctx-PWC"
	case c.PA && c.PWC:
		return "Kd-PA-PWC"
	case c.Ctx:
		return "Kd-Ctx"
	case c.PA:
		return "Kd-PA"
	default:
		return "Kd-PWC"
	}
}

// ParseConfig is the inverse of Name. It accepts, case-insensitively, every
// Name label, the same label without its "Kd-" prefix (ctx, pa-pwc, ...),
// and the aliases none (Baseline) and all or "" (Kaleidoscope).
func ParseConfig(name string) (Config, error) {
	switch {
	case name == "" || strings.EqualFold(name, "all"):
		return All(), nil
	case strings.EqualFold(name, "none"):
		return Config{}, nil
	}
	for _, c := range Ablations() {
		label := c.Name()
		if strings.EqualFold(name, label) || strings.EqualFold(name, strings.TrimPrefix(label, "Kd-")) {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("unknown config %q (want baseline|ctx|pa|pwc|ctx-pa|ctx-pwc|pa-pwc|all)", name)
}

// Ablations lists the eight configurations of Table 3 / Figures 10–13, in
// the paper's column order.
func Ablations() []Config {
	return []Config{
		{},
		{Ctx: true},
		{PA: true},
		{PWC: true},
		{Ctx: true, PA: true},
		{Ctx: true, PWC: true},
		{PA: true, PWC: true},
		All(),
	}
}

// Record is one likely invariant assumed by an optimistic analysis run.
type Record struct {
	Kind Kind
	// Site is the primary instruction ID: the PtrAdd for PA, a FieldAddr
	// inside the cycle for PWC, the critical store/return for Ctx.
	Site int
	// FilteredObjs (PA) lists the abstract object IDs optimistically removed
	// from the points-to set of the arithmetic pointer.
	FilteredObjs []int
	// CycleFieldSites (PWC) lists the FieldAddr instruction IDs participating
	// in the positive-weight cycle.
	CycleFieldSites []int
	// Callsites (Ctx) lists the call instruction IDs whose actuals were wired
	// context-sensitively.
	Callsites []int
	// CtxParams (Ctx) lists the precision-critical parameter positions:
	// [base, value] for stores, [param] for returns.
	CtxParams []int
	// CtxSamples (Ctx) tells the monitor how to read the current value of
	// each critical parameter at the check site, aligned with CtxParams.
	CtxSamples []CtxSample
	// Desc is a human-readable summary for reports.
	Desc string
}

// CtxSample tells a Ctx monitor how to observe one critical parameter: read
// register Reg and, if Deref is set, load through it (parameters that are
// assigned in the callee live in a stack slot; Reg then holds the slot
// address).
type CtxSample struct {
	Reg   string
	Deref bool
}
