// Package faultinject provides deterministic, seeded fault plans for the
// chaos differential harness (internal/chaos). A Plan arms a subset of named
// injection sites; each armed site fires exactly once, on a seed-chosen hit
// number, so a given seed always provokes the same fault at the same logical
// point of the pipeline regardless of wall-clock timing.
//
// Production layers carry an optional *Plan (nil = inert, zero overhead
// beyond a nil check) and call Fire/Err at their injection sites:
//
//   - pointsto: SolverBudget fires per worklist step and aborts the solve as
//     if its step budget were exhausted (typed pointsto.AbortError);
//   - runner: WorkerPanic fires at job start and panics inside the recovered
//     region, exercising panic rows and the panic counter;
//   - memview: SpuriousViolation fires inside a monitor hook and reports a
//     violation that no real invariant breach caused, exercising the secure
//     optimistic→fallback switch path; CorruptRecord mutates one invariant
//     record before runtime construction, exercising record validation
//     (typed memview.CorruptRecordError);
//   - analysis caches: CachePoison fails a cache computation, exercising
//     single-flight error invalidation in runner.Cache and the daemon's;
//   - persist: PersistWriteFail fails a result-store save before any byte is
//     written (the entry stays memory-only and dirty), PersistTornWrite
//     truncates a record mid-frame as if the process crashed with the rename
//     reordered before the data reached disk, and PersistBitFlip corrupts one
//     stored byte after a successful save — the latter two are discovered at
//     the next load, which must quarantine the record (typed
//     persist.CorruptEntryError) and fall back to a fresh solve.
//
// Every fire is counted into the attached telemetry registry under
// "fault/fired/<site>", so a chaos run's telemetry shows exactly which
// faults actually landed.
package faultinject

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Site names one fault-injection point in the pipeline.
type Site string

// The injection sites threaded through the solve/monitor pipeline.
const (
	// SolverBudget aborts a pointer-analysis solve mid-worklist, as if the
	// step budget were exhausted.
	SolverBudget Site = "pointsto/solver-budget"
	// WorkerPanic panics inside a runner.Map job (recovered by the pool).
	WorkerPanic Site = "runner/worker-panic"
	// SpuriousViolation makes a runtime monitor report a violation that no
	// real invariant breach caused.
	SpuriousViolation Site = "memview/spurious-violation"
	// CorruptRecord corrupts one likely-invariant record before the monitor
	// runtime is built from it.
	CorruptRecord Site = "memview/corrupt-record"
	// CachePoison fails an analysis computation inside a single-flight
	// cache; it fires once per analysis in runner.Cache and in the daemon's
	// cache (internal/serve).
	CachePoison Site = "runner/cache-poison"
	// PersistWriteFail fails a persistent result-store save before anything
	// is written (as if the disk returned EIO).
	PersistWriteFail Site = "persist/write-fail"
	// PersistTornWrite truncates a persisted record mid-frame, simulating a
	// crash where the rename landed before the data did.
	PersistTornWrite Site = "persist/torn-write"
	// PersistBitFlip flips one byte of a record after a successful save,
	// simulating at-rest media corruption.
	PersistBitFlip Site = "persist/bit-flip"
)

// Sites returns every injection site in deterministic order (the order plan
// derivation consumes seed randomness in).
func Sites() []Site {
	return []Site{SolverBudget, WorkerPanic, SpuriousViolation, CorruptRecord, CachePoison,
		PersistWriteFail, PersistTornWrite, PersistBitFlip}
}

// hitWindow bounds the 1-based hit number an armed site may fire at, chosen
// per site so faults land inside the small paper workloads (e.g. every paper
// app solves in a few hundred worklist steps, and one chaos sweep starts
// under a dozen pool jobs).
var hitWindow = map[Site]int64{
	SolverBudget:      300,
	WorkerPanic:       8,
	SpuriousViolation: 40,
	CorruptRecord:     4,
	CachePoison:       10,
	PersistWriteFail:  4,
	PersistTornWrite:  4,
	PersistBitFlip:    4,
}

// Injected is the typed error surfaced when an injected fault is reported
// through an error path (rather than a panic or a silent state change).
type Injected struct {
	Site Site
	Hit  int64 // 1-based hit number the fault fired at
}

func (e *Injected) Error() string {
	return fmt.Sprintf("faultinject: injected fault at %s (hit %d)", e.Site, e.Hit)
}

// arm is one armed site: fires exactly once, on hit number `at`.
type arm struct {
	at    int64
	hits  atomic.Int64
	fired atomic.Int64
}

// Plan is a seeded fault plan. The zero of *Plan (nil) is inert: every
// method is safe to call and reports no faults. A Plan is safe for
// concurrent use; arming is fixed at construction.
type Plan struct {
	seed    int64
	arms    map[Site]*arm
	metrics *telemetry.Registry // set before concurrent use; nil = uncounted
}

// NewPlan derives a fault plan from seed: each site is armed with
// probability one half at a hit number inside its window, and at least one
// site is always armed (a plan that cannot fire proves nothing).
func NewPlan(seed int64) *Plan {
	r := rand.New(rand.NewSource(seed))
	p := &Plan{seed: seed, arms: map[Site]*arm{}}
	for _, s := range Sites() {
		if r.Intn(2) == 1 {
			p.arms[s] = &arm{at: 1 + r.Int63n(hitWindow[s])}
		}
	}
	if len(p.arms) == 0 {
		s := Sites()[r.Intn(len(Sites()))]
		p.arms[s] = &arm{at: 1 + r.Int63n(hitWindow[s])}
	}
	return p
}

// Explicit arms exactly the given sites, each firing on its first hit. For
// focused tests.
func Explicit(sites ...Site) *Plan {
	p := &Plan{arms: map[Site]*arm{}}
	for _, s := range sites {
		p.arms[s] = &arm{at: 1}
	}
	return p
}

// ExplicitAt arms one site firing on the given 1-based hit number.
func ExplicitAt(site Site, hit int64) *Plan {
	if hit < 1 {
		hit = 1
	}
	return &Plan{arms: map[Site]*arm{site: {at: hit}}}
}

// SetMetrics attaches a telemetry registry; every fire then increments
// "fault/fired/<site>". Must be set before the plan is used concurrently.
func (p *Plan) SetMetrics(r *telemetry.Registry) {
	if p != nil {
		p.metrics = r
	}
}

// Seed returns the seed the plan was derived from (0 for Explicit plans).
func (p *Plan) Seed() int64 {
	if p == nil {
		return 0
	}
	return p.seed
}

// Armed reports whether site can ever fire under this plan.
func (p *Plan) Armed(site Site) bool {
	return p != nil && p.arms[site] != nil
}

// Fire counts one hit at site and reports whether the fault fires — true
// exactly once per armed site, on its seed-chosen hit. Safe on nil plans and
// from concurrent goroutines.
func (p *Plan) Fire(site Site) bool {
	if p == nil {
		return false
	}
	a := p.arms[site]
	if a == nil {
		return false
	}
	if a.hits.Add(1) != a.at {
		return false
	}
	a.fired.Store(a.at)
	if p.metrics != nil {
		p.metrics.Counter("fault/fired/" + string(site)).Inc()
	}
	return true
}

// Err is Fire surfaced as a typed error: *Injected when the fault fires,
// nil otherwise.
func (p *Plan) Err(site Site) error {
	if !p.Fire(site) {
		return nil
	}
	return &Injected{Site: site, Hit: p.arms[site].at}
}

// Fired reports whether site's fault has fired.
func (p *Plan) Fired(site Site) bool {
	return p != nil && p.arms[site] != nil && p.arms[site].fired.Load() != 0
}

// FiredSites lists the sites whose faults have fired, sorted.
func (p *Plan) FiredSites() []Site {
	if p == nil {
		return nil
	}
	var out []Site
	for s, a := range p.arms {
		if a.fired.Load() != 0 {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the plan deterministically: seed plus each armed site with
// its firing hit, in Sites() order.
func (p *Plan) String() string {
	if p == nil {
		return "fault plan: none"
	}
	parts := make([]string, 0, len(p.arms))
	for _, s := range Sites() {
		if a := p.arms[s]; a != nil {
			parts = append(parts, fmt.Sprintf("%s@%d", s, a.at))
		}
	}
	return fmt.Sprintf("fault plan seed=%d: %s", p.seed, strings.Join(parts, ", "))
}
