package memview

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/cfi"
	"repro/internal/faultinject"
	"repro/internal/interp"
	"repro/internal/invariant"
	"repro/internal/pointsto"
	"repro/internal/workload"
)

// A storm of concurrent legitimate violations must produce exactly one view
// transition while recording every violation (run under -race: this is also
// the regression test for the unguarded-switcher data race).
func TestSwitcherViolationStorm(t *testing.T) {
	opt, fb := twoViews()
	sw, secret := NewSwitcher(opt, fb)
	const goroutines = 32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			err := sw.Switch(secret, Violation{Kind: invariant.PA, Site: g, Detail: "storm"})
			if err != nil {
				t.Errorf("goroutine %d: legitimate switch rejected: %v", g, err)
			}
		}(g)
	}
	wg.Wait()
	if !sw.Switched() || sw.Active() != fb {
		t.Fatal("storm did not land on the fallback view")
	}
	got := sw.Violations()
	if len(got) != goroutines {
		t.Fatalf("recorded %d violations, want %d (all of them)", len(got), goroutines)
	}
	seen := map[int]bool{}
	for _, v := range got {
		seen[v.Site] = true
	}
	if len(seen) != goroutines {
		t.Fatalf("violations lost or duplicated: %d distinct sites", len(seen))
	}
}

// Concurrent bad-gate attempts during a storm are all rejected and counted,
// and never flip the view.
func TestSwitcherConcurrentBadGates(t *testing.T) {
	opt, fb := twoViews()
	sw, secret := NewSwitcher(opt, fb)
	const attempts = 16
	var wg sync.WaitGroup
	for g := 0; g < attempts; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := sw.Switch(secret^0xdead, Violation{}); !errors.Is(err, ErrBadGate) {
				t.Errorf("bad gate accepted: %v", err)
			}
		}()
	}
	wg.Wait()
	if sw.Switched() {
		t.Fatal("illegitimate entries switched the view")
	}
	if got := sw.BadGateAttempts(); got != attempts {
		t.Errorf("BadGateAttempts = %d, want %d", got, attempts)
	}
	if len(sw.Violations()) != 0 {
		t.Error("illegitimate entries recorded violations")
	}
}

// An injected CorruptRecord fault must be caught by record validation as a
// typed *CorruptRecordError — building the runtime refuses rather than
// wiring a monitor from a bad record.
func TestBuildRuntimeRejectsCorruptRecord(t *testing.T) {
	opt := workload.MbedTLS().MustModule()
	r := pointsto.New(opt, invariant.All()).Solve()
	if len(r.Invariants()) == 0 {
		t.Fatal("workload records no invariants; corrupt-record path untestable")
	}
	sw, secret := NewSwitcher(&cfi.Policy{}, &cfi.Policy{})
	plan := faultinject.Explicit(faultinject.CorruptRecord)
	rt, err := BuildRuntime(r, sw.Handler(secret), plan)
	if rt != nil {
		t.Fatal("corrupt record still produced a runtime")
	}
	var cre *CorruptRecordError
	if !errors.As(err, &cre) {
		t.Fatalf("err = %v, want *CorruptRecordError", err)
	}
	if cre.Reason == "" {
		t.Error("corrupt record error carries no reason")
	}
	// Clean build from the same (unmutated) result must still succeed: the
	// corruption happened in a copy.
	if _, err := BuildRuntime(r, sw.Handler(secret), nil); err != nil {
		t.Fatalf("clean rebuild failed: %v", err)
	}
}

// Structural validation catches each per-kind corruption class.
func TestValidateRecord(t *testing.T) {
	cases := []struct {
		name string
		rec  invariant.Record
		ok   bool
	}{
		{"pa-valid", invariant.Record{Kind: invariant.PA, Site: 3, FilteredObjs: []int{0, 4}}, true},
		{"pa-object-out-of-range", invariant.Record{Kind: invariant.PA, Site: 3, FilteredObjs: []int{5}}, false},
		{"pa-negative-object", invariant.Record{Kind: invariant.PA, Site: 3, FilteredObjs: []int{-1}}, false},
		{"negative-site", invariant.Record{Kind: invariant.PA, Site: -4}, false},
		{"pwc-valid", invariant.Record{Kind: invariant.PWC, Site: 1, CycleFieldSites: []int{1, 2}}, true},
		{"pwc-empty-cycle", invariant.Record{Kind: invariant.PWC, Site: 1}, false},
		{"pwc-negative-field-site", invariant.Record{Kind: invariant.PWC, Site: 1, CycleFieldSites: []int{-2}}, false},
		{"ctx-valid", invariant.Record{Kind: invariant.Ctx, Site: 2, CtxParams: []int{0}, CtxSamples: []invariant.CtxSample{{}}}, true},
		{"ctx-misaligned-samples", invariant.Record{Kind: invariant.Ctx, Site: 2, CtxParams: []int{0, 1}, CtxSamples: []invariant.CtxSample{{}}}, false},
		{"ctx-negative-callsite", invariant.Record{Kind: invariant.Ctx, Site: 2, Callsites: []int{-7}}, false},
		{"unknown-kind", invariant.Record{Kind: invariant.Kind(99), Site: 0}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reason := validateRecord(tc.rec, 5)
			if tc.ok && reason != "" {
				t.Errorf("valid record rejected: %s", reason)
			}
			if !tc.ok && reason == "" {
				t.Error("corrupt record accepted")
			}
		})
	}
}

// A spurious-violation fault inside a monitor hook must degrade the system
// exactly like a real violation: one switch, violation recorded with the
// injected detail.
func TestInjectedSpuriousViolationSwitches(t *testing.T) {
	m := workload.MbedTLS().MustModule()
	r := pointsto.New(m, invariant.All()).Solve()
	sw, secret := NewSwitcher(&cfi.Policy{}, &cfi.Policy{})
	plan := faultinject.Explicit(faultinject.SpuriousViolation)
	rt, err := BuildRuntime(r, sw.Handler(secret), plan)
	if err != nil {
		t.Fatal(err)
	}
	// Drive one monitored check; the armed fault fires on the first hit.
	rt.PtrAdd(7, interp.Value{})
	if !sw.Switched() {
		t.Fatal("spurious violation did not switch the view")
	}
	got := sw.Violations()
	if len(got) != 1 || got[0].Site != 7 {
		t.Fatalf("violations = %v", got)
	}
	if want := "injected spurious monitor violation"; len(got[0].Detail) < len(want) {
		t.Errorf("detail = %q", got[0].Detail)
	}
	if !plan.Fired(faultinject.SpuriousViolation) {
		t.Error("plan does not record the fire")
	}
}
