package memview

import (
	"testing"

	"repro/internal/cfi"
	"repro/internal/invariant"
)

func twoViews() (*cfi.Policy, *cfi.Policy) {
	opt := &cfi.Policy{Sites: []int{1, 2}, Targets: map[int][]string{
		1: {"good"},
		2: {"a", "b"},
	}}
	fb := &cfi.Policy{Sites: []int{1, 2}, Targets: map[int][]string{
		1: {"evil", "good"},
		2: {"a", "b", "c"},
	}}
	return opt, fb
}

// The switcher's handler answers CFI lookups from the active view: the
// optimistic one until a violation enters the switch, the fallback after.
func TestSwitchHandlerPermits(t *testing.T) {
	opt, fb := twoViews()
	sw, secret := NewSwitcher(opt, fb)
	h := sw.Handler(secret)
	if !h.Permits(1, "good") {
		t.Error("optimistic denies good")
	}
	if h.Permits(1, "evil") {
		t.Error("optimistic permits evil")
	}
	if h.Permits(99, "good") {
		t.Error("unknown site permitted")
	}
	h.OnViolation(Violation{Kind: invariant.PA, Site: 1})
	if !sw.Switched() || !h.Permits(1, "evil") {
		t.Error("the handler's violation did not install the fallback view")
	}
}

func TestSwitcherLifecycle(t *testing.T) {
	opt, fb := twoViews()
	sw, secret := NewSwitcher(opt, fb)
	if secret == 0 {
		t.Fatal("zero gate secret")
	}
	if sw.Active() != opt || sw.Switched() {
		t.Fatal("switcher must start on the optimistic view")
	}
	v := Violation{Kind: invariant.PA, Site: 42, Detail: "test"}
	if err := sw.Switch(secret, v); err != nil {
		t.Fatalf("legitimate switch rejected: %v", err)
	}
	if sw.Active() != fb || !sw.Switched() {
		t.Fatal("switch did not install fallback view")
	}
	if got := sw.Violations(); len(got) != 1 || got[0].Site != 42 {
		t.Fatalf("violations = %v", got)
	}
}

func TestSwitcherSecureGateRejectsBadSecret(t *testing.T) {
	opt, fb := twoViews()
	sw, secret := NewSwitcher(opt, fb)
	if err := sw.Switch(secret+1, Violation{}); err != ErrBadGate {
		t.Fatalf("bad-gate switch error = %v, want ErrBadGate", err)
	}
	if sw.Switched() {
		t.Fatal("illegitimate entry switched the view")
	}
	if len(sw.Violations()) != 0 {
		t.Fatal("illegitimate entry recorded a violation")
	}
}

func TestSecretsDiffer(t *testing.T) {
	opt, fb := twoViews()
	_, s1 := NewSwitcher(opt, fb)
	_, s2 := NewSwitcher(opt, fb)
	if s1 == s2 {
		t.Error("two switchers share a gate secret")
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Kind: invariant.PWC, Site: 7, Detail: "cycle formed"}
	if s := v.String(); s == "" || len(s) < 10 {
		t.Errorf("violation string = %q", s)
	}
}
