package pointsto

import (
	"testing"

	"repro/internal/invariant"
	"repro/internal/minic"
	"repro/internal/workload"
)

func prepSolve(t *testing.T, src string, cfg invariant.Config, prep bool) (*Result, Stats) {
	t.Helper()
	m, err := minic.Compile("prep", src)
	if err != nil {
		t.Fatal(err)
	}
	a := New(m, cfg)
	a.SetPrep(prep)
	r := a.Solve()
	return r, r.Stats()
}

// Register-level copy chains (direct call parameter/return wiring) are the
// HVN substitution target: pick2/pick3 thread a pointer through several
// pointer-equivalent registers.
const chainSrc = `
int x;
int y;
int* pick2(int* p) { return p; }
int* pick3(int* p) { return pick2(p); }
int main() {
  int* a;
  int* b;
  a = &x;
  if (input() % 2 == 0) { a = &y; }
  b = pick3(a);
  a = pick3(b);
  return *a + *b;
}
`

// TestPrepMergesEquivalentNodes: prep is on by default (the prep-on leg is a
// plain New), merges the chain offline, and changes nothing observable.
func TestPrepMergesEquivalentNodes(t *testing.T) {
	m, err := minic.Compile("prep", chainSrc)
	if err != nil {
		t.Fatal(err)
	}
	rOn := New(m, invariant.Config{}).Solve()
	rOff, _ := prepSolve(t, chainSrc, invariant.Config{}, false)
	if sOn := rOn.Stats(); sOn.PrepMerged+sOn.HCDCollapses == 0 {
		t.Errorf("prep found nothing to merge offline: %+v", sOn)
	}
	assertSameResult(t, rOff, rOn)
}

// MiniC locals live in memory, so the mutual assignment of p and q below is
// a copy cycle through loads and stores — invisible to offline value
// numbering over registers, but predicted exactly by the offline HCD ref
// graph and collapsed online in O(1) when the stack objects arrive.
const hcdSrc = `
int x;
int main() {
  int* p;
  int* q;
  p = &x;
  while (input()) {
    q = p;
    p = q;
  }
  return *p;
}
`

func TestHCDCollapsesMemoryCycle(t *testing.T) {
	rOn, sOn := prepSolve(t, hcdSrc, invariant.Config{}, true)
	rOff, _ := prepSolve(t, hcdSrc, invariant.Config{}, false)
	if sOn.HCDCollapses == 0 {
		t.Errorf("no online HCD collapses on a memory cycle: %+v", sOn)
	}
	assertSameResult(t, rOff, rOn)
}

// TestPrepRespectsPWCPolicy: on a PWC-heavy app (mbedtls's heap wrappers),
// prep must defer merges that would cross Field-Of edge groups
// (PrepDeferred > 0) so the optimistic policy sees every positive-weight
// cycle intact, and the invariant records must be identical with prep on
// and off under every configuration.
func TestPrepRespectsPWCPolicy(t *testing.T) {
	src := workload.MbedTLS().Source
	for _, cfg := range []invariant.Config{{}, {PWC: true}, {PA: true, PWC: true, Ctx: true}} {
		rOn, sOn := prepSolve(t, src, cfg, true)
		rOff, sOff := prepSolve(t, src, cfg, false)
		if sOn.PrepDeferred == 0 {
			t.Errorf("cfg %+v: prep deferred no merges on a PWC-heavy app", cfg)
		}
		if cfg.PWC && (sOn.PWCs == 0 || sOn.PWCs != sOff.PWCs) {
			t.Errorf("cfg %+v: PWC count diverged: prep %d, no-prep %d", cfg, sOn.PWCs, sOff.PWCs)
		}
		assertSameResult(t, rOff, rOn)
		recsOn := rOn.Invariants()
		recsOff := rOff.Invariants()
		if len(recsOn) != len(recsOff) {
			t.Errorf("cfg %+v: %d invariant records with prep, %d without", cfg, len(recsOn), len(recsOff))
		}
	}
}

// assertSameResult compares the externally observable fixpoints of two runs
// via the differential-oracle fingerprint.
func assertSameResult(t *testing.T, want, got *Result) {
	t.Helper()
	fw, fg := fingerprint(want), fingerprint(got)
	if fw != fg {
		t.Errorf("results diverge:\n%s", diffLines(fw, fg))
	}
}

// TestDeltaAutoMode: below the threshold, auto mode must disable delta
// bookkeeping; an explicit SetDelta(true) overrides it.
func TestDeltaAutoMode(t *testing.T) {
	m, err := minic.Compile("auto", chainSrc)
	if err != nil {
		t.Fatal(err)
	}
	auto := New(m, invariant.Config{})
	auto.Solve()
	if !auto.noDelta {
		t.Errorf("auto mode kept delta bookkeeping on a %d-node graph (threshold %d)",
			len(auto.nodes), DeltaAutoThreshold)
	}
	forced := New(m, invariant.Config{})
	forced.SetDelta(true)
	forced.Solve()
	if forced.noDelta {
		t.Error("SetDelta(true) did not override auto mode")
	}
	off := New(m, invariant.Config{})
	off.SetDelta(false)
	off.Solve()
	if !off.noDelta {
		t.Error("SetDelta(false) did not disable delta")
	}
}
