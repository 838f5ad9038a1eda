package pointsto

import (
	"context"
	"testing"

	"repro/internal/invariant"
	"repro/internal/minic"
	"repro/internal/workload"
)

// FuzzSolverEquivalence drives the differential oracle from fuzz-generated
// mini-C programs: for a random well-formed module, every propagation mode
// (delta, full) and preprocessing mode (prep on/off) must produce an
// identical Result, under the invariant configuration selected by cfgBits,
// and restoring every invariant of that Result must give back a fresh
// fallback solve. The generator (workload.RandomProgram) emits the
// pointer-analysis-relevant constructs — multi-level pointers,
// struct fields holding function pointers, heap wrappers, arbitrary
// arithmetic, indirect calls — so the fuzzer explores solver interleavings
// the hand-written fixtures do not pin down.
func FuzzSolverEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(2), uint8(7))
	f.Add(int64(1337), uint8(1))
	f.Add(int64(-99), uint8(2))
	f.Add(int64(424242), uint8(4))
	// Seed 11 generates a program whose *pp store/load traffic merges nodes
	// in the offline prep stage (a prep-merged cycle), pinning the prep-on
	// variants to corpus coverage from the first run.
	f.Add(int64(11), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, cfgBits uint8) {
		src := workload.RandomProgram(seed)
		m, err := minic.Compile("fuzz", src)
		if err != nil {
			t.Fatalf("generated program does not compile (seed %d): %v\n%s", seed, err, src)
		}
		cfg := invariant.Config{
			PA:  cfgBits&1 != 0,
			PWC: cfgBits&2 != 0,
			Ctx: cfgBits&4 != 0,
		}
		ref := fingerprint(solveVariant(m, cfg, false, false))
		for _, v := range []struct {
			label       string
			delta, prep bool
		}{
			{"delta", true, false},
			{"full+prep", false, true},
			{"delta+prep", true, true},
		} {
			if got := fingerprint(solveVariant(m, cfg, v.delta, v.prep)); got != ref {
				t.Errorf("seed %d cfg %+v: %s diverges from full+no-prep:\n%s",
					seed, cfg, v.label, diffLines(ref, got))
			}
		}
		// Restoring every invariant gives back the fallback view.
		fallback := ref
		if cfg.Any() {
			fallback = fingerprint(solveVariant(m, invariant.Config{}, false, false))
		}
		derived, err := solveVariant(m, cfg, true, true).RestoreAll(context.Background(), Budget{})
		if err != nil {
			t.Fatalf("seed %d cfg %+v: RestoreAll: %v", seed, cfg, err)
		}
		if got := fingerprint(derived); got != fallback {
			t.Errorf("seed %d cfg %+v: RestoreAll differs from a fresh fallback solve:\n%s",
				seed, cfg, diffLines(fallback, got))
		}
		if t.Failed() {
			t.Logf("program:\n%s", src)
		}
	})
}
