package chaos

// The restart leg extends the differential harness across a daemon
// generation boundary: generation A serves the paper apps through a real
// serve.Server backed by the persistent store with a fault plan armed
// (including the persist/* disk faults), then "crashes" — no drain, no
// dirty flush, the disk keeps exactly what the faults left there — and
// generation B, fault free on the same directory, warm-loads and re-serves.
// The robustness contract is the same taxonomy as the in-process leg, read
// on the wire:
//
//	(a) Identical — generation B answers byte-for-byte what generation A's
//	    cached responses said, straight from the warm-loaded snapshot;
//	(b) Fallback  — the record was lost (write-fail) or quarantined
//	    (torn-write, bit-flip, any corruption), and generation B re-solved:
//	    byte-identical answers except /analyze's cached=false;
//	(c) TypedError — either generation refused with a typed JSON error
//	    (budget, overloaded, internal carrying an injected fault, ...);
//
// anything else — a decode of damaged bytes, a divergent answer, an
// untyped failure — is Unsound and fails the harness.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"

	"repro/internal/faultinject"
	"repro/internal/serve"
	"repro/internal/workload"
)

// RestartReport is the outcome of one crash/restart differential.
type RestartReport struct {
	Seed        int64
	Plan        string
	Fired       []faultinject.Site
	Results     []AppResult
	WarmLoaded  int64 // records generation B installed from disk
	Quarantined int64 // records generation B quarantined during warm-load
}

// Failures returns the results that violate the robustness contract.
func (r *RestartReport) Failures() []AppResult {
	var out []AppResult
	for _, a := range r.Results {
		if a.Outcome == Unsound {
			out = append(out, a)
		}
	}
	return out
}

// Text renders the report for human consumption.
func (r *RestartReport) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos restart seed %d: %s\n", r.Seed, r.Plan)
	if len(r.Fired) > 0 {
		parts := make([]string, len(r.Fired))
		for i, s := range r.Fired {
			parts[i] = string(s)
		}
		fmt.Fprintf(&b, "  fired: %s\n", strings.Join(parts, ", "))
	}
	fmt.Fprintf(&b, "  warm-loaded=%d quarantined=%d\n", r.WarmLoaded, r.Quarantined)
	for _, a := range r.Results {
		fmt.Fprintf(&b, "  %-12s %-11s", a.App, a.Outcome)
		if a.Detail != "" {
			fmt.Fprintf(&b, " %s", a.Detail)
		}
		if a.Err != nil {
			fmt.Fprintf(&b, " (%v)", a.Err)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// restartProbe is one deterministic wire query of an app.
type restartProbe struct {
	path string
	body map[string]any
}

// restartProbes is the query surface compared across the generation
// boundary: the analysis summary, every CFI site's target sets, and the
// invariant inventory — the same snapshot fields a warm load must preserve.
func restartProbes(src string) []restartProbe {
	return []restartProbe{
		{"/analyze", map[string]any{"source": src}},
		{"/cfi-targets", map[string]any{"source": src}},
		{"/invariants", map[string]any{"source": src}},
	}
}

// postJSON drives one request through the in-process daemon.
func postJSON(h http.Handler, path string, v any) (int, []byte) {
	payload, err := json.Marshal(v)
	if err != nil {
		return 0, nil
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(payload))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// typedWireError reports whether raw is a well-formed typed JSON error (the
// daemon's contract for every non-2xx), returning it as an error value.
func typedWireError(path string, status int, raw []byte) (error, bool) {
	var body struct {
		Error string `json:"error"`
		Kind  string `json:"kind"`
	}
	if err := json.Unmarshal(raw, &body); err != nil || body.Kind == "" {
		return nil, false
	}
	return fmt.Errorf("%s: %d %s: %s", path, status, body.Kind, body.Error), true
}

// RunRestart derives the fault plan from seed and runs one crash/restart
// differential against the store at dir (which must be empty or absent;
// each run is one daemon lifetime).
func RunRestart(seed int64, dir string, o Options) (*RestartReport, error) {
	rep, err := RunRestartPlan(faultinject.NewPlan(seed), dir, o)
	if err != nil {
		return nil, err
	}
	rep.Seed = seed
	return rep, nil
}

// RunRestartPlan is RunRestart under an explicit plan (the per-site chaos
// tests arm exactly one persist fault each).
func RunRestartPlan(plan *faultinject.Plan, dir string, o Options) (*RestartReport, error) {
	o = o.withDefaults()
	plan.SetMetrics(o.Metrics)
	apps := workload.Apps()
	rep := &RestartReport{Seed: plan.Seed(), Plan: plan.String()}

	// Generation A: fault plan armed, persistent store attached. Tracing
	// off: trace ids live in headers, but the flight recorder is outside
	// this leg's contract.
	genA := serve.New(serve.Config{CacheDir: dir, Faults: plan, DisableTracing: true})
	if err := genA.PersistError(); err != nil {
		return nil, fmt.Errorf("chaos restart: generation A store: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), o.Timeout)
	defer cancel()
	if err := genA.WaitWarm(ctx); err != nil {
		return nil, fmt.Errorf("chaos restart: generation A warm-load: %w", err)
	}
	refs := make([]restartRef, len(apps))
	for i, app := range apps {
		probes := restartProbes(app.Source)
		refs[i].cold = make([][]byte, len(probes))
		refs[i].warm = make([][]byte, len(probes))
		for pass := 0; pass < 2; pass++ {
			for j, p := range probes {
				status, raw := postJSON(genA, p.path, p.body)
				if status != http.StatusOK {
					if werr, ok := typedWireError(p.path, status, raw); ok {
						refs[i].err = werr
					} else {
						refs[i].unsound = fmt.Sprintf("generation A %s: untyped %d response %q", p.path, status, raw)
					}
					break
				}
				if pass == 0 {
					refs[i].cold[j] = raw
				} else {
					refs[i].warm[j] = raw
				}
			}
			if refs[i].err != nil || refs[i].unsound != "" {
				break
			}
		}
	}
	// Crash: generation A is abandoned mid-life. No BeginDrain, no
	// FlushDirty — a record a persist fault kept off disk stays off disk.
	rep.Fired = plan.FiredSites()

	// Generation B: same store, no faults.
	genB := serve.New(serve.Config{CacheDir: dir, DisableTracing: true})
	if err := genB.PersistError(); err != nil {
		return nil, fmt.Errorf("chaos restart: generation B store: %w", err)
	}
	if err := genB.WaitWarm(ctx); err != nil {
		return nil, fmt.Errorf("chaos restart: generation B warm-load: %w", err)
	}
	rep.WarmLoaded = genB.Metrics().Counter("persist/warm-loaded").Value()
	rep.Quarantined = genB.Metrics().Counter("persist/corrupt-quarantined").Value()

	for i, app := range apps {
		ar := classifyRestart(genB, app, refs[i])
		ar.App = app.Name
		o.Metrics.Counter("chaos/restart/outcome/" + ar.Outcome.String()).Inc()
		rep.Results = append(rep.Results, ar)
	}
	return rep, nil
}

// restartRef is generation A's observed behavior for one app: either its
// reference response bodies, or how it refused.
type restartRef struct {
	err        error    // typed wire error observed on generation A
	unsound    string   // evidence of a contract violation on generation A
	cold, warm [][]byte // per-probe bodies: fresh-solve form, cached form
}

func classifyRestart(genB http.Handler, app *workload.App, ref restartRef) AppResult {
	if ref.unsound != "" {
		return AppResult{Outcome: Unsound, Detail: ref.unsound}
	}
	if ref.err != nil {
		// Generation A never produced this app's artifacts; the contract was
		// already settled (typed refusal) before the restart.
		return AppResult{Outcome: TypedError, Err: ref.err}
	}
	warmIdentical, coldIdentical := true, true
	for j, p := range restartProbes(app.Source) {
		status, raw := postJSON(genB, p.path, p.body)
		if status != http.StatusOK {
			if werr, ok := typedWireError(p.path, status, raw); ok {
				return AppResult{Outcome: TypedError, Err: werr}
			}
			return AppResult{Outcome: Unsound,
				Detail: fmt.Sprintf("generation B %s: untyped %d response %q", p.path, status, raw)}
		}
		if !bytes.Equal(raw, ref.warm[j]) {
			warmIdentical = false
		}
		if !bytes.Equal(raw, ref.cold[j]) {
			coldIdentical = false
		}
	}
	switch {
	case warmIdentical:
		return AppResult{Outcome: Identical, Detail: "warm-served byte-identical across restart"}
	case coldIdentical:
		return AppResult{Outcome: Fallback, Detail: "record lost or quarantined; re-solved byte-identical"}
	default:
		return AppResult{Outcome: Unsound, Detail: "responses diverged across restart"}
	}
}
