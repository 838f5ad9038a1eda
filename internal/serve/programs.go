package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/invariant"
	"repro/internal/pointsto"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// hashSource returns the content identity of a submission: the hex SHA-256
// of the source text. The client-supplied name is deliberately excluded —
// two submissions with the same bytes are the same program, whatever they
// are called, so renamed resubmissions still hit the cache.
func hashSource(src string) string {
	sum := sha256.Sum256([]byte(src))
	return hex.EncodeToString(sum[:])
}

// progName is the canonical analysis-cache identity of a content hash (the
// workload.App name the runner.Cache keys on).
func progName(hash string) string { return "prog-" + hash[:16] }

// lookupProgram returns the synthesized workload for the hash, inserting
// (and evicting, FIFO, past MaxPrograms) as needed. The bool reports
// whether the program was already present.
func (s *Server) lookupProgram(hash, src string) (*workload.App, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if app := s.apps[hash]; app != nil {
		return app, true
	}
	if len(s.apps) >= s.cfg.MaxPrograms {
		victim := s.order[0]
		s.order = s.order[1:]
		delete(s.apps, victim)
		for k := range s.results {
			if k.hash == victim {
				delete(s.results, k)
				delete(s.dirty, k)
				if s.store != nil {
					// Disk eviction rides along with memory eviction, so a
					// restart can never resurrect an entry the FIFO dropped.
					s.store.Delete(persistKey(k))
				}
			}
		}
		s.cache.Forget(progName(victim))
		s.metrics.Counter("serve/cache/programs-evicted").Inc()
	}
	app := &workload.App{Name: progName(hash), Source: src}
	s.apps[hash] = app
	s.order = append(s.order, hash)
	s.metrics.Gauge("serve/cache/programs").Set(int64(len(s.apps)))
	return app, false
}

// analysis is a served analysis plus its cache provenance.
type analysis struct {
	Res    *servedResult
	Hash   string
	Cfg    invariant.Config
	Cached bool // answered from the content-hash cache, no new solve
}

// system resolves a submission to its result snapshot: content-hash lookup
// (already-solved pairs — including warm-loaded ones — answer without
// admission or a solve), then the budgeted single-flight solve and
// projection. Every failure maps to a typed apiError:
// 400 for programs that do not compile or configs that do not parse,
// 503 kind "overloaded" for shed requests, 503 kind "budget" for solver
// budget/timeout exhaustion, 500 for anything else (e.g. injected faults).
func (s *Server) system(ctx context.Context, req submission) (*analysis, *apiError) {
	tr := telemetry.TraceFrom(ctx) // nil without tracing; every method no-ops
	name, src := req.Name, req.Source
	if src == "" {
		return nil, &apiError{Status: http.StatusBadRequest, Kind: "validation",
			Msg: "missing required field: source"}
	}
	cfg, err := parseConfig(req.Config)
	if err != nil {
		return nil, &apiError{Status: http.StatusBadRequest, Kind: "validation", Msg: err.Error()}
	}
	hash := hashSource(src)
	tr.Annotate("program", hash[:16])
	tr.Annotate("config", cfg.Name())
	app, _ := s.lookupProgram(hash, src)
	// Compile before admission: a malformed program must cost a parse, not
	// a solve slot. The module is memoized inside the App, so this is free
	// for every request after the first.
	if _, err := app.Module(); err != nil {
		s.metrics.Counter("serve/errors/compile").Inc()
		return nil, &apiError{Status: http.StatusBadRequest, Kind: "validation",
			Msg: fmt.Sprintf("program %q does not compile: %v", name, err)}
	}
	key := solvedKey{hash: hash, cfg: cfg.Name()}
	if res := s.result(key); res != nil {
		s.metrics.Counter("serve/cache/hits").Inc()
		tr.Annotate("cache", "hit")
		tr.Annotate("solver_iterations", strconv.Itoa(res.snap.SolverIterations))
		if s.cfg.SolveSteps > 0 {
			tr.Annotate("budget_steps", strconv.FormatInt(s.cfg.SolveSteps, 10))
		}
		return &analysis{Res: res, Hash: hash, Cfg: cfg, Cached: true}, nil
	}
	s.metrics.Counter("serve/cache/misses").Inc()
	tr.Annotate("cache", "miss")
	// The admission span makes queueing visible per request: a trace
	// whose serve/admission span dominates was slow because the daemon
	// was at capacity, not because its solve was expensive.
	admitCtx, _, finishAdmit := telemetry.StartSpanCtx(ctx, s.metrics, "serve/admission")
	release, apiErr := s.admit(admitCtx)
	finishAdmit()
	if apiErr != nil {
		tr.Annotate("admission", "shed")
		return nil, apiErr
	}
	tr.Annotate("admission", "admitted")
	defer release()
	s.mu.Lock()
	hold := s.testHoldSolve
	s.mu.Unlock()
	if hold != nil {
		hold()
	}
	if s.cfg.SolveTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.SolveTimeout)
		defer cancel()
	}
	// serve/solve wraps the whole cache resolution: a flight leader's trace
	// nests core/analyze and the solver phases under it, a coalesced waiter
	// nests runner/cache/wait, and a content-cache hit closes it near
	// instantly — three shapes that tell three different latency stories.
	solveCtx, _, finishSolve := telemetry.StartSpanCtx(ctx, s.metrics, "serve/solve")
	sys, err := s.cache.SystemCtx(solveCtx, app, cfg)
	finishSolve()
	if err != nil {
		if errors.Is(err, pointsto.ErrSolveAborted) {
			tr.Annotate("budget", "exhausted")
			return nil, &apiError{Status: http.StatusServiceUnavailable, Kind: "budget",
				Msg:        fmt.Sprintf("analysis exceeded its solve budget and was aborted (no partial result): %v", err),
				RetryAfter: s.cfg.RetryAfter}
		}
		return nil, &apiError{Status: http.StatusInternalServerError, Kind: "internal",
			Msg: fmt.Sprintf("analysis failed: %v", err)}
	}
	res := s.storeResult(key, sys)
	// Budget spent, in the solver's own currency (constraint iterations of
	// the optimistic stage); with a step budget configured the pair shows
	// how close this program runs to the ceiling.
	tr.Annotate("solver_iterations", strconv.Itoa(res.snap.SolverIterations))
	if s.cfg.SolveSteps > 0 {
		tr.Annotate("budget_steps", strconv.FormatInt(s.cfg.SolveSteps, 10))
	}
	return &analysis{Res: res, Hash: hash, Cfg: cfg, Cached: false}, nil
}
