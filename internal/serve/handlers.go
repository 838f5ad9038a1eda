package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
	"unsafe"

	"repro/internal/invariant"
	"repro/internal/pointsto"
	"repro/internal/telemetry"
)

// submission is the request body shared by every analysis endpoint.
type submission struct {
	// Name is a client-side label echoed in responses; it does not affect
	// the program's cache identity.
	Name string `json:"name,omitempty"`
	// Source is the MiniC program text (required).
	Source string `json:"source"`
	// Config selects the invariant configuration: baseline, ctx, pa, pwc,
	// ctx-pa, ctx-pwc, pa-pwc, all. Empty means all (full Kaleidoscope).
	Config string `json:"config,omitempty"`
}

// hashSource returns the content identity of a submission: the hex SHA-256
// of the source text. The client-supplied name is deliberately excluded —
// two submissions with the same bytes are the same program, whatever they
// are called, so renamed resubmissions still hit the cache. The digest
// reads the string's own bytes: Sum256 neither keeps nor writes its input.
func hashSource(src string) string {
	sum := sha256.Sum256(unsafe.Slice(unsafe.StringData(src), len(src)))
	return hex.EncodeToString(sum[:])
}

// analysis is a served analysis plus its cache provenance.
type analysis struct {
	Res    *servedResult
	Hash   string
	Cfg    invariant.Config
	Cached bool // answered from the content-hash cache, no new solve
}

// system resolves a submission to its result snapshot: a cache hit
// (including a warm-loaded one) answers without a compile, admission or a
// solve; a miss compiles, is admitted, and solves under the budget. Every
// failure is a typed apiError: 400 for programs that do not compile or
// configs that do not parse, 503 kind "overloaded" for shed requests, 503
// kind "budget" for budget/timeout exhaustion, 500 for anything else (e.g.
// injected faults).
func (s *Server) system(ctx context.Context, req submission) (*analysis, *apiError) {
	tr := telemetry.TraceFrom(ctx) // nil without tracing; every method no-ops
	name, src := req.Name, req.Source
	if src == "" {
		return nil, &apiError{Status: http.StatusBadRequest, Kind: "validation",
			Msg: "missing required field: source"}
	}
	cfg, err := invariant.ParseConfig(req.Config)
	if err != nil {
		return nil, &apiError{Status: http.StatusBadRequest, Kind: "validation", Msg: err.Error()}
	}
	hash := hashSource(src)
	tr.Annotate("program", hash[:16])
	tr.Annotate("config", cfg.Name())
	if res := s.cache.lookup(hash, cfg.Name()); res != nil {
		s.metrics.Counter("serve/cache/hits").Inc()
		tr.Annotate("cache", "hit")
		s.annotateBudget(tr, res)
		return &analysis{Res: res, Hash: hash, Cfg: cfg, Cached: true}, nil
	}
	// Compile before admission: a malformed program must cost a parse, not
	// a solve slot.
	prog, err := s.cache.program(ctx, hash, src)
	if err != nil {
		s.metrics.Counter("serve/errors/compile").Inc()
		return nil, &apiError{Status: http.StatusBadRequest, Kind: "validation",
			Msg: fmt.Sprintf("program %q does not compile: %v", name, err)}
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
	// serve/solve nests a flight leader's core/analyze and solver phases, or
	// a coalesced waiter's serve/cache/wait.
	solveCtx, _, finishSolve := telemetry.StartSpanCtx(ctx, s.metrics, "serve/solve")
	res, err := s.cache.solve(solveCtx, prog, cfg)
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
	s.annotateBudget(tr, res)
	return &analysis{Res: res, Hash: hash, Cfg: cfg, Cached: false}, nil
}

// annotateBudget records the budget spent, in the solver's own currency
// (constraint iterations of the optimistic stage); with a step budget
// configured the pair shows how close this program runs to the ceiling.
func (s *Server) annotateBudget(tr *telemetry.Trace, res *servedResult) {
	tr.Annotate("solver_iterations", strconv.Itoa(res.snap.SolverIterations))
	if s.cfg.SolveSteps > 0 {
		tr.Annotate("budget_steps", strconv.FormatInt(s.cfg.SolveSteps, 10))
	}
}

// analyzeResponse summarizes one analysis.
type analyzeResponse struct {
	Program          string `json:"program"` // SHA-256 content hash of the source
	Name             string `json:"name,omitempty"`
	Config           string `json:"config"`
	Cached           bool   `json:"cached"` // served without a new solve
	Objects          int    `json:"objects"`
	ConstraintNodes  int    `json:"constraint_nodes"`
	SolverIterations int    `json:"solver_iterations"`
	Invariants       int    `json:"invariants"`
	MonitorSites     int    `json:"monitor_sites"`
	ICallSites       int    `json:"icall_sites"`
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) *apiError {
	var req submission
	if apiErr := s.decode(w, r, &req); apiErr != nil {
		return apiErr
	}
	a, apiErr := s.system(r.Context(), req)
	if apiErr != nil {
		return apiErr
	}
	snap := a.Res.snap
	writeJSON(w, http.StatusOK, analyzeResponse{
		Program:          a.Hash,
		Name:             req.Name,
		Config:           a.Cfg.Name(),
		Cached:           a.Cached,
		Objects:          snap.Objects,
		ConstraintNodes:  snap.ConstraintNodes,
		SolverIterations: snap.SolverIterations,
		Invariants:       len(snap.Invariants),
		MonitorSites:     snap.MonitorSites,
		ICallSites:       len(snap.ICallSites),
	})
	return nil
}

// pointstoRequest asks for one register's points-to set. Reg "" names the
// function's return-value node.
type pointstoRequest struct {
	submission
	Fn  string `json:"fn"`
	Reg string `json:"reg,omitempty"`
}

type pointstoResponse struct {
	Program    string   `json:"program"`
	Config     string   `json:"config"`
	Fn         string   `json:"fn"`
	Reg        string   `json:"reg,omitempty"`
	Optimistic []string `json:"optimistic"` // object labels, precise while invariants hold
	Fallback   []string `json:"fallback"`   // object labels, sound always
}

func (s *Server) handlePointsTo(w http.ResponseWriter, r *http.Request) *apiError {
	var req pointstoRequest
	if apiErr := s.decode(w, r, &req); apiErr != nil {
		return apiErr
	}
	if req.Fn == "" {
		return &apiError{Status: http.StatusBadRequest, Kind: "validation",
			Msg: "missing required field: fn"}
	}
	a, apiErr := s.system(r.Context(), req.submission)
	if apiErr != nil {
		return apiErr
	}
	opt, fb := a.Res.pointsTo(req.Fn, req.Reg)
	writeJSON(w, http.StatusOK, pointstoResponse{
		Program:    a.Hash,
		Config:     a.Cfg.Name(),
		Fn:         req.Fn,
		Reg:        req.Reg,
		Optimistic: opt,
		Fallback:   fb,
	})
	return nil
}

// cfiTargetsRequest asks for CFI target sets; Site nil means every indirect
// callsite in the program.
type cfiTargetsRequest struct {
	submission
	Site *int `json:"site,omitempty"`
}

type cfiSite struct {
	Site       int      `json:"site"`
	Optimistic []string `json:"optimistic"`
	Fallback   []string `json:"fallback"`
}

type cfiTargetsResponse struct {
	Program string    `json:"program"`
	Config  string    `json:"config"`
	Sites   []cfiSite `json:"sites"`
}

func (s *Server) handleCFITargets(w http.ResponseWriter, r *http.Request) *apiError {
	var req cfiTargetsRequest
	if apiErr := s.decode(w, r, &req); apiErr != nil {
		return apiErr
	}
	a, apiErr := s.system(r.Context(), req.submission)
	if apiErr != nil {
		return apiErr
	}
	snap := a.Res.snap
	sites := snap.CFISites
	if req.Site != nil {
		site := a.Res.site(*req.Site)
		if site == nil {
			return &apiError{Status: http.StatusBadRequest, Kind: "validation",
				Msg: "no indirect callsite at instruction #" + strconv.Itoa(*req.Site)}
		}
		sites = []cfiSite{*site}
	}
	resp := cfiTargetsResponse{Program: a.Hash, Config: a.Cfg.Name(), Sites: []cfiSite{}}
	for _, site := range sites {
		resp.Sites = append(resp.Sites, cfiSite{
			Site:       site.Site,
			Optimistic: nonNil(site.Optimistic),
			Fallback:   nonNil(site.Fallback),
		})
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

type invariantRecord struct {
	Kind string `json:"kind"`
	Site int    `json:"site"`
	Desc string `json:"desc"`
}

type invariantsResponse struct {
	Program      string            `json:"program"`
	Config       string            `json:"config"`
	Invariants   []invariantRecord `json:"invariants"`
	MonitorSites int               `json:"monitor_sites"`
}

func (s *Server) handleInvariants(w http.ResponseWriter, r *http.Request) *apiError {
	var req submission
	if apiErr := s.decode(w, r, &req); apiErr != nil {
		return apiErr
	}
	a, apiErr := s.system(r.Context(), req)
	if apiErr != nil {
		return apiErr
	}
	snap := a.Res.snap
	resp := invariantsResponse{
		Program:      a.Hash,
		Config:       a.Cfg.Name(),
		Invariants:   append([]invariantRecord{}, snap.Invariants...),
		MonitorSites: snap.MonitorSites,
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// healthResponse is the /healthz body. View and Status carry the service's
// degradation state (see the package comment).
type healthResponse struct {
	Status           string `json:"status"` // "ok" | "degraded"
	View             string `json:"view"`   // "optimistic" | "fallback"
	UptimeMS         int64  `json:"uptime_ms"`
	Inflight         int    `json:"inflight"`
	Capacity         int    `json:"capacity"`
	CachedPrograms   int    `json:"cached_programs"`
	DegradedSwitches int64  `json:"degraded_switches"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) *apiError {
	s.cache.mu.Lock()
	programs := len(s.cache.progs)
	s.cache.mu.Unlock()
	status, view := "ok", "optimistic"
	if s.degraded.Load() {
		status, view = "degraded", "fallback"
	}
	writeJSON(w, http.StatusOK, healthResponse{
		Status:           status,
		View:             view,
		UptimeMS:         time.Since(s.start).Milliseconds(),
		Inflight:         len(s.sem),
		Capacity:         s.cfg.MaxInflight,
		CachedPrograms:   programs,
		DegradedSwitches: s.metrics.Counter("serve/switch/degraded").Value(),
	})
	return nil
}

// readyResponse is the /readyz body — deliberately distinct from /healthz:
// health is liveness ("the process serves"), readiness is "new analysis
// work is welcome here", false while the persistent store warm-loads at
// startup and again once shutdown drain begins.
type readyResponse struct {
	Ready           bool   `json:"ready"`
	State           string `json:"state"`            // "warming" | "ready" | "draining"
	WarmTotal       int64  `json:"warm_total"`       // records the startup scan planned to load
	WarmLoaded      int64  `json:"warm_loaded"`      // records installed into the cache
	WarmQuarantined int64  `json:"warm_quarantined"` // records quarantined during warm-load
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) *apiError {
	st := s.state.Load()
	resp := readyResponse{
		Ready:           st == stateReady,
		State:           stateName(st),
		WarmTotal:       s.warmTotal.Load(),
		WarmLoaded:      s.warmLoaded.Load(),
		WarmQuarantined: s.warmQuarantined.Load(),
	}
	status := http.StatusOK
	if !resp.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
	return nil
}

func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) *apiError {
	// The registry's span log is capped at the source (telemetry.SetSpanCap,
	// drops counted in telemetry/spans/dropped), so serving the snapshot
	// whole is safe by construction — no per-endpoint stripping needed.
	snap := s.metrics.Snapshot()
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(snap.Prometheus())
		return nil
	}
	writeJSON(w, http.StatusOK, snap)
	return nil
}

// handleTracez serves the flight recorder: with no query, the index of
// retained request traces (recent ring + slowest shortlist); with ?id=, one
// retained trace as Chrome trace-event JSON, loadable in Perfetto.
func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) *apiError {
	if id := r.URL.Query().Get("id"); id != "" {
		if s.flight == nil {
			return &apiError{Status: http.StatusNotFound, Kind: "not-found",
				Msg: "tracing is disabled on this daemon"}
		}
		e, found := s.flight.Lookup(id)
		if !found {
			return &apiError{Status: http.StatusNotFound, Kind: "not-found",
				Msg: fmt.Sprintf("no retained trace %q (evicted from the flight recorder, or never recorded)", id)}
		}
		data, err := e.ChromeTrace()
		if err != nil {
			return &apiError{Status: http.StatusInternalServerError, Kind: "internal",
				Msg: "trace export failed: " + err.Error()}
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
		return nil
	}
	if s.flight == nil {
		writeJSON(w, http.StatusOK, telemetry.FlightIndex{
			Recent: []telemetry.TraceSummary{}, Slowest: []telemetry.TraceSummary{}})
		return nil
	}
	writeJSON(w, http.StatusOK, s.flight.Index())
	return nil
}

func nonNil(ss []string) []string {
	if ss == nil {
		return []string{}
	}
	return ss
}
