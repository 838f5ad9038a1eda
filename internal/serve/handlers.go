package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

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
	s.mu.Lock()
	programs := len(s.apps)
	s.mu.Unlock()
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
