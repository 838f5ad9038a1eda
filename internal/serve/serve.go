// Package serve is the analysis-as-a-service layer behind cmd/kscope-serve:
// a long-running HTTP/JSON daemon that accepts MiniC programs and answers
// points-to, CFI-target, and invariant queries on demand instead of per
// batch invocation.
//
// The request lifecycle is admission → content-hash cache → single-flight
// solve → budgeted analysis → response:
//
//   - A bounded admission semaphore (Config.MaxInflight) caps concurrent
//     solves; a request that cannot get a slot within Config.QueueTimeout is
//     shed with a typed 503 and a Retry-After hint.
//   - Submissions are identified by the SHA-256 of their source; with the
//     invariant configuration that hash keys the daemon's one cache
//     (cache.go), so a repeated submission (whatever its claimed name) is
//     answered from its snapshot without a compile, admission or a second
//     solve, and identical concurrent submissions coalesce into one
//     analysis per (program, config), which derives its own fallback.
//   - Every solve runs under the per-stage step budget and wall-clock
//     timeout of the server; an exhausted budget is a typed 503
//     (kind "budget"), never a partial result (pointsto.ErrSolveAborted).
//
// Overload degrades the way the memview Switcher degrades a hardened
// execution: the server starts on its optimistic view (requests queue
// politely for a slot) and a shed request switches it to the fallback view,
// where uncached work is rejected immediately while already-solved programs
// keep answering from the cache. Unlike the Switcher's one-way gate the
// service switch is reversible — the next admitted request switches back —
// because an overloaded server, unlike a violated invariant, heals.
// Transitions count into "serve/switch/degraded" and
// "serve/switch/recovered"; /healthz reports the current view.
//
// With Config.CacheDir set the daemon is additionally crash-safe: the cache
// writes every solved snapshot (see snapshot.go) through to internal/persist's
// checksummed atomic-write store, a restart warm-loads those records before
// /readyz reports ready, and any record that fails verification is
// quarantined and transparently re-solved — a damaged disk can cost a daemon
// warmth, never correctness.
// Shutdown is symmetric: BeginDrain flips /readyz to 503 and refuses new
// POST work with a typed "draining" error while in-flight requests finish,
// then FlushDirty retries any record whose earlier save failed.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/persist"
	"repro/internal/pointsto"
	"repro/internal/telemetry"
)

// Config configures a Server. The zero value gets sensible defaults from
// New (documented per field).
type Config struct {
	// Metrics receives the serve/* instruments and is attached to every
	// analysis. nil creates a private registry (exposed via /metricsz).
	Metrics *telemetry.Registry

	// MaxBodyBytes caps a request body; beyond it the request is refused
	// with 413. Default 1 MiB.
	MaxBodyBytes int64

	// MaxInflight bounds concurrently admitted solves. Default GOMAXPROCS.
	MaxInflight int

	// QueueTimeout is how long an admission-blocked request waits for a
	// slot before being shed with 503. Default 2s. In the degraded view the
	// wait is skipped entirely.
	QueueTimeout time.Duration

	// SolveSteps bounds each solver stage of an admitted analysis
	// (pointsto.Budget.MaxSteps): the optimistic solve and the fallback
	// stage, which is the restore's re-solve (a fresh solve without
	// invariants); 0 = unlimited. Exhaustion is a typed 503.
	SolveSteps int64

	// SolveTimeout bounds an admitted analysis' wall clock; 0 = unlimited.
	// Expiry surfaces exactly like budget exhaustion (typed 503).
	SolveTimeout time.Duration

	// MaxPrograms caps distinct cached programs; inserting beyond it evicts
	// the oldest submission (and its solved analyses). Default 128.
	MaxPrograms int

	// RetryAfter is the hint sent with every 503 (Retry-After header and
	// retry_after_ms field). Default 1s.
	RetryAfter time.Duration

	// Faults optionally arms fault injection on the analysis pipeline
	// (CachePoison, SolverBudget), for chaos-testing the daemon.
	Faults *faultinject.Plan

	// AccessLog, when non-nil, receives one JSON line per finished request
	// (time, trace id, method, route, status, latency). Writes are
	// serialized by the server, so any io.Writer works.
	AccessLog io.Writer

	// TraceRecent and TraceSlowest size the flight recorder behind /tracez:
	// the last TraceRecent finished request traces stay browsable, and of
	// the traces aging out of that ring the TraceSlowest slowest are kept
	// anyway. Defaults 64 and 8.
	TraceRecent  int
	TraceSlowest int

	// DisableTracing turns off per-request traces and the flight recorder.
	// Spans then record into the registry (bounded by its span cap), the
	// X-Kscope-Trace header is not emitted, and /tracez serves an empty
	// index. Analysis responses are byte-identical either way — tracing is
	// a pure observer, which TestTracingByteIdentity asserts.
	DisableTracing bool

	// CacheDir, when non-empty, backs the analysis cache with the
	// crash-safe persistent store (internal/persist): every solved analysis
	// is projected to its result snapshot and spilled to disk keyed by
	// content hash + config; a restarted daemon warm-loads the store
	// (bounded by MaxPrograms, FIFO-coherent with live eviction) before
	// /readyz reports ready; and a record that fails its checksum or
	// cross-checks is quarantined and transparently re-solved. Empty (the
	// default) keeps the daemon memory-only. Open failures are recorded in
	// PersistError — the daemon still comes up, memory-only.
	CacheDir string
}

// TraceHeader is the request/response header carrying the trace identity: a
// request may supply its own (ValidTraceID) and every traced response echoes
// the id under which the request's trace is retained.
const TraceHeader = "X-Kscope-Trace"

// Server is the analysis-as-a-service daemon. Create with New; it
// implements http.Handler. Safe for concurrent use.
type Server struct {
	cfg     Config
	metrics *telemetry.Registry
	cache   *cache                    // the one (content hash, config) → snapshot cache
	flight  *telemetry.FlightRecorder // retained request traces (nil = tracing disabled)
	sem     chan struct{}             // admission slots
	mux     *http.ServeMux
	start   time.Time
	logMu   sync.Mutex // serializes AccessLog writes

	// degraded is the service view: false = optimistic (queue for a slot),
	// true = fallback (shed uncached work immediately). See package doc.
	degraded atomic.Bool

	// persistErr records why Config.CacheDir could not be opened.
	persistErr error

	// state is the readiness machine: warming (loading the persistent
	// store) → ready → draining (shutting down, no new work). /readyz
	// reports it; POST endpoints refuse with a typed 503 while draining.
	state           atomic.Int32
	warmDone        chan struct{} // closed when the warm-load pass finishes
	warmTotal       atomic.Int64
	warmLoaded      atomic.Int64
	warmQuarantined atomic.Int64

	// testHoldSolve, when set by a test, runs while the request holds its
	// admission slot, letting tests pin the server at capacity. mu guards it.
	mu            sync.Mutex
	testHoldSolve func()
}

// New builds a Server from cfg, applying defaults for zero fields.
func New(cfg Config) *Server {
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.New()
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueTimeout <= 0 {
		cfg.QueueTimeout = 2 * time.Second
	}
	if cfg.MaxPrograms <= 0 {
		cfg.MaxPrograms = 128
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	s := &Server{
		cfg:      cfg,
		metrics:  cfg.Metrics,
		sem:      make(chan struct{}, cfg.MaxInflight),
		start:    time.Now(),
		warmDone: make(chan struct{}),
		cache: &cache{metrics: cfg.Metrics, max: cfg.MaxPrograms, faults: cfg.Faults,
			budget: pointsto.Budget{MaxSteps: cfg.SolveSteps}, progs: map[string]*program{}},
	}
	if !cfg.DisableTracing {
		s.flight = telemetry.NewFlightRecorder(cfg.TraceRecent, cfg.TraceSlowest)
	}
	if cfg.Faults != nil {
		cfg.Faults.SetMetrics(cfg.Metrics)
	}
	s.mux = http.NewServeMux()
	for _, rt := range Routes() {
		s.mux.HandleFunc(rt.Path, s.instrumented(rt))
	}
	if cfg.CacheDir != "" {
		if s.cache.store, s.persistErr = persist.Open(cfg.CacheDir, cfg.Metrics); s.persistErr != nil {
			s.metrics.Counter("persist/open-failures").Inc()
		} else if cfg.Faults != nil {
			s.cache.store.SetFaults(cfg.Faults)
		}
	}
	if s.cache.store != nil {
		s.state.Store(stateWarming)
		go s.warmLoad()
	} else {
		s.state.Store(stateReady)
		close(s.warmDone)
	}
	return s
}

// PersistError reports why the persistent store configured by CacheDir
// could not be opened (nil when it opened, or when none was configured).
// The daemon degrades to memory-only on open failure; callers that want
// fail-fast semantics (cmd/kscope-serve does) check this after New.
func (s *Server) PersistError() error { return s.persistErr }

// Route describes one registered endpoint. docs/API.md documents exactly
// this table; TestAPIDocCoversEveryRoute diffs the two.
type Route struct {
	Method  string
	Path    string
	Summary string
	handle  func(*Server, http.ResponseWriter, *http.Request) *apiError
}

// Routes returns every endpoint the server registers, in documentation
// order.
func Routes() []Route {
	return []Route{
		{"POST", "/analyze", "compile + analyze a MiniC program, return the analysis summary", (*Server).handleAnalyze},
		{"POST", "/pointsto", "points-to set of one register under both memory views", (*Server).handlePointsTo},
		{"POST", "/cfi-targets", "permitted indirect-call targets per callsite, both views", (*Server).handleCFITargets},
		{"POST", "/invariants", "likely invariants assumed by the optimistic analysis", (*Server).handleInvariants},
		{"GET", "/healthz", "liveness, service view, admission and cache occupancy", (*Server).handleHealthz},
		{"GET", "/readyz", "readiness: 503 while warm-loading the persistent store or draining for shutdown", (*Server).handleReadyz},
		{"GET", "/metricsz", "telemetry snapshot (counters, gauges, span totals as timers, histograms, spans)", (*Server).handleMetricsz},
		{"GET", "/tracez", "recent and slowest request traces; ?id= exports one as Chrome trace JSON", (*Server).handleTracez},
	}
}

// ServeHTTP dispatches to the registered routes; unknown paths get a JSON
// 404 so every response the daemon emits is machine-readable.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if _, pattern := s.mux.Handler(r); pattern == "" {
		s.writeError(w, &apiError{Status: http.StatusNotFound, Kind: "not-found",
			Msg: fmt.Sprintf("no such endpoint %s (see docs/API.md)", r.URL.Path)})
		return
	}
	s.mux.ServeHTTP(w, r)
}

// Metrics returns the server's telemetry registry (the /metricsz source).
func (s *Server) Metrics() *telemetry.Registry { return s.metrics }

// instrumented wires one route's method check, request counter, latency
// histogram, per-request trace, and access-log line around its handler,
// which returns nil when it has written its (successful) response.
// When tracing is enabled it opens a telemetry.Trace per request (honoring a
// client-supplied X-Kscope-Trace id, emitting the effective id back on the
// same header), carries it through the request context so every span the
// pipeline opens attaches to it, and files the finished trace into the
// flight recorder for /tracez.
func (s *Server) instrumented(rt Route) http.HandlerFunc {
	latency := s.metrics.Histogram("serve/latency-ns" + rt.Path)
	requests := s.metrics.Counter("serve/requests" + rt.Path)
	return func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		start := time.Now()
		var tr *telemetry.Trace
		if s.flight != nil {
			tr = telemetry.NewTrace(r.Header.Get(TraceHeader), "serve"+rt.Path)
			w.Header().Set(TraceHeader, tr.ID())
			ctx := telemetry.WithTrace(r.Context(), tr)
			r = r.WithContext(telemetry.WithSpan(ctx, tr.Root()))
		}
		sw := &statusWriter{ResponseWriter: w}
		if r.Method != rt.Method {
			sw.Header().Set("Allow", rt.Method)
			s.writeError(sw, &apiError{Status: http.StatusMethodNotAllowed, Kind: "method",
				Msg: fmt.Sprintf("%s requires %s", rt.Path, rt.Method)})
		} else if rt.Method == http.MethodPost && s.state.Load() == stateDraining {
			// Every POST route submits analysis work; a draining daemon
			// refuses it with a typed, retryable 503 while the GET routes
			// keep serving (so operators can still inspect the shutdown).
			s.writeError(sw, &apiError{Status: http.StatusServiceUnavailable, Kind: "draining",
				Msg:        "daemon is draining for shutdown; not accepting new analysis requests",
				RetryAfter: s.cfg.RetryAfter})
		} else if apiErr := rt.handle(s, sw, r); apiErr != nil {
			s.writeError(sw, apiErr)
		}
		lat := time.Since(start)
		latency.Observe(lat.Nanoseconds())
		if tr != nil {
			tr.Annotate("status", strconv.Itoa(sw.Status()))
			s.flight.Record(tr)
		}
		s.logAccess(tr, r.Method, rt.Path, sw.Status(), lat)
	}
}

// statusWriter captures the status a handler writes, for the trace
// annotation and the access log. An unset status means an implicit 200.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// Status returns the response status (200 if the handler never set one).
func (w *statusWriter) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// accessEntry is one JSON line of the access log.
type accessEntry struct {
	Time      string  `json:"time"`
	Trace     string  `json:"trace,omitempty"`
	Method    string  `json:"method"`
	Path      string  `json:"path"`
	Status    int     `json:"status"`
	LatencyMS float64 `json:"latency_ms"`
}

// logAccess emits one access-log line (no-op without Config.AccessLog).
// Lines are written whole under a lock so concurrent requests never
// interleave mid-line.
func (s *Server) logAccess(tr *telemetry.Trace, method, path string, status int, lat time.Duration) {
	if s.cfg.AccessLog == nil {
		return
	}
	line, err := json.Marshal(accessEntry{
		Time:      time.Now().UTC().Format(time.RFC3339Nano),
		Trace:     tr.ID(),
		Method:    method,
		Path:      path,
		Status:    status,
		LatencyMS: float64(lat) / float64(time.Millisecond),
	})
	if err != nil {
		return
	}
	s.logMu.Lock()
	s.cfg.AccessLog.Write(append(line, '\n'))
	s.logMu.Unlock()
}

// apiError is a typed error response; every non-2xx the daemon emits is one.
type apiError struct {
	Status     int           // HTTP status code
	Kind       string        // validation | oversized | method | not-found | overloaded | budget | draining | internal
	Msg        string        // human-readable detail
	RetryAfter time.Duration // >0 adds the Retry-After header + retry_after_ms field
}

// errorBody is the JSON wire form of an apiError.
type errorBody struct {
	Error        string `json:"error"`
	Kind         string `json:"kind"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

func (s *Server) writeError(w http.ResponseWriter, e *apiError) {
	s.metrics.Counter("serve/errors/" + e.Kind).Inc()
	if e.RetryAfter > 0 {
		secs := int64((e.RetryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, e.Status, errorBody{Error: e.Msg, Kind: e.Kind, RetryAfterMS: int64(e.RetryAfter / time.Millisecond)})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) // a failed write means the client is gone; nothing to do
}

// admit acquires an admission slot, waiting up to QueueTimeout on the
// optimistic view and not at all on the fallback view. The returned release
// must be called exactly once. A shed request switches the service to the
// fallback view; an admitted one switches it back.
func (s *Server) admit(ctx context.Context) (release func(), apiErr *apiError) {
	admitted := func() func() {
		s.metrics.Counter("serve/admission/admitted").Inc()
		s.metrics.Gauge("serve/inflight").Set(int64(len(s.sem)))
		if s.degraded.CompareAndSwap(true, false) {
			s.metrics.Counter("serve/switch/recovered").Inc()
		}
		return func() {
			<-s.sem
			s.metrics.Gauge("serve/inflight").Set(int64(len(s.sem)))
		}
	}
	select {
	case s.sem <- struct{}{}:
		return admitted(), nil
	default:
	}
	if !s.degraded.Load() {
		// Optimistic view: queue politely for a slot.
		wait := time.NewTimer(s.cfg.QueueTimeout)
		defer wait.Stop()
		select {
		case s.sem <- struct{}{}:
			return admitted(), nil
		case <-ctx.Done():
			return nil, s.overloaded("request cancelled while queued for a solve slot")
		case <-wait.C:
		}
	} else {
		s.metrics.Counter("serve/admission/fast-shed").Inc()
	}
	// Shed: switch (idempotently) to the fallback view.
	s.metrics.Counter("serve/admission/rejected").Inc()
	if s.degraded.CompareAndSwap(false, true) {
		s.metrics.Counter("serve/switch/degraded").Inc()
	}
	return nil, s.overloaded(fmt.Sprintf("all %d solve slots busy", s.cfg.MaxInflight))
}

func (s *Server) overloaded(msg string) *apiError {
	return &apiError{Status: http.StatusServiceUnavailable, Kind: "overloaded",
		Msg: msg, RetryAfter: s.cfg.RetryAfter}
}
