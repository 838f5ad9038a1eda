package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/minic"
	"repro/internal/telemetry"
)

// demoSource is a small valid MiniC program with an indirect call, likely
// invariants under the full configuration, and a pointer-returning function
// (for the return-value query path).
const demoSource = `
struct ops { fn handler; int* data; }
ops table;
int buf[16];
int g;
int hello(int* x) { return 42; }
int bye(int* x) { return 7; }
int* pick() { return &g; }
void scrub(char* p, int n) {
  int i;
  i = 0;
  while (i < n) { *(p + i) = 0; i = i + 1; }
}
int main() {
  char* p;
  int* q;
  table.handler = &hello;
  if (input() % 2 == 0) { table.handler = &bye; }
  p = buf;
  q = pick();
  scrub(p, input() % 16);
  return table.handler(buf) + *q;
}
`

// variantSource returns a distinct-but-valid program per index, for tests
// that need several uncached submissions.
func variantSource(i int) string {
	return fmt.Sprintf("int pad%d;\n%s", i, demoSource)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.New()
	}
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends a JSON body and returns the status, decoded body, and headers.
func post(t *testing.T, ts *httptest.Server, path string, body any) (int, map[string]any, http.Header) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]any{}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("POST %s: non-JSON response %q: %v", path, raw, err)
	}
	return resp.StatusCode, out, resp.Header
}

func get(t *testing.T, ts *httptest.Server, path string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	out := map[string]any{}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("GET %s: non-JSON response %q: %v", path, raw, err)
	}
	return resp.StatusCode, out
}

func counter(s *Server, name string) int64 { return s.Metrics().Counter(name).Value() }

// TestRepeatedSubmissionServedFromCache is the content-hash cache
// acceptance test: the second identical submission must be answered without
// a second solve, visible through the cache-hit counter and the analysis
// counter, and must report cached=true even under a different client name.
func TestRepeatedSubmissionServedFromCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := map[string]any{"name": "first", "source": demoSource, "config": "baseline"}
	status, body, _ := post(t, ts, "/analyze", req)
	if status != http.StatusOK {
		t.Fatalf("first submission: status %d: %v", status, body)
	}
	if body["cached"] != false {
		t.Fatalf("first submission claims cached: %v", body)
	}
	solves := counter(s, "core/analyses")
	if solves != 1 {
		t.Fatalf("first submission ran %d analyses, want 1", solves)
	}

	req["name"] = "renamed" // identity is the content hash, not the name
	status, body, _ = post(t, ts, "/analyze", req)
	if status != http.StatusOK || body["cached"] != true {
		t.Fatalf("repeat submission: status %d cached=%v", status, body["cached"])
	}
	if got := counter(s, "serve/cache/hits"); got != 1 {
		t.Fatalf("serve/cache/hits = %d, want 1", got)
	}
	if got := counter(s, "core/analyses"); got != solves {
		t.Fatalf("repeat submission re-solved: core/analyses %d -> %d", solves, got)
	}
}

// TestConcurrentIdenticalSubmissionsCoalesce fires identical submissions
// from many goroutines at once; however they interleave, the single-flight
// layer must run exactly one analysis.
func TestConcurrentIdenticalSubmissionsCoalesce(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 8})
	const clients = 12
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(clients)
	statuses := make([]int, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer done.Done()
			start.Wait()
			statuses[c], _, _ = post(t, ts, "/pointsto",
				map[string]any{"source": demoSource, "config": "baseline", "fn": "main", "reg": "%t1"})
		}(c)
	}
	start.Done()
	done.Wait()
	for c, status := range statuses {
		if status != http.StatusOK {
			t.Fatalf("client %d got status %d", c, status)
		}
	}
	if got := counter(s, "core/analyses"); got != 1 {
		t.Fatalf("%d identical submissions ran %d analyses, want 1", clients, got)
	}
	if got := counter(s, "serve/cache/solves"); got != 1 {
		t.Fatalf("serve/cache/solves = %d, want 1 (single flight)", got)
	}
}

// TestBudgetExhaustedTypedError: a solve that blows its step budget must
// surface as a typed 503 with Retry-After — never a partial result.
func TestBudgetExhaustedTypedError(t *testing.T) {
	s, ts := newTestServer(t, Config{SolveSteps: 1, RetryAfter: 1500 * time.Millisecond})
	status, body, hdr := post(t, ts, "/analyze", map[string]any{"source": demoSource})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("budgeted solve: status %d, want 503: %v", status, body)
	}
	if body["kind"] != "budget" {
		t.Fatalf("error kind %v, want budget", body["kind"])
	}
	if hdr.Get("Retry-After") != "2" { // 1500ms rounds up to 2s
		t.Fatalf("Retry-After = %q, want 2", hdr.Get("Retry-After"))
	}
	if ms, _ := body["retry_after_ms"].(float64); ms != 1500 {
		t.Fatalf("retry_after_ms = %v, want 1500", body["retry_after_ms"])
	}
	if got := counter(s, "serve/errors/budget"); got != 1 {
		t.Fatalf("serve/errors/budget = %d, want 1", got)
	}
	// The abort is never cached: the entry was invalidated, not poisoned.
	if got := counter(s, "serve/cache/invalidations"); got == 0 {
		t.Fatal("aborted solve did not invalidate its cache entry")
	}
	if _, flights := cacheSize(s.cache); flights != 0 {
		t.Fatalf("aborted solve left %d cache entries", flights)
	}
	// A resubmission is admitted again (not answered from a poisoned entry)
	// and fails the same typed way while the budget stays in force.
	status, body, _ = post(t, ts, "/analyze", map[string]any{"source": demoSource})
	if status != http.StatusServiceUnavailable || body["kind"] != "budget" {
		t.Fatalf("resubmission after abort: status %d kind %v, want 503/budget", status, body["kind"])
	}
}

// TestOverloadSwitchesToFallbackView pins the server at capacity and walks
// the full degradation arc: shed with 503 → fallback view (fast shed,
// cached queries still answered) → recovery on the next admitted request.
func TestOverloadSwitchesToFallbackView(t *testing.T) {
	holding := make(chan struct{})
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{MaxInflight: 1, QueueTimeout: 5 * time.Millisecond})

	// Warm one program into the cache so the fallback view has something
	// cheap to serve, then install the hold hook and occupy the only slot.
	if status, body, _ := post(t, ts, "/analyze",
		map[string]any{"source": variantSource(0), "config": "baseline"}); status != 200 {
		t.Fatalf("warmup failed: %d %v", status, body)
	}
	var once sync.Once
	s.mu.Lock()
	s.testHoldSolve = func() {
		once.Do(func() {
			close(holding)
			<-release
		})
	}
	s.mu.Unlock()
	firstDone := make(chan int)
	go func() {
		status, _, _ := post(t, ts, "/analyze", map[string]any{"source": variantSource(1)})
		firstDone <- status
	}()
	<-holding

	// Uncached work is shed once the queue times out; the shed switches the
	// service to the fallback view.
	status, body, hdr := post(t, ts, "/analyze", map[string]any{"source": variantSource(2)})
	if status != http.StatusServiceUnavailable || body["kind"] != "overloaded" {
		t.Fatalf("overload: status %d kind %v, want 503/overloaded", status, body["kind"])
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("overload response missing Retry-After")
	}
	if _, health := get2(t, ts, "/healthz"); health["view"] != "fallback" || health["status"] != "degraded" {
		t.Fatalf("healthz after shed: %v, want fallback/degraded", health)
	}

	// Fallback view: uncached work is shed immediately, cached queries and
	// health endpoints still answer.
	if status, _, _ := post(t, ts, "/analyze", map[string]any{"source": variantSource(3)}); status != 503 {
		t.Fatalf("fast shed: status %d, want 503", status)
	}
	if got := counter(s, "serve/admission/fast-shed"); got != 1 {
		t.Fatalf("serve/admission/fast-shed = %d, want 1", got)
	}
	if status, body, _ := post(t, ts, "/analyze",
		map[string]any{"source": variantSource(0), "config": "baseline"}); status != 200 || body["cached"] != true {
		t.Fatalf("cached query on fallback view: status %d cached=%v, want 200/true", status, body["cached"])
	}

	// Release the held solve; the next admitted request recovers the
	// optimistic view.
	close(release)
	if status := <-firstDone; status != http.StatusOK {
		t.Fatalf("held request finished with %d", status)
	}
	if status, _, _ := post(t, ts, "/analyze", map[string]any{"source": variantSource(4)}); status != 200 {
		t.Fatalf("post-recovery solve failed: %d", status)
	}
	if _, health := get2(t, ts, "/healthz"); health["view"] != "optimistic" || health["status"] != "ok" {
		t.Fatalf("healthz after recovery: %v, want optimistic/ok", health)
	}
	if d, r := counter(s, "serve/switch/degraded"), counter(s, "serve/switch/recovered"); d != 1 || r != 1 {
		t.Fatalf("switch counters degraded=%d recovered=%d, want 1/1", d, r)
	}
}

// get2 is get with the map returned second (ergonomics for healthz checks).
func get2(t *testing.T, ts *httptest.Server, path string) (int, map[string]any) {
	return get(t, ts, path)
}

// TestPointsToBothViews checks the query surface: register and return-value
// lookups under both memory views, with the optimistic set no larger than
// the fallback set.
func TestPointsToBothViews(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body, _ := post(t, ts, "/pointsto",
		map[string]any{"source": demoSource, "fn": "pick"}) // reg omitted = return value
	if status != http.StatusOK {
		t.Fatalf("return-value query: status %d: %v", status, body)
	}
	opt, _ := body["optimistic"].([]any)
	fb, _ := body["fallback"].([]any)
	if len(opt) == 0 || len(fb) == 0 {
		t.Fatalf("pick() return sets empty: optimistic=%v fallback=%v", opt, fb)
	}
	if len(opt) > len(fb) {
		t.Fatalf("optimistic set (%d) larger than fallback (%d)", len(opt), len(fb))
	}
}

// TestCFITargetsAndInvariants exercises the remaining two query endpoints
// on a program with an indirect call.
func TestCFITargetsAndInvariants(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body, _ := post(t, ts, "/cfi-targets", map[string]any{"source": demoSource})
	if status != http.StatusOK {
		t.Fatalf("/cfi-targets: status %d: %v", status, body)
	}
	sites, _ := body["sites"].([]any)
	if len(sites) == 0 {
		t.Fatal("no indirect callsites reported for a program with one")
	}
	site0 := sites[0].(map[string]any)
	if opt, _ := site0["optimistic"].([]any); len(opt) == 0 {
		t.Fatalf("callsite has no permitted targets: %v", site0)
	}

	status, body, _ = post(t, ts, "/invariants", map[string]any{"source": demoSource, "config": "all"})
	if status != http.StatusOK {
		t.Fatalf("/invariants: status %d: %v", status, body)
	}
	if _, isList := body["invariants"].([]any); !isList {
		t.Fatalf("invariants field missing or not a list: %v", body)
	}
}

// TestHealthzAndMetricsz checks both observation endpoints' shapes, and that
// the registry span log /metricsz serves is bounded at the source rather than
// stripped per endpoint. Tracing is disabled so request spans land in the
// registry (with tracing on they divert to per-request traces).
func TestHealthzAndMetricsz(t *testing.T) {
	metrics := telemetry.New()
	metrics.SetSpanCap(4)
	_, ts := newTestServer(t, Config{MaxInflight: 3, Metrics: metrics, DisableTracing: true})
	status, health := get(t, ts, "/healthz")
	if status != http.StatusOK || health["status"] != "ok" || health["view"] != "optimistic" {
		t.Fatalf("healthz: %d %v", status, health)
	}
	if cap, _ := health["capacity"].(float64); cap != 3 {
		t.Fatalf("capacity = %v, want 3", health["capacity"])
	}
	// Several uncached solves emit far more than 4 spans total.
	for i := 0; i < 3; i++ {
		post(t, ts, "/analyze", map[string]any{"source": variantSource(i), "config": "baseline"})
	}
	status, snap := get(t, ts, "/metricsz")
	if status != http.StatusOK {
		t.Fatalf("metricsz: %d", status)
	}
	counters, _ := snap["counters"].(map[string]any)
	if counters["serve/requests/analyze"] == nil || counters["core/analyses"] == nil {
		t.Fatalf("metricsz missing serve/core counters: %v", counters)
	}
	spans, _ := snap["spans"].([]any)
	if len(spans) > 4 {
		t.Fatalf("span log exceeds its cap: %d spans kept, cap 4", len(spans))
	}
	if dropped, _ := counters["telemetry/spans/dropped"].(float64); dropped <= 0 {
		t.Fatalf("telemetry/spans/dropped = %v, want > 0 (cap 4 with multiple solves)", counters["telemetry/spans/dropped"])
	}
}

// TestLoadgenProgramsCompile keeps the load generator's submission mix
// valid MiniC — a loadgen that mostly collects 400s measures nothing.
func TestLoadgenProgramsCompile(t *testing.T) {
	for _, prog := range loadPrograms {
		if _, err := minic.Compile(prog.name, prog.source); err != nil {
			t.Errorf("loadgen program %q does not compile: %v", prog.name, err)
		}
	}
	if _, err := minic.Compile("demo", demoSource); err != nil {
		t.Errorf("test program does not compile: %v", err)
	}
}

// TestRunLoadAgainstServer runs a short real load through the generator and
// checks the report's accounting and SLO gate plumbing.
func TestRunLoadAgainstServer(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rep, err := RunLoad(context.Background(), LoadOpts{
		Target:      ts.URL,
		Concurrency: 4,
		Duration:    400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 || rep.OK == 0 {
		t.Fatalf("loadgen made no successful requests: %+v", rep)
	}
	if rep.Errors != 0 {
		t.Fatalf("loadgen hit %d hard errors: %+v", rep.Errors, rep)
	}
	if rep.Requests != rep.OK+rep.Rejected+rep.Errors {
		t.Fatalf("request accounting does not add up: %+v", rep)
	}
	if rep.P50 <= 0 || rep.P99 < rep.P50 {
		t.Fatalf("implausible percentiles p50=%v p99=%v", rep.P50, rep.P99)
	}
	if v := rep.SLOViolations(SLO{MaxP99: time.Nanosecond}); len(v) == 0 {
		t.Fatal("1ns p99 SLO did not trip")
	}
	if v := rep.SLOViolations(SLO{MaxP50: time.Hour, MaxP99: time.Hour}); len(v) != 0 {
		t.Fatalf("generous SLO tripped: %v", v)
	}
	if !strings.Contains(rep.Text(), "latency: p50=") {
		t.Fatalf("report text missing latency line:\n%s", rep.Text())
	}
	// The slow-request shortlist ties SLO violations to trace evidence: every
	// entry must carry the trace id the (tracing-enabled) daemon issued, and
	// the report text must point at /tracez.
	if len(rep.Slowest) == 0 {
		t.Fatalf("report retained no slow requests: %+v", rep)
	}
	for i, sr := range rep.Slowest {
		if sr.TraceID == "" {
			t.Fatalf("slowest[%d] has no trace id: %+v", i, sr)
		}
		if !telemetry.ValidTraceID(sr.TraceID) {
			t.Fatalf("slowest[%d] trace id %q is not a valid trace id", i, sr.TraceID)
		}
		if i > 0 && sr.Latency > rep.Slowest[i-1].Latency {
			t.Fatalf("slowest list not latency-descending at %d: %+v", i, rep.Slowest)
		}
	}
	if !strings.Contains(rep.Text(), "trace=") || !strings.Contains(rep.Text(), "/tracez?id=") {
		t.Fatalf("report text missing slow-request trace pointers:\n%s", rep.Text())
	}
}
