package serve

// Request-tracing tests: header round-trip, flight-recorder retention, the
// /tracez endpoints, solver span attachment, access logs, and the
// byte-identity guarantee (tracing must never change analysis output).

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// rawPost sends a JSON body with optional extra headers and returns the raw
// response bytes plus headers (no JSON decoding — for byte-identity checks
// and Chrome-trace exports).
func rawPost(t *testing.T, url string, body map[string]any, hdr map[string]string) (int, []byte, http.Header) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw, resp.Header
}

func rawGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestTraceRoundTrip is the tentpole acceptance test: a request's trace id
// round-trips through the X-Kscope-Trace header, the flight recorder retains
// the trace, and /tracez?id= exports it as Chrome trace JSON carrying the
// solver's spans and the request's annotations.
func TestTraceRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Client-supplied id is honored and echoed.
	status, _, hdr := rawPost(t, ts.URL+"/analyze",
		map[string]any{"source": demoSource, "config": "all"},
		map[string]string{TraceHeader: "my-trace-1"})
	if status != http.StatusOK {
		t.Fatalf("analyze: status %d", status)
	}
	if got := hdr.Get(TraceHeader); got != "my-trace-1" {
		t.Fatalf("trace header echo = %q, want %q", got, "my-trace-1")
	}

	// Without a client id the daemon mints one.
	status, _, hdr2 := rawPost(t, ts.URL+"/analyze",
		map[string]any{"source": demoSource, "config": "all"}, nil)
	if status != http.StatusOK {
		t.Fatalf("second analyze: status %d", status)
	}
	minted := hdr2.Get(TraceHeader)
	if minted == "" || !telemetry.ValidTraceID(minted) {
		t.Fatalf("daemon minted invalid trace id %q", minted)
	}

	// The index lists both traces, newest first.
	status, idxRaw := rawGet(t, ts.URL+"/tracez")
	if status != http.StatusOK {
		t.Fatalf("tracez index: status %d", status)
	}
	var idx telemetry.FlightIndex
	if err := json.Unmarshal(idxRaw, &idx); err != nil {
		t.Fatalf("tracez index not JSON: %v\n%s", err, idxRaw)
	}
	if len(idx.Recent) < 2 {
		t.Fatalf("flight index retained %d traces, want >= 2", len(idx.Recent))
	}
	found := map[string]bool{}
	for _, s := range idx.Recent {
		found[s.ID] = true
	}
	if !found["my-trace-1"] || !found[minted] {
		t.Fatalf("flight index missing request traces: %+v", idx.Recent)
	}

	// The first (uncached) trace exports as Chrome trace JSON with the
	// compile and solve pipeline's spans and the request annotations.
	status, chrome := rawGet(t, ts.URL+"/tracez?id=my-trace-1")
	if status != http.StatusOK {
		t.Fatalf("tracez export: status %d: %s", status, chrome)
	}
	var export map[string]any
	if err := json.Unmarshal(chrome, &export); err != nil {
		t.Fatalf("Chrome trace not JSON: %v", err)
	}
	if _, hasEvents := export["traceEvents"]; !hasEvents {
		t.Fatalf("Chrome trace missing traceEvents:\n%s", chrome)
	}
	body := string(chrome)
	for _, want := range []string{
		"minic/compile", "serve/solve", "core/analyze", // request + analysis phases
		`"cache"`, `"miss"`, // annotations
		`"program"`, `"status"`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("Chrome trace missing %s:\n%s", want, body)
		}
	}

	// The second request hit the content cache; its trace says so.
	status, chrome2 := rawGet(t, ts.URL+"/tracez?id="+minted)
	if status != http.StatusOK {
		t.Fatalf("second tracez export: status %d", status)
	}
	if !strings.Contains(string(chrome2), `"hit"`) {
		t.Fatalf("cached request's trace not annotated cache=hit:\n%s", chrome2)
	}
	if strings.Contains(string(chrome2), "minic/compile") {
		t.Fatalf("cached request's trace has a compile span:\n%s", chrome2)
	}

	// Unknown ids 404.
	if status, _ := rawGet(t, ts.URL+"/tracez?id=never-recorded"); status != http.StatusNotFound {
		t.Fatalf("unknown trace id: status %d, want 404", status)
	}
}

// TestParallelTraceAttachment proves a default (worklist) solve attaches the
// solver's own spans — the solve and its propagate/scc rounds — to the
// request trace, nested under the request's serve/solve span. The name dates
// from when it covered the parallel wave strategy, which has been removed.
func TestParallelTraceAttachment(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, _, hdr := rawPost(t, ts.URL+"/analyze",
		map[string]any{"source": demoSource, "config": "all"}, nil)
	if status != http.StatusOK {
		t.Fatalf("analyze: status %d", status)
	}
	status, chrome := rawGet(t, ts.URL+"/tracez?id="+hdr.Get(TraceHeader))
	if status != http.StatusOK {
		t.Fatalf("tracez export: status %d", status)
	}
	body := string(chrome)
	for _, want := range []string{"pointsto/solve", "pointsto/round/propagate", "pointsto/round/scc", `"solver_iterations"`} {
		if !strings.Contains(body, want) {
			t.Errorf("trace missing %s:\n%s", want, body)
		}
	}
}

// TestTracingByteIdentity pins the observability contract: a tracing daemon
// and a tracing-disabled daemon produce byte-identical response bodies on
// every analysis endpoint. Trace ids live in headers only.
func TestTracingByteIdentity(t *testing.T) {
	_, traced := newTestServer(t, Config{})
	_, plain := newTestServer(t, Config{DisableTracing: true})
	requests := []struct {
		path string
		body map[string]any
	}{
		{"/analyze", map[string]any{"source": demoSource, "config": "all"}},
		{"/pointsto", map[string]any{"source": demoSource, "config": "all", "fn": "main", "reg": "q"}},
		{"/cfi-targets", map[string]any{"source": demoSource, "config": "all"}},
		{"/invariants", map[string]any{"source": demoSource, "config": "all"}},
	}
	for _, rq := range requests {
		st1, b1, h1 := rawPost(t, traced.URL+rq.path, rq.body, nil)
		st2, b2, h2 := rawPost(t, plain.URL+rq.path, rq.body, nil)
		if st1 != http.StatusOK || st2 != http.StatusOK {
			t.Fatalf("%s: status traced=%d plain=%d", rq.path, st1, st2)
		}
		if !bytes.Equal(b1, b2) {
			t.Errorf("%s: tracing changed the response body\ntraced: %s\nplain:  %s", rq.path, b1, b2)
		}
		if h1.Get(TraceHeader) == "" {
			t.Errorf("%s: tracing daemon issued no trace header", rq.path)
		}
		if h2.Get(TraceHeader) != "" {
			t.Errorf("%s: tracing-disabled daemon issued a trace header %q", rq.path, h2.Get(TraceHeader))
		}
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the access log writes from
// handler goroutines while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestAccessLogLines checks the JSON-lines access log: one line per request
// carrying the trace id from the response header.
func TestAccessLogLines(t *testing.T) {
	var buf syncBuffer
	_, ts := newTestServer(t, Config{AccessLog: &buf})
	status, _, hdr := rawPost(t, ts.URL+"/analyze",
		map[string]any{"source": demoSource, "config": "baseline"}, nil)
	if status != http.StatusOK {
		t.Fatalf("analyze: status %d", status)
	}
	rawGet(t, ts.URL+"/healthz")

	// The log line lands after the response body is flushed; poll briefly.
	var lines []string
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		lines = nil
		for _, l := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			if l != "" {
				lines = append(lines, l)
			}
		}
		if len(lines) >= 2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(lines) < 2 {
		t.Fatalf("access log has %d lines, want >= 2:\n%s", len(lines), buf.String())
	}
	var entry struct {
		Time      string  `json:"time"`
		Trace     string  `json:"trace"`
		Method    string  `json:"method"`
		Path      string  `json:"path"`
		Status    int     `json:"status"`
		LatencyMS float64 `json:"latency_ms"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatalf("access log line not JSON: %v\n%s", err, lines[0])
	}
	if entry.Method != "POST" || entry.Path != "/analyze" || entry.Status != http.StatusOK {
		t.Fatalf("access log entry fields wrong: %+v", entry)
	}
	if entry.Trace != hdr.Get(TraceHeader) {
		t.Fatalf("access log trace %q != response header %q", entry.Trace, hdr.Get(TraceHeader))
	}
	if entry.Time == "" || entry.LatencyMS < 0 {
		t.Fatalf("access log entry missing time/latency: %+v", entry)
	}
}

// TestTracezDisabled pins the degraded shape: with tracing off the index is
// an empty (but well-formed) document and every id lookup 404s.
func TestTracezDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{DisableTracing: true})
	post(t, ts, "/analyze", map[string]any{"source": demoSource, "config": "baseline"})
	status, idx := get(t, ts, "/tracez")
	if status != http.StatusOK {
		t.Fatalf("tracez index: status %d", status)
	}
	if recent, ok := idx["recent"].([]any); !ok || len(recent) != 0 {
		t.Fatalf("disabled tracez index not empty: %v", idx)
	}
	if status, _ := rawGet(t, ts.URL+"/tracez?id=anything"); status != http.StatusNotFound {
		t.Fatalf("disabled tracez lookup: status %d, want 404", status)
	}
}

// TestMissTraceShowsProjectAndPersist: a traced miss on a persistent daemon
// records serve/project and serve/persist spans nested under serve/solve,
// so one trace shows what the miss spent after its solve; a hit records
// neither.
func TestMissTraceShowsProjectAndPersist(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheDir: t.TempDir()})
	waitWarm(t, s)
	spans := func() map[string]telemetry.SpanRecord {
		status, _, hdr := rawPost(t, ts.URL+"/analyze", map[string]any{"source": demoSource}, nil)
		if status != http.StatusOK {
			t.Fatalf("analyze: status %d", status)
		}
		e, ok := s.flight.Lookup(hdr.Get(TraceHeader))
		if !ok {
			t.Fatal("request trace not retained")
		}
		byName := map[string]telemetry.SpanRecord{}
		for _, sp := range e.Spans {
			byName[sp.Name] = sp
		}
		return byName
	}
	miss := spans()
	solve, ok := miss["serve/solve"]
	if !ok {
		t.Fatalf("miss trace has no serve/solve span: %v", miss)
	}
	for _, name := range []string{"serve/project", "serve/persist"} {
		sp, ok := miss[name]
		if !ok {
			t.Fatalf("miss trace has no %s span", name)
		}
		if sp.Parent != solve.ID {
			t.Errorf("%s is parented to span %d, want serve/solve (%d)", name, sp.Parent, solve.ID)
		}
	}
	hit := spans()
	for _, name := range []string{"serve/project", "serve/persist"} {
		if _, ok := hit[name]; ok {
			t.Errorf("hit trace records %s", name)
		}
	}
}

// TestTracedMissesTotalInMetricsz: the spans a traced miss files into its
// request trace also add to the registry's per-name totals, so /metricsz
// times every layer of n misses, from the stage spans down to the solver
// and the projection. A hit opens no span and adds to no total.
func TestTracedMissesTotalInMetricsz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const n = 3
	for i := 0; i <= n; i++ { // the last request is a hit on the first program
		status, _, hdr := post(t, ts, "/analyze", map[string]any{"source": variantSource(i % n), "config": "baseline"})
		if status != http.StatusOK || hdr.Get(TraceHeader) == "" {
			t.Fatalf("analyze %d: status %d, trace %q", i, status, hdr.Get(TraceHeader))
		}
	}
	status, raw := rawGet(t, ts.URL+"/metricsz")
	if status != http.StatusOK {
		t.Fatalf("metricsz: status %d", status)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"core/stage/fallback", "pointsto/solve", "serve/project", "minic/compile"} {
		if got := snap.Timers[name]; got.Count != n || got.Total <= 0 {
			t.Errorf("/metricsz timer %s = %+v, want %d spans", name, got, n)
		}
	}
}
