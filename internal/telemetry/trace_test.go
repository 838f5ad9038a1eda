package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTraceSpanAttachment is the sink-inheritance contract: spans opened
// under a context carrying a trace — and their descendants, opened through
// the registry's own StartSpan with a traced parent — land in the trace, the
// registry's global span log stays empty, and the registry still totals them.
func TestTraceSpanAttachment(t *testing.T) {
	r := New()
	tr := NewTrace("req-1", "serve/analyze")
	ctx := WithSpan(WithTrace(context.Background(), tr), tr.Root())

	ctx, solve, finishSolve := StartSpanCtx(ctx, r, "serve/solve")
	if solve == nil {
		t.Fatal("StartSpanCtx returned nil span with a trace in context")
	}
	// The layer below knows nothing about traces: it parents to the span it
	// was handed, via the registry. Sink inheritance must still divert it.
	child, finishChild := r.StartSpan("pointsto/round", solve)
	if child == nil {
		t.Fatal("registry StartSpan with traced parent returned nil span")
	}
	finishChild()
	finishSolve()

	// And the ctx path one level deeper.
	_, _, finishGrand := StartSpanCtx(ctx, r, "pointsto/prep")
	finishGrand()

	if got := len(r.Snapshot().Spans); got != 0 {
		t.Fatalf("registry retained %d spans; all belong to the trace", got)
	}
	for _, name := range []string{"serve/solve", "pointsto/round", "pointsto/prep"} {
		if got := r.Snapshot().Timers[name].Count; got != 1 {
			t.Errorf("registry total of traced span %q counts %d, want 1", name, got)
		}
	}
	tr.Finish()
	e := tr.Export()
	byName := map[string]SpanRecord{}
	for _, s := range e.Spans {
		byName[s.Name] = s
	}
	for _, want := range []string{"serve/solve", "pointsto/round", "pointsto/prep"} {
		if _, found := byName[want]; !found {
			t.Fatalf("trace missing span %q: %+v", want, e.Spans)
		}
	}
	if byName["pointsto/round"].Parent != byName["serve/solve"].ID {
		t.Fatalf("child span not parented to serve/solve: %+v", e.Spans)
	}
	if byName["serve/solve"].Parent != tr.Root().id {
		t.Fatalf("serve/solve not parented to the trace root: %+v", e.Spans)
	}
	if e.ID != "req-1" || e.DurMS < 0 {
		t.Fatalf("export identity wrong: %+v", e)
	}
}

// TestTraceIDValidation pins which wire ids are honored and which are
// replaced by a generated one.
func TestTraceIDValidation(t *testing.T) {
	valid := []string{"a", "my-trace-1", "ABC_def-123", strings.Repeat("x", 64)}
	for _, id := range valid {
		if !ValidTraceID(id) {
			t.Errorf("ValidTraceID(%q) = false, want true", id)
		}
		if got := NewTrace(id, "n").ID(); got != id {
			t.Errorf("NewTrace(%q) replaced the id with %q", id, got)
		}
	}
	invalid := []string{"", "has space", "semi;colon", "sla/sh", strings.Repeat("x", 65), "nul\x00"}
	for _, id := range invalid {
		if ValidTraceID(id) {
			t.Errorf("ValidTraceID(%q) = true, want false", id)
		}
		got := NewTrace(id, "n").ID()
		if got == id || !ValidTraceID(got) {
			t.Errorf("NewTrace(%q) kept/generated a bad id %q", id, got)
		}
	}
	// Generated ids are distinct.
	if a, b := NewTrace("", "n").ID(), NewTrace("", "n").ID(); a == b {
		t.Fatalf("two generated trace ids collide: %q", a)
	}
}

// TestRegistrySpanCap replaces the old serve-layer stripping: the registry
// itself bounds its span log, counting what it refuses.
func TestRegistrySpanCap(t *testing.T) {
	r := New()
	r.SetSpanCap(3)
	epoch := time.Now()
	for i := 0; i < 5; i++ {
		r.RecordSpan(fmt.Sprintf("s%d", i), nil, epoch, time.Millisecond)
	}
	snap := r.Snapshot()
	if len(snap.Spans) != 3 {
		t.Fatalf("span log kept %d spans, cap 3", len(snap.Spans))
	}
	// Keep-first: the retained prefix is where the process's life began.
	for i, s := range snap.Spans {
		if want := fmt.Sprintf("s%d", i); s.Name != want {
			t.Fatalf("span[%d] = %q, want %q (keep-first)", i, s.Name, want)
		}
	}
	if got := snap.Counters["telemetry/spans/dropped"]; got != 2 {
		t.Fatalf("telemetry/spans/dropped = %d, want 2", got)
	}
}

// TestTraceSpanCap bounds one trace's span log the same way.
func TestTraceSpanCap(t *testing.T) {
	tr := NewTrace("", "hammer")
	ctx := WithTrace(context.Background(), tr)
	for i := 0; i < DefaultTraceSpanCap+10; i++ {
		_, _, fin := StartSpanCtx(ctx, nil, "s")
		fin()
	}
	tr.Finish()
	e := tr.Export()
	if len(e.Spans) != DefaultTraceSpanCap {
		t.Fatalf("trace kept %d spans, cap %d", len(e.Spans), DefaultTraceSpanCap)
	}
	// 11, not 10: the root span records at Finish, after the cap filled.
	if e.SpansDropped != 11 {
		t.Fatalf("SpansDropped = %d, want 11", e.SpansDropped)
	}
}

// recordTrace pushes a finished trace of roughly the given duration through
// the recorder by back-dating its start.
func recordTrace(f *FlightRecorder, id string, dur time.Duration) {
	tr := NewTrace(id, "t")
	tr.start = tr.start.Add(-dur)
	tr.root.start = tr.start
	f.Record(tr)
}

// TestFlightRecorderRing pins the retention policy: last N stay in the ring,
// the slowest of the ring-evicted survive in the shortlist, everything else
// is counted as dropped.
func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(2, 2)
	recordTrace(f, "slow", 200*time.Millisecond)
	// Distinct, increasing durations so the drop among ring evictions
	// (slow, fast0, fast1) is deterministic: fast0, the fastest.
	for i := 0; i < 4; i++ {
		recordTrace(f, fmt.Sprintf("fast%d", i), time.Duration(i+1)*10*time.Millisecond)
	}
	idx := f.Index()
	if len(idx.Recent) != 2 || idx.Recent[0].ID != "fast3" || idx.Recent[1].ID != "fast2" {
		t.Fatalf("recent ring wrong (want fast3, fast2 newest-first): %+v", idx.Recent)
	}
	if len(idx.Slowest) != 2 || idx.Slowest[0].ID != "slow" || idx.Slowest[1].ID != "fast1" {
		t.Fatalf("slowest shortlist did not retain the slow evictions: %+v", idx.Slowest)
	}
	if idx.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1 (three evicted, two kept)", idx.Dropped)
	}
	// Lookup resolves both lists.
	if _, found := f.Lookup("slow"); !found {
		t.Fatal("Lookup missed the slowest-shortlist trace")
	}
	if _, found := f.Lookup("fast3"); !found {
		t.Fatal("Lookup missed a recent-ring trace")
	}
	if _, found := f.Lookup("fast0"); found {
		t.Fatal("Lookup resurrected a dropped trace")
	}
}

// TestParallelTraceHammer hammers traces, spans, and the flight recorder
// from many goroutines — the -race gate for the whole tracing layer (make
// race runs internal/telemetry in full).
func TestParallelTraceHammer(t *testing.T) {
	const workers, perWorker = 8, 50
	r := New()
	f := NewFlightRecorder(16, 4)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr := NewTrace(fmt.Sprintf("w%d-%d", w, i), "hammer")
				ctx := WithSpan(WithTrace(context.Background(), tr), tr.Root())
				ctx, s, fin := StartSpanCtx(ctx, r, "outer")
				var inner sync.WaitGroup
				for j := 0; j < 4; j++ {
					inner.Add(1)
					go func() {
						defer inner.Done()
						_, _, finJ := StartSpanCtx(ctx, r, "inner")
						tr.Annotate("k", "v")
						finJ()
					}()
				}
				inner.Wait()
				_ = s
				fin()
				f.Record(tr)
			}
		}(w)
	}
	wg.Wait()
	idx := f.Index()
	if len(idx.Recent) != 16 || len(idx.Slowest) != 4 {
		t.Fatalf("retention after hammer: %d recent, %d slowest", len(idx.Recent), len(idx.Slowest))
	}
	total := int64(workers * perWorker)
	if got := int64(len(idx.Recent)+len(idx.Slowest)) + idx.Dropped; got != total {
		t.Fatalf("trace accounting: kept+dropped = %d, want %d", got, total)
	}
	if got := len(r.Snapshot().Spans); got != 0 {
		t.Fatalf("registry absorbed %d spans that belong to traces", got)
	}
	for _, s := range idx.Recent {
		if s.Spans != 6 { // root + outer + 4 inner
			t.Fatalf("trace %s retained %d spans, want 6", s.ID, s.Spans)
		}
	}
}

// TestPrometheus checks the text exposition: one line set per instrument
// kind, names mangled under the kscope_ prefix.
func TestPrometheus(t *testing.T) {
	r := New()
	r.Counter("serve/requests/analyze").Inc()
	r.Counter("serve/requests/analyze").Inc()
	r.Gauge("serve/cache/programs").Set(7)
	_, stop := r.StartSpan("core/analyze", nil)
	stop()
	for i := 1; i <= 100; i++ {
		r.Histogram("serve/latency-ns").Observe(int64(i))
	}
	out := string(r.Snapshot().Prometheus())
	for _, want := range []string{
		"# TYPE kscope_serve_requests_analyze counter\nkscope_serve_requests_analyze 2\n",
		"# TYPE kscope_serve_cache_programs gauge\nkscope_serve_cache_programs 7\n",
		"# TYPE kscope_core_analyze_total_ms counter\n",
		"kscope_core_analyze_calls 1\n",
		"# TYPE kscope_serve_latency_ns summary\n",
		`kscope_serve_latency_ns{quantile="0.5"} `,
		`kscope_serve_latency_ns{quantile="0.99"} `,
		"kscope_serve_latency_ns_sum 5050\n",
		"kscope_serve_latency_ns_count 100\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "/") || strings.Contains(out, "-ns ") && !strings.Contains(out, "_ns") {
		t.Errorf("exposition leaks unmangled names:\n%s", out)
	}
}

// TestLoadSnapshotURL loads a baseline from a live /metricsz-shaped endpoint
// and from a file path, and surfaces HTTP failures as errors.
func TestLoadSnapshotURL(t *testing.T) {
	r := New()
	r.Counter("serve/cache/misses").Inc()
	payload, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, rq *http.Request) {
		if rq.URL.Path == "/boom" {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		w.Write(payload)
	}))
	defer ts.Close()

	snap, err := LoadSnapshot(ts.URL + "/metricsz")
	if err != nil {
		t.Fatalf("LoadSnapshot(url): %v", err)
	}
	if snap.Counters["serve/cache/misses"] != 1 {
		t.Fatalf("URL-loaded snapshot wrong: %+v", snap.Counters)
	}
	if _, err := LoadSnapshot(ts.URL + "/boom"); err == nil {
		t.Fatal("LoadSnapshot swallowed an HTTP 500")
	}
	if _, err := LoadSnapshot("/nonexistent/baseline.json"); err == nil {
		t.Fatal("LoadSnapshot swallowed a missing file")
	}
}
