package telemetry

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentWriters hammers one registry from many goroutines and checks
// the exact totals: instruments must be safe for concurrent use and lose no
// updates (run under -race in `make race`).
func TestConcurrentWriters(t *testing.T) {
	r := New()
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("c").Inc()
				r.Counter("c2").Add(2)
				r.Gauge("g").SetMax(int64(w*perWorker + i))
				r.RecordSpan("t", nil, time.Now(), time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != workers*perWorker {
		t.Errorf("counter c = %d, want %d", got, workers*perWorker)
	}
	if got := r.Counter("c2").Value(); got != 2*workers*perWorker {
		t.Errorf("counter c2 = %d, want %d", got, 2*workers*perWorker)
	}
	if got := r.Gauge("g").Value(); got != workers*perWorker-1 {
		t.Errorf("gauge g = %d, want %d", got, workers*perWorker-1)
	}
	if got := r.Snapshot().Timers["t"]; got.Count != workers*perWorker || got.Total != workers*perWorker*time.Microsecond {
		t.Errorf("span total t = %+v, want %d spans over %v", got, workers*perWorker, workers*perWorker*time.Microsecond)
	}
}

// TestRegistryInterning verifies repeated lookups return the same
// instrument.
func TestRegistryInterning(t *testing.T) {
	r := New()
	if r.Counter("x") != r.Counter("x") {
		t.Error("Counter not interned")
	}
	if r.Gauge("x") != r.Gauge("x") {
		t.Error("Gauge not interned")
	}
}

// TestNilSafety checks the nil-registry contract: a nil *Registry hands out
// nil instruments whose methods are all no-ops, so instrumented code needs
// no conditionals.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("c").Inc()
	r.Counter("c").Add(5)
	if r.Counter("c").Value() != 0 {
		t.Error("nil counter should read 0")
	}
	r.Gauge("g").Set(7)
	r.Gauge("g").SetMax(9)
	if r.Gauge("g").Value() != 0 {
		t.Error("nil gauge should read 0")
	}
	r.RecordSpan("t", nil, time.Now(), time.Second)
	if len(r.Snapshot().Timers) != 0 {
		t.Error("nil registry should hold no span totals")
	}
}

// TestSnapshotText checks the text exporter's shape and sorting.
func TestSnapshotText(t *testing.T) {
	r := New()
	r.Counter("b/second").Add(2)
	r.Counter("a/first").Add(1)
	r.Gauge("nodes").Set(42)
	r.RecordSpan("solve", nil, time.Now(), 1500*time.Millisecond)
	text := r.Snapshot().Text()
	for _, want := range []string{
		"telemetry snapshot",
		"counters:", "a/first", "b/second",
		"gauges:", "nodes",
		"timers:", "solve",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Text() missing %q in:\n%s", want, text)
		}
	}
	if strings.Index(text, "a/first") > strings.Index(text, "b/second") {
		t.Error("counters not sorted")
	}
}

// TestSnapshotJSON round-trips the JSON exporter.
func TestSnapshotJSON(t *testing.T) {
	r := New()
	r.Counter("c").Add(3)
	r.RecordSpan("t", nil, time.Now(), 2*time.Second)
	data, err := r.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["c"] != 3 {
		t.Errorf("counter c = %d, want 3", snap.Counters["c"])
	}
	if ts := snap.Timers["t"]; ts.Count != 1 || ts.TotalMS < 1999 {
		t.Errorf("timer t = %+v, want count 1, ~2000ms", ts)
	}
	if _, err := (&Registry{}).Snapshot().JSON(); err != nil {
		t.Errorf("empty snapshot JSON: %v", err)
	}
}

// TestSpanTotals checks that every finished span adds its elapsed time to
// its name's total, and that the span log's retention cap drops records but
// never their totals.
func TestSpanTotals(t *testing.T) {
	r := New()
	_, fin := r.StartSpan("t", nil)
	time.Sleep(time.Millisecond)
	fin()
	if got := r.Snapshot().Timers["t"]; got.Count != 1 || got.Total < time.Millisecond {
		t.Errorf("span total t = %+v, want 1 span over >= 1ms", got)
	}

	r = New()
	r.SetSpanCap(1)
	const n = 5
	for i := 0; i < n; i++ {
		_, fin := r.StartSpan("capped", nil)
		fin()
	}
	snap := r.Snapshot()
	if len(snap.Spans) != 1 || snap.Counters["telemetry/spans/dropped"] != n-1 {
		t.Fatalf("retained %d spans, dropped %d; want 1 and %d", len(snap.Spans), snap.Counters["telemetry/spans/dropped"], n-1)
	}
	if got := snap.Timers["capped"].Count; got != n {
		t.Errorf("span total count = %d under a cap of 1, want %d", got, n)
	}
}
