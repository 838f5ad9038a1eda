// Package telemetry is a lightweight metrics substrate for the analysis
// pipeline: named counters, gauges, histograms and spans backed by
// sync/atomic, collected in a Registry and exported as aligned text or JSON
// snapshots. Spans are the one timing instrument: every finished span adds
// its duration to a per-name total, exported as the snapshot's Timers.
//
// The solver (internal/pointsto), the IGO engine (internal/core), the
// monitored interpreter (internal/interp), and the batch runner
// (internal/runner) all report into a shared Registry when one is attached;
// with no registry attached every instrument degrades to a no-op. All
// instruments are safe for concurrent writers, so one Registry can aggregate
// across the worker pool of a parallel evaluation run.
//
// A nil *Registry is valid and inert: it hands out nil instruments whose
// methods do nothing, so call sites never need a nil check.
package telemetry

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count.
type Counter struct{ v int64 }

// Add increments the counter by n. Safe on a nil Counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		atomic.AddInt64(&c.v, n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return atomic.LoadInt64(&c.v)
}

// Gauge is a last-or-peak value (graph sizes, pool widths).
type Gauge struct{ v int64 }

// Set stores n. Safe on a nil Gauge.
func (g *Gauge) Set(n int64) {
	if g != nil {
		atomic.StoreInt64(&g.v, n)
	}
}

// SetMax raises the gauge to n if n exceeds the current value.
func (g *Gauge) SetMax(n int64) {
	if g == nil {
		return
	}
	for {
		cur := atomic.LoadInt64(&g.v)
		if n <= cur || atomic.CompareAndSwapInt64(&g.v, cur, n) {
			return
		}
	}
}

// Value returns the current value (0 for a nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return atomic.LoadInt64(&g.v)
}

// spanTotal accumulates the wall time and count of every finished span of
// one name.
type spanTotal struct {
	ns    int64
	count int64
}

// Registry holds named instruments. Instruments are created on first use and
// live for the registry's lifetime; lookups after creation are read-locked.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	totals     map[string]*spanTotal
	histograms map[string]*Histogram

	// Span state: a monotonically increasing id, the time origin every
	// exported span start is relative to, and the finished-span log, bounded
	// by spanCap (keep-first: the log is a sample of the process's early
	// life, drops are counted, and Snapshot stays safely sized forever).
	spanID  int64
	epoch   time.Time
	spanMu  sync.Mutex
	spans   []SpanRecord
	spanCap int
}

// DefaultSpanCap bounds a Registry's finished-span log. Generous enough
// that a full evaluation run (the 9-app × 8-config matrix) keeps every
// span, small enough that a long-lived daemon's /metricsz snapshot cannot
// grow without bound. Adjust per registry with SetSpanCap.
const DefaultSpanCap = 65536

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		totals:     map[string]*spanTotal{},
		histograms: map[string]*Histogram{},
		epoch:      time.Now(),
		spanCap:    DefaultSpanCap,
	}
}

// SetSpanCap replaces the finished-span retention cap (n <= 0 disables the
// bound). Spans recorded past the cap are dropped and counted in
// "telemetry/spans/dropped". Safe on a nil registry.
func (r *Registry) SetSpanCap(n int) {
	if r == nil {
		return
	}
	r.spanMu.Lock()
	r.spanCap = n
	r.spanMu.Unlock()
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (inert) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// addSpan adds one finished span of the named kind to its total, creating
// the total on first use. Totals are uncapped: the span log's retention cap
// drops records, never their time.
func (r *Registry) addSpan(name string, d time.Duration) {
	r.mu.RLock()
	t := r.totals[name]
	r.mu.RUnlock()
	if t == nil {
		r.mu.Lock()
		if t = r.totals[name]; t == nil {
			t = &spanTotal{}
			r.totals[name] = t
		}
		r.mu.Unlock()
	}
	atomic.AddInt64(&t.ns, int64(d))
	atomic.AddInt64(&t.count, 1)
}

// Histogram returns the named histogram, creating it on first use. A nil
// registry returns a nil (inert) histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// TimerStat is the exported total of every finished span of one name.
type TimerStat struct {
	Count   int64         `json:"count"`
	Total   time.Duration `json:"total_ns"`
	TotalMS float64       `json:"total_ms"`
}

// Snapshot is a point-in-time copy of every instrument, suitable for
// rendering or serialization after the measured run completes. Timers holds
// one total per span name, over every span of that name finished so far,
// whether Spans retains it or not.
type Snapshot struct {
	Counters   map[string]int64     `json:"counters,omitempty"`
	Gauges     map[string]int64     `json:"gauges,omitempty"`
	Timers     map[string]TimerStat `json:"timers,omitempty"`
	Histograms map[string]HistStat  `json:"histograms,omitempty"`
	Spans      []SpanRecord         `json:"spans,omitempty"`
}

// Snapshot copies the current instrument values. A nil registry yields an
// empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Timers:     map[string]TimerStat{},
		Histograms: map[string]HistStat{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, t := range r.totals {
		total := time.Duration(atomic.LoadInt64(&t.ns))
		s.Timers[name] = TimerStat{
			Count:   atomic.LoadInt64(&t.count),
			Total:   total,
			TotalMS: float64(total) / float64(time.Millisecond),
		}
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.stat()
	}
	r.mu.RUnlock()
	r.spanMu.Lock()
	s.Spans = append([]SpanRecord(nil), r.spans...)
	r.spanMu.Unlock()
	sort.Slice(s.Spans, func(i, j int) bool {
		if s.Spans[i].Start != s.Spans[j].Start {
			return s.Spans[i].Start < s.Spans[j].Start
		}
		return s.Spans[i].ID < s.Spans[j].ID
	})
	return s
}

// Text renders the snapshot as aligned, name-sorted sections, one per
// instrument kind, followed by the aggregated span tree.
func (s Snapshot) Text() string {
	var b strings.Builder
	b.WriteString("telemetry snapshot\n")
	width := maxKeyWidth(keysOf(s.Counters), keysOf(s.Gauges), keysOf(s.Timers), keysOf(s.Histograms))
	section(&b, "counters", width, keysOf(s.Counters), func(name string) string {
		return fmt.Sprintf("%12d", s.Counters[name])
	})
	section(&b, "gauges", width, keysOf(s.Gauges), func(name string) string {
		return fmt.Sprintf("%12d", s.Gauges[name])
	})
	section(&b, "timers", width, keysOf(s.Timers), func(name string) string {
		t := s.Timers[name]
		return fmt.Sprintf("%12.3fms over %d call(s)", t.TotalMS, t.Count)
	})
	section(&b, "histograms", width, keysOf(s.Histograms), func(name string) string {
		h := s.Histograms[name]
		return fmt.Sprintf("n=%d p50=%d p90=%d p99=%d max=%d mean=%.1f",
			h.Count, h.P50, h.P90, h.P99, h.Max, h.Mean)
	})
	s.spanTree(&b)
	return b.String()
}

// JSON renders the snapshot as indented JSON.
func (s Snapshot) JSON() ([]byte, error) { return json.MarshalIndent(s, "", "  ") }

// section writes one titled, key-aligned block; empty sections are omitted.
// All sections of a snapshot share one key width so values line up across
// instrument kinds.
func section(b *strings.Builder, title string, width int, names []string, value func(name string) string) {
	if len(names) == 0 {
		return
	}
	b.WriteString(title + ":\n")
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(b, "  %-*s %s\n", width, name, value(name))
	}
}

// maxKeyWidth returns the longest name across the given key sets.
func maxKeyWidth(keySets ...[]string) int {
	width := 0
	for _, keys := range keySets {
		for _, name := range keys {
			if len(name) > width {
				width = len(name)
			}
		}
	}
	return width
}

// keysOf collects the keys of any string-keyed map.
func keysOf[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
