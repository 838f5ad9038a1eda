package telemetry

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// spanSink is where a finished span lands: the process-global Registry or a
// request-scoped Trace. A child span inherits its parent's sink, so an
// entire subtree records wherever its root was opened — solver and runner
// spans flow into a request trace without those packages knowing traces
// exist, because the parent handle they already thread through carries the
// destination.
type spanSink interface {
	nextSpanID() int64
	spanEpoch() time.Time
	recordSpan(SpanRecord)
}

func (r *Registry) nextSpanID() int64    { return atomic.AddInt64(&r.spanID, 1) }
func (r *Registry) spanEpoch() time.Time { return r.epoch }

// Span is one in-flight interval of the pipeline (an artifact render, an
// analysis stage, a solver phase, an interpreter run). Spans nest through an
// explicit parent handle rather than goroutine-local state, so a child span
// may start on a different worker goroutine than its parent — the norm under
// the runner.Map pool. A nil *Span is a valid handle: it is what a nil
// Registry hands out, it is accepted as a parent, and all its methods no-op.
type Span struct {
	sink   spanSink
	reg    *Registry // adds the finished span to its per-name total; nil = none
	id     int64
	parent int64
	name   string
	start  time.Time
	worker int32
	done   int32
}

// SpanRecord is one finished span in a Snapshot. Start is relative to the
// sink's creation, so exported traces are stable across machines.
type SpanRecord struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"` // 0 = root
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
	Worker int           `json:"worker"`
}

// spanSinkFor resolves where a new span records: a non-nil parent's own sink
// wins (so children follow their parent into a Trace), then the registry;
// with neither, the span is not recorded at all.
func spanSinkFor(r *Registry, parent *Span) spanSink {
	if parent != nil && parent.sink != nil {
		return parent.sink
	}
	if r == nil {
		return nil
	}
	return r
}

// StartSpan opens a span under parent (nil parent = root) and returns the
// handle plus the finish func that records it. The handle may be passed to
// other goroutines as the parent of child spans; the finish func must be
// called exactly once (later calls no-op). A nil registry returns a nil span
// and a no-op finish — unless the parent carries its own sink (it belongs to
// a Trace), in which case the child records there. A finished span also adds
// its duration to r's total for its name, wherever it records.
func (r *Registry) StartSpan(name string, parent *Span) (*Span, func()) {
	sink := spanSinkFor(r, parent)
	if sink == nil {
		return nil, func() {}
	}
	s := openSpan(sink, r, name, parent, time.Now())
	return s, s.finish
}

// openSpan returns a span of name under parent (nil = root), recording into
// sink and totalled in r.
func openSpan(sink spanSink, r *Registry, name string, parent *Span, start time.Time) *Span {
	s := &Span{sink: sink, reg: r, id: sink.nextSpanID(), name: name, start: start}
	if parent != nil {
		s.parent = parent.id
		s.worker = atomic.LoadInt32(&parent.worker)
	}
	return s
}

// SetWorker tags the span with a worker-pool lane. Children started after
// the call inherit it; the Chrome trace export maps it to the event's tid so
// Perfetto renders one row per worker. Safe on a nil Span.
func (s *Span) SetWorker(id int) {
	if s != nil {
		atomic.StoreInt32(&s.worker, int32(id))
	}
}

// finish records the completed span.
func (s *Span) finish() {
	if s == nil || !atomic.CompareAndSwapInt32(&s.done, 0, 1) {
		return
	}
	s.record(time.Since(s.start))
}

// record files the span, lasting d, into its sink and adds it to its
// registry's total.
func (s *Span) record(d time.Duration) {
	s.sink.recordSpan(SpanRecord{
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Start:  s.start.Sub(s.sink.spanEpoch()),
		Dur:    d,
		Worker: int(atomic.LoadInt32(&s.worker)),
	})
	if s.reg != nil {
		s.reg.addSpan(s.name, d)
	}
}

// RecordSpan appends an already-measured interval as a finished span — the
// retroactive form of StartSpan for phases whose timing was captured before
// a registry was attached (e.g. constraint-graph construction inside
// pointsto.New). It returns a handle usable as a parent. Like StartSpan, the
// record follows a sink-bearing parent into its Trace and adds to r's total;
// with a nil registry and no such parent it returns nil and records nothing.
func (r *Registry) RecordSpan(name string, parent *Span, start time.Time, d time.Duration) *Span {
	sink := spanSinkFor(r, parent)
	if sink == nil {
		return nil
	}
	s := openSpan(sink, r, name, parent, start)
	s.done = 1
	s.record(d)
	return s
}

// recordSpan appends one finished record, dropping past the retention cap
// (counted in "telemetry/spans/dropped") so a snapshot is bounded no matter
// how long the registry lives — a long-running daemon keeps the first
// spanCap spans as a sample instead of growing without bound. The span's
// total counts it either way.
func (r *Registry) recordSpan(rec SpanRecord) {
	r.spanMu.Lock()
	if r.spanCap > 0 && len(r.spans) >= r.spanCap {
		r.spanMu.Unlock()
		r.Counter("telemetry/spans/dropped").Inc()
		return
	}
	r.spans = append(r.spans, rec)
	r.spanMu.Unlock()
}

// traceEvent is one Chrome trace-event object ("X" complete events plus "M"
// metadata), the format Perfetto and chrome://tracing load directly.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// appendSpanEvents converts spans to complete ("X") events; the worker id
// becomes the thread lane.
func appendSpanEvents(events []traceEvent, spans []SpanRecord) []traceEvent {
	for _, sp := range spans {
		events = append(events, traceEvent{
			Name: sp.Name,
			Cat:  "kscope",
			Ph:   "X",
			TS:   float64(sp.Start) / 1e3,
			Dur:  float64(sp.Dur) / 1e3,
			PID:  1,
			TID:  sp.Worker,
			Args: map[string]any{"id": sp.ID, "parent": sp.Parent},
		})
	}
	return events
}

// marshalChrome wraps events in the object form ({"traceEvents": [...]}).
func marshalChrome(events []traceEvent) ([]byte, error) {
	return json.MarshalIndent(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{events, "ms"}, "", " ")
}

// ChromeTrace renders the snapshot's spans as Chrome trace-event JSON
// (object form, {"traceEvents": [...]}), viewable in Perfetto. Each span
// becomes one complete ("X") event; the worker id becomes the thread lane.
func (s Snapshot) ChromeTrace() ([]byte, error) {
	events := []traceEvent{{
		Name: "process_name", Ph: "M", PID: 1, TID: 0,
		Args: map[string]any{"name": "kscope"},
	}}
	return marshalChrome(appendSpanEvents(events, s.Spans))
}

// spanTree renders the snapshot's spans as an aggregated text tree: children
// group under their parent's slot by name, each line reporting how many
// spans of that name ran there and their total wall time. Aggregation keeps
// the tree readable when one phase (an interpreter run, a pool job) executes
// hundreds of times.
func (s Snapshot) spanTree(b *strings.Builder) {
	if len(s.Spans) == 0 {
		return
	}
	byID := make(map[int64]SpanRecord, len(s.Spans))
	for _, sp := range s.Spans {
		byID[sp.ID] = sp
	}
	children := map[int64][]SpanRecord{}
	for _, sp := range s.Spans {
		parent := sp.Parent
		if _, ok := byID[parent]; !ok {
			parent = 0 // orphaned (parent never finished): show as root
		}
		children[parent] = append(children[parent], sp)
	}
	b.WriteString("spans:\n")
	var walk func(parents []int64, depth int)
	walk = func(parents []int64, depth int) {
		group := map[string][]SpanRecord{}
		var order []string
		for _, p := range parents {
			for _, sp := range children[p] {
				if _, seen := group[sp.Name]; !seen {
					order = append(order, sp.Name)
				}
				group[sp.Name] = append(group[sp.Name], sp)
			}
		}
		// Order sibling groups by earliest start so the tree reads in
		// pipeline order (records arrive in finish order, so scan for the
		// minimum).
		minStart := func(g []SpanRecord) time.Duration {
			m := g[0].Start
			for _, sp := range g[1:] {
				if sp.Start < m {
					m = sp.Start
				}
			}
			return m
		}
		sort.SliceStable(order, func(i, j int) bool {
			return minStart(group[order[i]]) < minStart(group[order[j]])
		})
		for _, name := range order {
			g := group[name]
			var total time.Duration
			ids := make([]int64, len(g))
			for i, sp := range g {
				total += sp.Dur
				ids[i] = sp.ID
			}
			width := 44 - 2*depth
			if width < len(name) {
				width = len(name)
			}
			fmt.Fprintf(b, "  %s%-*s %10.3fms over %d span(s)\n",
				strings.Repeat("  ", depth), width, name,
				float64(total)/float64(time.Millisecond), len(g))
			// Children of every span in the group aggregate one level down.
			walk(ids, depth+1)
		}
	}
	walk([]int64{0}, 0)
}
