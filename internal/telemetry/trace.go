package telemetry

// Request-scoped tracing. A Trace is a private span tree with an identity:
// the spans of one request attach to the request's trace instead of the
// process-global Registry, so a single slow submission can be replayed
// offline without digging it out of a process-wide span log. Attachment is
// structural, not lexical — a Trace implements the same span sink the
// Registry does, and child spans inherit their parent's sink — so the
// pipeline's StartSpan(name, parent) call sites (solver phases and rounds,
// pool jobs) flow into a trace whenever their parent chain roots in one,
// without knowing traces exist.
//
// The context carries two things: the active *Trace (WithTrace/TraceFrom)
// and the current parent *Span (WithSpan/SpanFrom). StartSpanCtx is the
// bridge for the layers in between: it opens a span on the trace when one is
// present, on the registry otherwise, and returns a derived context in which
// the new span is the parent of whatever opens next.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultTraceSpanCap bounds the spans one trace retains (keep-first, drops
// counted). A request whose solve emits more rounds than this keeps its
// prefix — enough to see where the time went — rather than an unbounded log.
const DefaultTraceSpanCap = 4096

// Trace is one request's span tree. Create with NewTrace, carry through the
// work via WithTrace, then Finish and Export (a FlightRecorder does both).
// All methods are safe for concurrent use and safe on a nil *Trace.
type Trace struct {
	id    string
	name  string
	start time.Time
	root  *Span

	spanID int64 // atomic; per-trace span ids start at 1 for the root

	mu       sync.Mutex
	spans    []SpanRecord
	dropped  int64
	annoKeys []string // insertion order, for deterministic export
	annos    map[string]string
	finished bool
	dur      time.Duration
}

// NewTrace opens a trace. A valid id (see ValidTraceID) is honored — that is
// how a client-supplied X-Kscope-Trace header becomes the trace's identity —
// anything else, including "", is replaced by a generated id. The trace's
// root span is open from creation until Finish.
func NewTrace(id, name string) *Trace {
	if !ValidTraceID(id) {
		id = newTraceID()
	}
	t := &Trace{
		id:    id,
		name:  name,
		start: time.Now(),
		annos: map[string]string{},
	}
	t.root = &Span{sink: t, id: t.nextSpanID(), name: name, start: t.start}
	return t
}

// ID returns the trace identity ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Root returns the trace's root span — the parent handle that pulls
// descendant spans into the trace. Nil on a nil trace.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// startSpan opens a span inside the trace, totalled in r (none when r is
// nil); a nil parent parents to the trace's root. Safe on a nil trace.
func (t *Trace) startSpan(r *Registry, name string, parent *Span) (*Span, func()) {
	if t == nil {
		return nil, func() {}
	}
	if parent == nil {
		parent = t.root
	}
	s := openSpan(t, r, name, parent, time.Now())
	return s, s.finish
}

// Annotate attaches one key/value fact to the trace (admission outcome,
// cache hit/miss, budget spent). Last write per key wins; key order of the
// export is first-write order. Safe on a nil trace.
func (t *Trace) Annotate(key, value string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if _, seen := t.annos[key]; !seen {
		t.annoKeys = append(t.annoKeys, key)
	}
	t.annos[key] = value
	t.mu.Unlock()
}

// Finish closes the root span and freezes the trace's duration. Idempotent;
// safe on a nil trace. Spans may still arrive from stragglers after Finish
// (they are retained, cap permitting) — the duration does not move.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.root.finish()
	t.mu.Lock()
	if !t.finished {
		t.finished = true
		t.dur = time.Since(t.start)
	}
	t.mu.Unlock()
}

// SpansDropped returns how many spans the per-trace cap discarded.
func (t *Trace) SpansDropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// spanSink implementation: spans opened under this trace record here.
func (t *Trace) nextSpanID() int64    { return atomic.AddInt64(&t.spanID, 1) }
func (t *Trace) spanEpoch() time.Time { return t.start }
func (t *Trace) recordSpan(rec SpanRecord) {
	t.mu.Lock()
	if len(t.spans) >= DefaultTraceSpanCap {
		t.dropped++
	} else {
		t.spans = append(t.spans, rec)
	}
	t.mu.Unlock()
}

// TraceExport is the immutable exported form of a finished trace — what the
// flight recorder retains and /tracez serves.
type TraceExport struct {
	ID           string            `json:"id"`
	Name         string            `json:"name"`
	Start        time.Time         `json:"start"`
	DurMS        float64           `json:"dur_ms"`
	Annotations  map[string]string `json:"annotations,omitempty"`
	Spans        []SpanRecord      `json:"spans"`
	SpansDropped int64             `json:"spans_dropped,omitempty"`
}

// Export copies the trace's current state, spans sorted by start time then
// id (the same order Snapshot uses). An unfinished trace exports its
// duration so far.
func (t *Trace) Export() TraceExport {
	if t == nil {
		return TraceExport{}
	}
	t.mu.Lock()
	e := TraceExport{
		ID:           t.id,
		Name:         t.name,
		Start:        t.start,
		Spans:        append([]SpanRecord(nil), t.spans...),
		SpansDropped: t.dropped,
	}
	if len(t.annoKeys) > 0 {
		e.Annotations = make(map[string]string, len(t.annoKeys))
		for _, k := range t.annoKeys {
			e.Annotations[k] = t.annos[k]
		}
	}
	dur := t.dur
	if !t.finished {
		dur = time.Since(t.start)
	}
	t.mu.Unlock()
	e.DurMS = float64(dur) / float64(time.Millisecond)
	sort.Slice(e.Spans, func(i, j int) bool {
		if e.Spans[i].Start != e.Spans[j].Start {
			return e.Spans[i].Start < e.Spans[j].Start
		}
		return e.Spans[i].ID < e.Spans[j].ID
	})
	return e
}

// ChromeTrace renders the exported trace as Chrome trace-event JSON — the
// same format Snapshot.ChromeTrace emits, loadable in Perfetto — with the
// trace id as the process name and the annotations on a metadata event.
func (e TraceExport) ChromeTrace() ([]byte, error) {
	events := []traceEvent{{
		Name: "process_name", Ph: "M", PID: 1, TID: 0,
		Args: map[string]any{"name": "kscope trace " + e.ID},
	}}
	if len(e.Annotations) > 0 {
		args := make(map[string]any, len(e.Annotations))
		for k, v := range e.Annotations {
			args[k] = v
		}
		events = append(events, traceEvent{
			Name: "annotations", Ph: "M", PID: 1, TID: 0, Args: args,
		})
	}
	return marshalChrome(appendSpanEvents(events, e.Spans))
}

// ValidTraceID reports whether id is acceptable as a wire trace identity:
// 1–64 characters of [A-Za-z0-9_-]. Anything else is replaced at NewTrace,
// so a hostile header cannot pollute logs or /tracez lookups.
func ValidTraceID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// fallbackTraceID serializes trace ids if crypto/rand is unusable.
var fallbackTraceID int64

func newTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "t" + strconv.FormatInt(atomic.AddInt64(&fallbackTraceID, 1), 16)
	}
	return hex.EncodeToString(b[:])
}

// Context plumbing. Both keys are private; the only way in or out is the
// functions below, so the stored types are always right.
type (
	traceCtxKey struct{}
	spanCtxKey  struct{}
)

// WithTrace returns a context carrying t as the active trace.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// TraceFrom returns the context's active trace, or nil.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}

// WithSpan returns a context in which s is the current parent span.
func WithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFrom returns the context's current parent span, or nil.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// StartSpanCtx opens a span wherever the context says it belongs: on the
// active trace when one is present (parented to the context's current span,
// else the trace root), otherwise on the registry exactly like
// Registry.StartSpan. Either way the finished span adds to r's total for
// its name. The returned context carries the new span as the
// current parent, so nested StartSpanCtx calls build the tree without
// threading handles explicitly. With neither a trace nor a registry the span
// is nil and the finish a no-op.
func StartSpanCtx(ctx context.Context, r *Registry, name string) (context.Context, *Span, func()) {
	parent := SpanFrom(ctx)
	var (
		s   *Span
		fin func()
	)
	if tr := TraceFrom(ctx); tr != nil {
		s, fin = tr.startSpan(r, name, parent)
	} else {
		s, fin = r.StartSpan(name, parent)
	}
	if s != nil {
		ctx = WithSpan(ctx, s)
	}
	return ctx, s, fin
}
