// Lightweight per-request tracing: every traced request owns a tree of
// spans (one per pipeline stage), identified by the request ID so one
// query is correlatable across the router and every shard it touched.
// Completed traces land in a bounded in-memory ring served at
// GET /v1/traces; traces slower than the tracer's Slow threshold are
// also emitted to slog as a rendered span tree, and every span's
// duration feeds the span_duration_seconds histogram.
//
// The API is nil-safe end to end: code instruments unconditionally
// (Begin/End on every stage), and when the context carries no trace the
// span operations are no-ops costing one context lookup — which is what
// keeps instrumented hot paths within the ≤2% overhead budget.
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// DefaultTraceRing is how many completed traces a tracer retains.
const DefaultTraceRing = 128

// Tracer owns the completed-trace ring and the slow-query policy.
// Configure the exported fields before serving.
type Tracer struct {
	// Log receives slow-query lines (nil: slog.Default at emit time).
	Log *slog.Logger
	// Slow emits a trace's full span tree to Log when the root span is
	// at least this slow (0: disabled).
	Slow time.Duration

	spanDur *HistogramVec

	mu   sync.Mutex
	ring []*Trace
	next int
	size int
}

// NewTracer returns a tracer retaining up to capacity completed traces
// (0: DefaultTraceRing). With a non-nil registry, every completed
// span's duration is recorded into span_duration_seconds{span=...}.
func NewTracer(reg *Registry, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceRing
	}
	t := &Tracer{ring: make([]*Trace, capacity)}
	if reg != nil {
		t.spanDur = reg.Histogram("span_duration_seconds",
			"Duration of completed trace spans by stage.", LatencyBuckets, "span")
	}
	return t
}

// Trace is one request's span tree. Spans share the trace's mutex: span
// creation is rare (a handful per request) and fan-out goroutines must
// append children concurrently.
type Trace struct {
	t     *Tracer
	id    string
	start time.Time

	mu   sync.Mutex
	seq  int
	root *Span
}

// ID returns the trace's identifier (the request ID that started it).
func (tr *Trace) ID() string { return tr.id }

// Span is one timed stage of a trace. A nil *Span is a valid no-op
// receiver for every method.
type Span struct {
	tr       *Trace
	id       string
	name     string
	start    time.Time
	dur      time.Duration
	ended    bool
	attrs    []Attr
	children []*Span
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

type spanCtxKey struct{}

// Start begins a new trace rooted at a span with the given name,
// keyed by id (conventionally the request ID), and returns a context
// carrying the root span. A nil tracer returns (ctx, nil).
func (t *Tracer) Start(ctx context.Context, id, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	tr := &Trace{t: t, id: id, start: time.Now()}
	// A request's root has a child per pipeline stage; room for them up
	// front is one allocation instead of four.
	sp := &Span{tr: tr, id: "1", name: name, start: tr.start, children: make([]*Span, 0, 8)}
	tr.seq = 1
	tr.root = sp
	return context.WithValue(ctx, spanCtxKey{}, sp), sp
}

// spanFrom returns the span ctx carries, or nil.
func spanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// ContextWithSpan returns ctx carrying sp, so spans begun from the
// returned context nest under it (fan-out goroutines, RPC clients).
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// Begin starts a child span of the context's current span. When the
// context carries no span (untraced execution) it returns nil, and
// every operation on the nil span is a no-op.
func Begin(ctx context.Context, name string) *Span {
	return spanFrom(ctx).Child(name)
}

// Record adds to the context's current span a finished child that its
// caller timed with clock reads of its own: begun at start, lasting dur.
func Record(ctx context.Context, name string, start time.Time, dur time.Duration) {
	if c := Begin(ctx, name); c != nil {
		c.tr.mu.Lock()
		c.start, c.dur, c.ended = start, dur, true
		c.tr.mu.Unlock()
	}
}

// SpanContext returns the trace and span IDs ctx carries, for
// cross-process propagation (the X-Span-Context header).
func SpanContext(ctx context.Context) (traceID, spanID string, ok bool) {
	sp := spanFrom(ctx)
	if sp == nil {
		return "", "", false
	}
	return sp.tr.id, sp.id, true
}

// MaxSpanContextLen bounds an acceptable X-Span-Context header value.
// Real values are a request ID plus a small span sequence number;
// anything longer is garbage (or an attack on the trace store).
const MaxSpanContextLen = 128

// ParseSpanContext validates and splits an X-Span-Context header value
// ("traceID/spanID", as SpanContext emits). It never panics and rejects
// rather than guesses: empty values, oversized values, missing or
// duplicated separators, empty halves, and bytes outside printable
// ASCII all return ok=false — ingestion then proceeds with a fresh root
// span, because a degraded trace beats a failed request.
func ParseSpanContext(s string) (traceID, spanID string, ok bool) {
	if len(s) == 0 || len(s) > MaxSpanContextLen {
		return "", "", false
	}
	sep := -1
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c <= ' ' || c > '~' {
			return "", "", false
		}
		if c == '/' {
			if sep >= 0 {
				return "", "", false
			}
			sep = i
		}
	}
	if sep <= 0 || sep == len(s)-1 {
		return "", "", false
	}
	return s[:sep], s[sep+1:], true
}

// Child starts a new span under s, safe to call from concurrent
// goroutines (the router's shard fan-out).
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	tr := s.tr
	tr.mu.Lock()
	tr.seq++
	c := &Span{tr: tr, id: strconv.Itoa(tr.seq), name: name, start: time.Now()}
	s.children = append(s.children, c)
	tr.mu.Unlock()
	return c
}

// SetName renames the span (the HTTP middleware names the root after
// the matched route, known only once the handler ran).
func (s *Span) SetName(name string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.name = name
	s.tr.mu.Unlock()
}

// SetAttr annotates the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.tr.mu.Unlock()
}

// Duration returns the span's duration (0 until End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return s.dur
}

// End stops the span. Ending the root span completes the trace: it
// enters the tracer's ring, span durations are recorded, and the
// slow-query log fires if the threshold is crossed. End is idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	tr := s.tr
	tr.mu.Lock()
	if s.ended {
		tr.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
	isRoot := tr.root == s
	tr.mu.Unlock()
	if isRoot {
		tr.t.complete(tr)
	}
}

// complete records a finished trace: ring, histograms, slow log.
func (t *Tracer) complete(tr *Trace) {
	t.mu.Lock()
	t.ring[t.next] = tr
	t.next = (t.next + 1) % len(t.ring)
	if t.size < len(t.ring) {
		t.size++
	}
	t.mu.Unlock()
	tr.mu.Lock()
	root := tr.root
	rootDur := root.dur
	tr.mu.Unlock()
	if t.spanDur != nil {
		t.recordSpans(root)
	}
	if t.Slow > 0 && rootDur >= t.Slow {
		log := t.Log
		if log == nil {
			log = slog.Default()
		}
		log.Warn("slow query",
			"trace", tr.id,
			"duration_ms", float64(rootDur.Microseconds())/1000,
			"threshold_ms", float64(t.Slow.Microseconds())/1000,
			"spans", renderTree(tr, root))
	}
}

// recordSpans folds every completed span's duration into the
// span-duration histogram, keyed by span name (bounded cardinality:
// names are static stage labels and route patterns).
func (t *Tracer) recordSpans(s *Span) {
	s.tr.mu.Lock()
	name, dur, ended := s.name, s.dur, s.ended
	children := append([]*Span(nil), s.children...)
	s.tr.mu.Unlock()
	if ended {
		//lint:allow metriclabel -- span names are set only from route patterns (HTTPBase.Middleware) and static stage constants (Begin, Child and Record call sites), a finite set the analyzer can't see across functions
		t.spanDur.With(name).Observe(dur.Seconds())
	}
	for _, c := range children {
		t.recordSpans(c)
	}
}

// renderTree renders a span tree on one line for the slow-query log:
// "name 12.3ms [child 8.1ms [..], child 2.0ms]".
func renderTree(tr *Trace, s *Span) string {
	var b strings.Builder
	writeTree(tr, s, &b)
	return b.String()
}

func writeTree(tr *Trace, s *Span, b *strings.Builder) {
	tr.mu.Lock()
	name, dur := s.name, s.dur
	children := append([]*Span(nil), s.children...)
	tr.mu.Unlock()
	fmt.Fprintf(b, "%s %.3fms", name, float64(dur.Microseconds())/1000)
	if len(children) > 0 {
		b.WriteString(" [")
		for i, c := range children {
			if i > 0 {
				b.WriteString(", ")
			}
			writeTree(tr, c, b)
		}
		b.WriteByte(']')
	}
}

// WireSpan is a span's JSON form in GET /v1/traces.
type WireSpan struct {
	ID         string     `json:"id"`
	Name       string     `json:"name"`
	StartMs    float64    `json:"start_ms"` // offset from trace start
	DurationMs float64    `json:"duration_ms"`
	Attrs      []Attr     `json:"attrs,omitempty"`
	Children   []WireSpan `json:"children,omitempty"`
}

// WireTrace is a completed trace's JSON form.
type WireTrace struct {
	ID         string    `json:"id"`
	Start      time.Time `json:"start"`
	DurationMs float64   `json:"duration_ms"`
	Root       WireSpan  `json:"root"`
}

// TracesResponse is the body of GET /v1/traces.
type TracesResponse struct {
	Traces []WireTrace `json:"traces"`
}

// Traces snapshots the completed-trace ring, newest first.
func (t *Tracer) Traces() []WireTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	trs := make([]*Trace, 0, t.size)
	for i := 0; i < t.size; i++ {
		// next-1 is the newest; walk backwards.
		idx := (t.next - 1 - i + len(t.ring)*2) % len(t.ring)
		trs = append(trs, t.ring[idx])
	}
	t.mu.Unlock()
	out := make([]WireTrace, 0, len(trs))
	for _, tr := range trs {
		tr.mu.Lock()
		wt := WireTrace{
			ID:         tr.id,
			Start:      tr.start,
			DurationMs: float64(tr.root.dur.Microseconds()) / 1000,
			Root:       wireSpanLocked(tr, tr.root),
		}
		tr.mu.Unlock()
		out = append(out, wt)
	}
	return out
}

// TraceByID returns one completed trace by ID, if retained.
func (t *Tracer) TraceByID(id string) (WireTrace, bool) {
	for _, wt := range t.Traces() {
		if wt.ID == id {
			return wt, true
		}
	}
	return WireTrace{}, false
}

// wireSpanLocked converts a span subtree; the trace mutex is held.
func wireSpanLocked(tr *Trace, s *Span) WireSpan {
	ws := WireSpan{
		ID:         s.id,
		Name:       s.name,
		StartMs:    float64(s.start.Sub(tr.start).Microseconds()) / 1000,
		DurationMs: float64(s.dur.Microseconds()) / 1000,
		Attrs:      s.attrs,
	}
	if len(s.children) > 0 {
		ws.Children = make([]WireSpan, len(s.children))
		// Children sort by start time: fan-out goroutines append in
		// scheduler order, but readers want timeline order.
		idx := make([]int, len(s.children))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			return s.children[idx[a]].start.Before(s.children[idx[b]].start)
		})
		for i, j := range idx {
			ws.Children[i] = wireSpanLocked(tr, s.children[j])
		}
	}
	return ws
}

// Handler serves the completed-trace ring as JSON.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(TracesResponse{Traces: t.Traces()}); err != nil {
			return // client gone mid-write
		}
	})
}
