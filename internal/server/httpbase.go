package server

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	webtable "repro"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/table"
)

// HTTPBase is the HTTP plumbing shared by every serving process — the
// single-node server, the shard server and the scatter-gather router:
// request IDs (echoed if the client sent one, else minted with a
// process-unique prefix), per-request timeouts, body caps, in-flight
// accounting, one structured log line per request, JSON responses with
// structured errors, and graceful drain on shutdown. Embedding it keeps
// the processes of a distributed deployment behaviorally identical at
// the transport layer, which the byte-identical-results contract
// depends on.
//
// Configure the exported fields before serving; they must not change
// afterwards.
type HTTPBase struct {
	// Log receives the per-request log lines (default slog.Default()).
	Log *slog.Logger
	// Timeout bounds each request's handling time (0: no deadline,
	// leaving only client-disconnect cancellation).
	Timeout time.Duration
	// Drain bounds how long Serve waits for in-flight requests after
	// its context is canceled.
	Drain time.Duration
	// MaxBody caps request body size (0: unlimited).
	MaxBody int64
	// MapErr resolves an error to its HTTP status, stable error code and
	// offending field; nil uses MapError. Servers with extra error
	// domains (the router's shard failures) install a wrapper that
	// falls back to MapError.
	MapErr func(error) (status int, code, field string)
	// Reg collects this serving surface's metrics. Each base owns its
	// own registry (two servers in one process never share counters);
	// MetricsHandler merges it with the process-global obs.Default().
	Reg *obs.Registry
	// Tracer records one span tree per request, rooted at the matched
	// route and keyed by the request ID. Set Tracer.Slow (via the
	// servers' WithSlowQueryLog options) to emit slow traces to Log.
	Tracer *obs.Tracer

	idPrefix string
	reqSeq   atomic.Uint64
	inflight atomic.Int64

	// The request metrics Handle feeds, registered by instrument.
	reqTotal *obs.CounterVec
	reqDur   *obs.HistogramVec
	cells    routeCells
}

// NewHTTPBase returns a base with the standard defaults: slog.Default,
// 30s request timeout, 10s drain, 8 MiB body cap, and a random
// process-unique request-ID prefix.
func NewHTTPBase() *HTTPBase {
	reg := obs.NewRegistry()
	b := &HTTPBase{
		Log:     slog.Default(),
		Timeout: 30 * time.Second,
		Drain:   10 * time.Second,
		MaxBody: 8 << 20,
		Reg:     reg,
		Tracer:  obs.NewTracer(reg, obs.DefaultTraceRing),
	}
	var pre [4]byte
	if _, err := rand.Read(pre[:]); err == nil {
		b.idPrefix = hex.EncodeToString(pre[:])
	} else {
		b.idPrefix = "00000000"
	}
	return b
}

// InFlight reports the number of requests currently being handled.
func (b *HTTPBase) InFlight() int64 { return b.inflight.Load() }

type ctxKey int

const requestIDKey ctxKey = 0

// RequestID returns the request ID the middleware attached to ctx.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// ContextWithRequestID attaches a request ID to ctx, for callers
// entering the request path without going through the HTTP middleware
// (library use of the shard client, tests). Its only callers are
// internal/dist's tests; an export_test.go serves its own package only.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// statusWriter records the status code for the log line.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the connection (the shard
// stream's upgrade hijacks it).
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// routeKey is one (route, method, status) cell of the request metrics,
// routeCell its two handles.
type routeKey struct {
	route, method string
	status        int
}

type routeCell struct {
	total *obs.Counter
	dur   *obs.Histogram
}

// routeCells remembers the request metrics' handles per cell, so that a
// request costs one map read instead of two label-map lookups under the
// families' mutexes and a strconv.Itoa. The map is bounded by the route
// table times the methods and statuses handlers answer with.
type routeCells struct {
	mu    sync.RWMutex
	cells map[routeKey]routeCell
}

func (rc *routeCells) get(k routeKey) (routeCell, bool) {
	rc.mu.RLock()
	defer rc.mu.RUnlock()
	c, ok := rc.cells[k]
	return c, ok
}

func (rc *routeCells) put(k routeKey, c routeCell) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.cells[k] = c
}

// mintRequestID spells the next request ID, "<prefix>-%06d".
func (b *HTTPBase) mintRequestID() string {
	var buf [32]byte
	id := append(append(buf[:0], b.idPrefix...), '-')
	seq := b.reqSeq.Add(1)
	for pad := uint64(100000); pad > seq; pad /= 10 {
		id = append(id, '0')
	}
	return string(strconv.AppendUint(id, seq, 10))
}

// Call is one request as the envelope sees it, whichever framing
// carried it: an HTTP request (Middleware) or a frame of a shard stream.
type Call struct {
	// ID is the request ID the peer sent; empty, one is minted.
	ID string
	// SpanContext is the peer's calling span ("trace/span", the
	// X-Span-Context header), or empty. It is advisory: a malformed,
	// truncated or oversized one degrades to a root span with no parent
	// attr, never an error — tracing must not be able to fail a request.
	SpanContext string
	// Method, Path and Remote go to the log line; Method also names the
	// root span until the route is known, and labels the request metrics.
	Method, Path, Remote string
	// Budget, when positive, is how long the peer will wait; the request's
	// deadline is the sooner of it and Timeout.
	Budget time.Duration
}

// instrument registers the request metrics and hands the tracer the
// logger, once per base and before it serves.
func (b *HTTPBase) instrument() {
	if b.Reg != nil && b.reqTotal == nil {
		b.reqTotal = b.Reg.Counter("http_requests_total",
			"HTTP requests handled, by matched route, method and status.",
			"route", "method", "status")
		b.reqDur = b.Reg.Histogram("http_request_duration_seconds",
			"HTTP request handling latency by matched route.",
			obs.LatencyBuckets, "route")
		b.Reg.GaugeFunc("http_in_flight_requests",
			"Requests currently being handled.",
			func() float64 { return float64(b.inflight.Load()) })
		b.cells.cells = make(map[routeKey]routeCell)
	}
	if b.Tracer != nil && b.Tracer.Log == nil {
		b.Tracer.Log = b.Log
	}
}

// Handle is the per-request envelope every request passes through,
// however it arrived: it attaches the request ID (the peer's, else a
// minted one), the per-request deadline and the trace root span, counts
// the request in flight while run executes, and afterwards names the span
// by the route run reports, feeds the route's request metrics and writes
// the one structured log line. run answers the request — it receives the
// envelope's context and the request ID — and returns the matched route
// (empty: "unmatched") and the status it answered with. The route labels
// metrics and names spans, so it must come from a finite set: a ServeMux
// pattern, a constant — never a path. Middleware must have been called on
// the base first (it registers what Handle records).
func (b *HTTPBase) Handle(ctx context.Context, c Call, run func(ctx context.Context, id string) (route string, status int)) {
	start := time.Now()
	b.inflight.Add(1)
	defer b.inflight.Add(-1)

	id := c.ID
	if id == "" {
		id = b.mintRequestID()
	}
	ctx = context.WithValue(ctx, requestIDKey, id)
	timeout := b.Timeout
	if c.Budget > 0 && (timeout <= 0 || c.Budget < timeout) {
		timeout = c.Budget
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var sp *obs.Span
	if b.Tracer != nil {
		// The root span's trace ID is the request ID, so one query's
		// traces correlate across router and shards; the span is
		// renamed to the matched route once run resolved it.
		ctx, sp = b.Tracer.Start(ctx, id, c.Method)
		if c.SpanContext != "" {
			if traceID, spanID, ok := obs.ParseSpanContext(c.SpanContext); ok {
				sp.SetAttr("parent", traceID+"/"+spanID)
			}
		}
	}

	route, status := run(ctx, id)
	if route == "" {
		route = "unmatched"
	}
	sp.SetName(route)
	sp.End()
	dur := time.Since(start)
	if b.reqTotal != nil {
		method := normalizeMethodLabel(c.Method)
		key := routeKey{route, method, status}
		cell, ok := b.cells.get(key)
		if !ok {
			cell = routeCell{b.reqTotal.With(route, method, strconv.Itoa(status)), b.reqDur.With(route)}
			b.cells.put(key, cell)
		}
		cell.total.Inc()
		cell.dur.Observe(dur.Seconds())
	}
	b.Log.LogAttrs(context.Background(), slog.LevelInfo, "request",
		slog.String("id", id),
		slog.String("method", c.Method),
		slog.String("path", c.Path),
		slog.Int("status", status),
		slog.Float64("duration_ms", float64(dur.Microseconds())/1000),
		slog.String("remote", c.Remote),
	)
}

// Middleware is the HTTP framing of Handle: it reads the request ID and
// span context from the headers, echoes the ID, caps the body, and maps a
// context already dead on arrival (client gone before dispatch) to its
// error response without invoking the handler. The route is the pattern
// the inner ServeMux matched.
func (b *HTTPBase) Middleware(next http.Handler) http.Handler {
	b.instrument()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Spelled the way net/http canonicalises them, or every Get and
		// Set allocates the canonical spelling.
		call := Call{
			ID:          r.Header.Get("X-Request-Id"),
			SpanContext: r.Header.Get("X-Span-Context"),
			Method:      r.Method, Path: r.URL.Path, Remote: r.RemoteAddr,
		}
		b.Handle(r.Context(), call, func(ctx context.Context, id string) (string, int) {
			w.Header().Set("X-Request-Id", id)
			r := r.WithContext(ctx)
			if b.MaxBody > 0 && r.Body != nil {
				r.Body = http.MaxBytesReader(w, r.Body, b.MaxBody)
			}
			sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
			if err := ctx.Err(); err != nil {
				b.WriteError(sw, r, err)
			} else {
				next.ServeHTTP(sw, r)
			}
			// r.Pattern is filled by the inner ServeMux during dispatch;
			// using it (not the raw path) keeps the route label's
			// cardinality bounded by the route table.
			return r.Pattern, sw.status
		})
	})
}

// normalizeMethodLabel folds the request method into the finite set of
// standard HTTP methods so a client sending arbitrary method strings
// cannot mint unbounded label values in the request metrics.
func normalizeMethodLabel(method string) string {
	switch method {
	case http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut,
		http.MethodPatch, http.MethodDelete, http.MethodConnect,
		http.MethodOptions, http.MethodTrace:
		return method
	}
	return "other"
}

// MetricsHandler serves this base's registry merged with the
// process-global obs.Default() (runtime and subsystem metrics) in
// Prometheus text exposition format.
func (b *HTTPBase) MetricsHandler() http.Handler { return obs.Handler(b.Reg, obs.Default()) }

// CorpusMetricsHandler is MetricsHandler for a process that serves a
// corpus: every scrape first sets corpus_resident_bytes{part} — what the
// corpus view svc serves at that moment keeps in memory, by part
// (searchidx.ResidentBytes). The numbers were counted when the view was
// built; a scrape copies four of them. It also registers the execution
// arena pool's two numbers (search.ArenaStats), read at scrape time; the
// pool is the process's, so two servers in one process report the same.
func (b *HTTPBase) CorpusMetricsHandler(svc *webtable.Service) http.Handler {
	resident := b.Reg.Gauge("corpus_resident_bytes",
		"Bytes the served corpus keeps resident, by part, counted from array lengths and element sizes.", "part")
	cells, dictionaries := resident.With("cells"), resident.With("dictionaries")
	postings, tables := resident.With("postings"), resident.With("tables")
	b.Reg.GaugeFunc("search_arena_bytes",
		"Bytes of slice capacity parked in the pool of search execution arenas, waiting for the next query.",
		func() float64 { parked, _ := search.ArenaStats(); return float64(parked) })
	b.Reg.CounterFunc("search_arena_grows_total",
		"Search executions that returned their arena larger than they took it (a query outgrew its arena, or found the pool empty).",
		func() float64 { _, grows := search.ArenaStats(); return float64(grows) })
	metrics := b.MetricsHandler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rb, _ := svc.ResidentBytes()
		cells.Set(float64(rb.Cells))
		dictionaries.Set(float64(rb.Dictionaries))
		postings.Set(float64(rb.Postings))
		tables.Set(float64(rb.Tables))
		metrics.ServeHTTP(w, r)
	})
}

// TracesHandler serves the tracer's completed-trace ring as JSON.
func (b *HTTPBase) TracesHandler() http.Handler { return b.Tracer.Handler() }

// errTraceNotFound reports a GET /v1/traces/{id} whose trace is not in
// the ring — never recorded, or already evicted by newer traces.
var errTraceNotFound = errors.New("server: trace not found (never recorded or evicted)")

// TraceHandler serves GET /v1/traces/{id}: one completed trace by
// request ID, or the standard 404 error body when the ring no longer
// holds it.
func (b *HTTPBase) TraceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		wt, ok := b.Tracer.TraceByID(id)
		if !ok {
			b.WriteError(w, r, fmt.Errorf("%w: %q", errTraceNotFound, id))
			return
		}
		b.WriteJSON(w, http.StatusOK, wt)
	})
}

// Serve accepts connections on ln until ctx is canceled, then shuts
// down gracefully: the listener closes, in-flight requests get up to
// the drain timeout to finish, and Serve returns nil on a clean drain.
// A listener failure is returned as-is.
func (b *HTTPBase) Serve(ctx context.Context, ln net.Listener, h http.Handler) error {
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return context.Background() },
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	b.Log.Info("shutting down", "in_flight", b.InFlight(), "drain_timeout", b.Drain)
	sdCtx, cancel := context.WithTimeout(context.Background(), b.Drain)
	defer cancel()
	if err := srv.Shutdown(sdCtx); err != nil {
		return fmt.Errorf("server: shutdown: %w", err)
	}
	<-errc // http.ErrServerClosed from the Serve goroutine
	return nil
}

// MapError resolves an error to its HTTP status, stable error code and
// (when known) offending field. This is the single place the service's
// sentinel errors meet HTTP; every serving process maps identically so
// clients see one error contract cluster-wide.
func MapError(err error) (status int, code, field string) {
	var qe *webtable.QueryError
	if errors.As(err, &qe) {
		field = qe.Field
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge, "body_too_large", field
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline_exceeded", field
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest, "client_closed_request", field
	case errors.Is(err, webtable.ErrInvalidCursor):
		return http.StatusBadRequest, "invalid_cursor", field
	case errors.Is(err, webtable.ErrInvalidPageSize):
		return http.StatusBadRequest, "invalid_page_size", field
	case errors.Is(err, webtable.ErrInvalidMode):
		return http.StatusBadRequest, "invalid_mode", field
	case errors.Is(err, webtable.ErrUnknownName):
		return http.StatusBadRequest, "unknown_name", field
	case errors.Is(err, webtable.ErrInvalidQuery):
		return http.StatusBadRequest, "invalid_query", field
	case errors.Is(err, webtable.ErrNoIndex):
		return http.StatusConflict, "no_index", field
	case errors.Is(err, webtable.ErrUnknownTable):
		return http.StatusNotFound, "unknown_table", field
	case errors.Is(err, errTraceNotFound):
		return http.StatusNotFound, "trace_not_found", field
	case errors.Is(err, webtable.ErrDuplicateTable):
		return http.StatusConflict, "duplicate_table", field
	case errors.Is(err, webtable.ErrMissingTableID):
		return http.StatusBadRequest, "missing_table_id", field
	case errors.Is(err, errSnapshotUnconfigured):
		return http.StatusConflict, "snapshot_unconfigured", field
	case errors.Is(err, webtable.ErrNilTable),
		errors.Is(err, table.ErrRagged),
		errors.Is(err, table.ErrEmpty):
		return http.StatusBadRequest, "invalid_table", field
	case errors.Is(err, webtable.ErrUnknownMethod):
		return http.StatusBadRequest, "unknown_method", field
	case errors.Is(err, errBadBody):
		return http.StatusBadRequest, "bad_request", field
	default:
		return http.StatusInternalServerError, "internal", field
	}
}

// ErrorBody returns the status and the structured JSON body that answer
// err, mapped through MapErr (default MapError) — the bytes WriteError
// sends, for a framing that is not an http.ResponseWriter.
func (b *HTTPBase) ErrorBody(ctx context.Context, err error) (status int, body []byte) {
	mapErr := b.MapErr
	if mapErr == nil {
		mapErr = MapError
	}
	status, code, field := mapErr(err)
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(ErrorResponse{Error: ErrorBody{
		Code:      code,
		Message:   err.Error(),
		Field:     field,
		RequestID: RequestID(ctx),
	}}); err != nil {
		b.Log.Error("encode response", "err", err)
	}
	return status, buf.Bytes()
}

// WriteError writes the structured JSON error response for err.
func (b *HTTPBase) WriteError(w http.ResponseWriter, r *http.Request, err error) {
	status, body := b.ErrorBody(r.Context(), err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// WriteJSON writes v as the JSON response body with the given status.
func (b *HTTPBase) WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		b.Log.Error("encode response", "err", err)
	}
}

// DecodeJSON strictly decodes a request's JSON body into v: unknown
// fields and trailing data are errors (mapped to 400 bad_request), and
// a body-cap overflow keeps its MaxBytesError identity (413). It takes
// any reader, for handlers that buffered the body (the router reads it
// once, validates locally, and forwards the same bytes to every shard).
func DecodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badBody(err)
	}
	// Nothing may follow the value: the next token has to be the end of
	// the body. (Decoder.More cannot tell — it is false before a stray
	// closing bracket too.)
	switch _, err := dec.Token(); {
	case errors.Is(err, io.EOF):
		return nil
	case err == nil:
		return fmt.Errorf("%w: trailing data after JSON body", errBadBody)
	default:
		return badBody(err)
	}
}

// badBody wraps a body that could not be read as JSON; a body-cap
// overflow keeps its MaxBytesError identity (MapError turns it into 413,
// not 400).
func badBody(err error) error {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return err
	}
	return fmt.Errorf("%w: %v", errBadBody, err)
}
