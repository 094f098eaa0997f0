// Package server exposes a webtable.Service over JSON HTTP: the serving
// tier of the search application (§7 runs user queries against
// materialized annotation indices; this is that query front end).
//
// Endpoints:
//
//	POST   /v1/search        one search request  → one result page
//	POST   /v1/search:batch  many requests       → parallel results
//	POST   /v1/annotate      one table           → its annotation
//	POST   /v1/tables        annotate + index new tables into the live corpus
//	DELETE /v1/tables/{id}   remove one table from the live corpus
//	POST   /v1/snapshot      persist the live corpus to the configured path
//	GET    /v1/healthz       liveness
//	GET    /v1/stats         corpus / segment / catalog counts
//
// Every request gets an X-Request-ID (echoed if the client sent one), a
// structured log line, and a per-request timeout; the request context is
// canceled when the client disconnects, and that cancellation propagates
// into query execution and the BP schedule. Search and annotate
// concurrency is bounded by the Service's own worker-pool semaphore, so
// HTTP load and library callers share one limit. Failures are structured
// JSON ({"error": {code, message, field, request_id}}) with statuses
// mapped from the service's sentinel errors.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"sort"
	"time"

	webtable "repro"
	"repro/internal/cmdio"
	"repro/internal/obs"
)

// StatusClientClosedRequest is the non-standard (nginx-convention)
// status reported when the client went away before the response.
const StatusClientClosedRequest = 499

// errBadBody reports an unreadable or non-JSON request body.
var errBadBody = errors.New("server: malformed request body")

// errSnapshotUnconfigured reports a POST /v1/snapshot on a server built
// without WithSnapshotPath.
var errSnapshotUnconfigured = errors.New("server: no snapshot path configured (start tabserved with -snapshot)")

// Server wraps one Service with the HTTP surface. Construct with New;
// safe for concurrent use.
type Server struct {
	svc      *webtable.Service
	base     *HTTPBase
	snapPath string
	// snapMu serializes POST /v1/snapshot so two concurrent persists
	// cannot interleave their temp-file renames.
	snapMu      chan struct{}
	handler     http.Handler
	searchTotal *obs.CounterVec
	execStats   *ExecStatsRecorder
}

// Option configures a Server.
type Option func(*Server)

// WithLogger sets the structured logger (default: slog.Default()).
func WithLogger(l *slog.Logger) Option { return func(s *Server) { s.base.Log = l } }

// WithTimeout bounds each request's handling time (default 30s; 0
// disables the per-request deadline, leaving only client-disconnect
// cancellation).
func WithTimeout(d time.Duration) Option { return func(s *Server) { s.base.Timeout = d } }

// WithDrainTimeout bounds how long Serve waits for in-flight requests
// after its context is canceled (default 10s).
func WithDrainTimeout(d time.Duration) Option { return func(s *Server) { s.base.Drain = d } }

// WithMaxBodyBytes caps request body size (default 8 MiB). It is exported
// for internal/dist's tests; an export_test.go serves its own package only.
func WithMaxBodyBytes(n int64) Option { return func(s *Server) { s.base.MaxBody = n } }

// WithSnapshotPath enables POST /v1/snapshot: the live corpus is
// persisted to this path (written via a temp file + atomic rename) so an
// updated corpus survives a restart without re-annotating. Without it
// the endpoint answers 409 snapshot_unconfigured.
func WithSnapshotPath(path string) Option { return func(s *Server) { s.snapPath = path } }

// WithSlowQueryLog emits any request whose handling takes at least d as
// a full span tree to the structured log (default: disabled).
func WithSlowQueryLog(d time.Duration) Option { return func(s *Server) { s.base.Tracer.Slow = d } }

// New builds a server over svc.
func New(svc *webtable.Service, opts ...Option) *Server {
	s := &Server{
		svc:    svc,
		base:   NewHTTPBase(),
		snapMu: make(chan struct{}, 1),
	}
	for _, opt := range opts {
		opt(s)
	}
	s.searchTotal = s.base.Reg.Counter("search_requests_total",
		"Search requests executed, by query mode.", "mode")
	s.execStats = NewExecStatsRecorder(s.base.Reg)
	registerServiceMetrics(s.base.Reg, svc)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.Handle("GET /metrics", s.base.CorpusMetricsHandler(svc))
	mux.Handle("GET /v1/traces", s.base.TracesHandler())
	mux.Handle("GET /v1/traces/{id}", s.base.TraceHandler())
	mux.HandleFunc("POST /v1/search", s.handleSearch)
	mux.HandleFunc("POST /v1/search:batch", s.handleSearchBatch)
	mux.HandleFunc("POST /v1/annotate", s.handleAnnotate)
	mux.HandleFunc("POST /v1/tables", s.handleAddTables)
	mux.HandleFunc("DELETE /v1/tables/{id}", s.handleRemoveTable)
	mux.HandleFunc("POST /v1/snapshot", s.handleSnapshot)
	// No catch-all: unmatched paths get ServeMux's 404 and, crucially,
	// a matched path with the wrong method gets its 405 + Allow header
	// (a "/" fallback would swallow those into 404s).
	s.handler = s.base.Middleware(mux)
	return s
}

// registerServiceMetrics installs the worker-pool and corpus gauges
// every corpus-serving process exposes (the single-node server and the
// shard server; the router has no corpus).
func registerServiceMetrics(reg *obs.Registry, svc *webtable.Service) {
	reg.GaugeFunc("service_worker_slots",
		"Worker-pool size bounding concurrent annotation and search.",
		func() float64 { return float64(svc.Workers()) })
	reg.GaugeFunc("service_workers_busy",
		"Worker-pool slots currently held.",
		func() float64 { return float64(svc.WorkersInUse()) })
	corpusGauge := func(f func(webtable.CorpusStats) float64) func() float64 {
		return func() float64 {
			stats, ok := svc.CorpusStats()
			if !ok {
				return 0
			}
			return f(stats)
		}
	}
	reg.GaugeFunc("corpus_tables", "Live tables in the corpus.",
		corpusGauge(func(s webtable.CorpusStats) float64 { return float64(s.Tables) }))
	reg.GaugeFunc("corpus_segments", "Live index segments.",
		corpusGauge(func(s webtable.CorpusStats) float64 { return float64(s.Segments) }))
	reg.GaugeFunc("corpus_tombstones", "Removed tables not yet compacted away.",
		corpusGauge(func(s webtable.CorpusStats) float64 { return float64(s.Tombstones) }))
	reg.GaugeFunc("corpus_generation", "Corpus generation (bumped by every mutation).",
		corpusGauge(func(s webtable.CorpusStats) float64 { return float64(s.Generation) }))
}

// Handler returns the full middleware-wrapped HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

// InFlight reports the number of requests currently being handled.
func (s *Server) InFlight() int64 { return s.base.InFlight() }

// Serve accepts connections on ln until ctx is canceled, then shuts down
// gracefully: the listener closes, in-flight requests get up to the
// drain timeout to finish, and Serve returns nil on a clean drain. A
// listener failure is returned as-is.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	return s.base.Serve(ctx, ln, s.handler)
}

// --- handlers ---

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.base.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	cs := s.svc.Catalog().Stats()
	resp := StatsResponse{
		Workers:     s.svc.Workers(),
		Parallelism: 1,
		InFlight:    s.InFlight(),
		Catalog: CatalogStats{
			Types:     cs.Types,
			Entities:  cs.Entities,
			Relations: cs.Relations,
			Tuples:    cs.Tuples,
		},
	}
	if corpus, ok := s.svc.CorpusStats(); ok {
		resp.IndexBuilt = true
		resp.CorpusStats = toCorpusStats(corpus)
	}
	s.base.WriteJSON(w, http.StatusOK, resp)
}

// handleSearch is POST /v1/search. A worker-pool slot bounds how many
// searches execute at once; waiting for a slot still honors the request
// deadline and client disconnect.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var wr SearchRequest
	if err := DecodeJSON(r.Body, &wr); err != nil {
		s.base.WriteError(w, r, err)
		return
	}
	req, err := wr.Resolve(s.svc)
	if err != nil {
		s.base.WriteError(w, r, err)
		return
	}
	s.searchTotal.With(req.Mode.String()).Inc()
	ctx := r.Context()
	if err := s.svc.Acquire(ctx); err != nil {
		s.base.WriteError(w, r, err)
		return
	}
	defer s.svc.Release()
	res, err := s.svc.Search(ctx, req)
	if err != nil {
		s.base.WriteError(w, r, err)
		return
	}
	s.execStats.Record(res.Stats)
	out := ToSearchResponse(s.svc.Catalog(), res)
	if req.Debug {
		out.Debug = &SearchDebug{Stats: ToExecStatsWire(res.Stats)}
	}
	s.base.WriteJSON(w, http.StatusOK, out)
}

// handleSearchBatch is POST /v1/search:batch. The fan-out runs on the
// service's worker pool (SearchBatch acquires its own slots, so the
// handler must not hold one). Per-item failures come back in the body;
// only whole-batch failures (cancellation, no index, bad body) produce a
// non-2xx status.
func (s *Server) handleSearchBatch(w http.ResponseWriter, r *http.Request) {
	var br BatchRequest
	if err := DecodeJSON(r.Body, &br); err != nil {
		s.base.WriteError(w, r, err)
		return
	}
	resp := BatchResponse{Results: make([]*SearchResponse, len(br.Requests))}
	reqs := make([]webtable.SearchRequest, 0, len(br.Requests))
	origIndex := make([]int, 0, len(br.Requests))
	for i := range br.Requests {
		req, err := br.Requests[i].Resolve(s.svc)
		if err != nil {
			_, code, field := MapError(err)
			resp.Errors = append(resp.Errors, BatchItemError{Index: i, Error: ErrorBody{
				Code: code, Message: err.Error(), Field: field,
			}})
			continue
		}
		reqs = append(reqs, req)
		origIndex = append(origIndex, i)
	}
	results, err := s.svc.SearchBatch(r.Context(), reqs)
	if err != nil {
		var be *webtable.BatchError
		if !errors.As(err, &be) {
			s.base.WriteError(w, r, err)
			return
		}
		for _, f := range be.Failures {
			_, code, field := MapError(f.Err)
			resp.Errors = append(resp.Errors, BatchItemError{Index: origIndex[f.Index], Error: ErrorBody{
				Code: code, Message: f.Err.Error(), Field: field,
			}})
		}
	}
	cat := s.svc.Catalog()
	for i, res := range results {
		if res != nil {
			s.execStats.Record(res.Stats)
			wr := ToSearchResponse(cat, res)
			if reqs[i].Debug {
				wr.Debug = &SearchDebug{Stats: ToExecStatsWire(res.Stats)}
			}
			resp.Results[origIndex[i]] = &wr
		}
	}
	sort.Slice(resp.Errors, func(i, j int) bool { return resp.Errors[i].Index < resp.Errors[j].Index })
	s.base.WriteJSON(w, http.StatusOK, resp)
}

// handleAnnotate is POST /v1/annotate. AnnotateTable takes its own
// worker-pool slot, so no extra acquire here.
func (s *Server) handleAnnotate(w http.ResponseWriter, r *http.Request) {
	var ar AnnotateRequest
	if err := DecodeJSON(r.Body, &ar); err != nil {
		s.base.WriteError(w, r, err)
		return
	}
	if ar.Table == nil {
		s.base.WriteError(w, r, webtable.ErrNilTable)
		return
	}
	if err := ar.Table.Validate(); err != nil {
		s.base.WriteError(w, r, err)
		return
	}
	method := webtable.MethodCollective
	if ar.Method != "" {
		var err error
		method, err = webtable.ParseMethod(ar.Method)
		if err != nil {
			s.base.WriteError(w, r, err)
			return
		}
	}
	ann, err := s.svc.AnnotateTable(r.Context(), ar.Table, webtable.WithMethod(method))
	if err != nil {
		s.base.WriteError(w, r, err)
		return
	}
	s.base.WriteJSON(w, http.StatusOK, ToAnnotation(s.svc.Catalog(), ann))
}

// handleAddTables is POST /v1/tables: annotate the batch (on the
// service's worker pool — AddTables acquires its own slots, so the
// handler must not hold one) and append it to the live corpus as one
// fresh segment. Failures are all-or-nothing: a bad batch (duplicate or
// missing IDs, invalid tables) leaves the corpus unchanged.
func (s *Server) handleAddTables(w http.ResponseWriter, r *http.Request) {
	var ar AddTablesRequest
	if err := DecodeJSON(r.Body, &ar); err != nil {
		s.base.WriteError(w, r, err)
		return
	}
	if len(ar.Tables) == 0 {
		s.base.WriteError(w, r, fmt.Errorf("%w: tables must not be empty", errBadBody))
		return
	}
	var opts []webtable.AnnotateOption
	if ar.Method != "" {
		method, err := webtable.ParseMethod(ar.Method)
		if err != nil {
			s.base.WriteError(w, r, err)
			return
		}
		opts = append(opts, webtable.WithMethod(method))
	}
	stats, err := s.svc.AddTables(r.Context(), ar.Tables, opts...)
	if err != nil {
		s.base.WriteError(w, r, err)
		return
	}
	s.base.WriteJSON(w, http.StatusOK, MutateResponse{
		Added:       len(ar.Tables),
		CorpusStats: toCorpusStats(stats),
	})
}

// handleRemoveTable is DELETE /v1/tables/{id}. An ID that is not live in
// the corpus is 404 unknown_table; removal only writes a tombstone —
// nothing is re-annotated or re-indexed.
func (s *Server) handleRemoveTable(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	stats, err := s.svc.RemoveTables(r.Context(), []string{id})
	if err != nil {
		s.base.WriteError(w, r, err)
		return
	}
	s.base.WriteJSON(w, http.StatusOK, MutateResponse{
		Removed:     1,
		CorpusStats: toCorpusStats(stats),
	})
}

// handleSnapshot is POST /v1/snapshot: persist the live corpus to the
// configured path without restarting the daemon. cmdio.AtomicWriteFile
// publishes it, so a crash or a failed save never clobbers the previous
// snapshot.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.snapPath == "" {
		s.base.WriteError(w, r, errSnapshotUnconfigured)
		return
	}
	select {
	case s.snapMu <- struct{}{}:
		defer func() { <-s.snapMu }()
	case <-r.Context().Done():
		s.base.WriteError(w, r, r.Context().Err())
		return
	}
	// WriteSnapshot reports the counters of the view it persisted, so
	// the response always describes the bytes on disk even if a
	// mutation lands mid-save.
	var stats webtable.CorpusStats
	err := cmdio.AtomicWriteFile(s.snapPath, func(f io.Writer) (err error) {
		stats, err = s.svc.WriteSnapshot(r.Context(), f)
		return err
	})
	var fi os.FileInfo
	if err == nil {
		fi, err = os.Stat(s.snapPath)
	}
	if err != nil {
		s.base.WriteError(w, r, err)
		return
	}
	s.base.Log.Info("snapshot written", "path", s.snapPath, "bytes", fi.Size(), "generation", stats.Generation)
	s.base.WriteJSON(w, http.StatusOK, SnapshotResponse{
		Path:        s.snapPath,
		Bytes:       fi.Size(),
		CorpusStats: toCorpusStats(stats),
	})
}
