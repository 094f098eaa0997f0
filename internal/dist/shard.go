package dist

import (
	"context"
	"log/slog"
	"net"
	"net/http"
	"time"

	webtable "repro"
	"repro/internal/obs"
	"repro/internal/server"
)

// Option configures the HTTP plumbing of a ShardServer or Router.
type Option func(*server.HTTPBase)

// WithLogger sets the structured logger.
func WithLogger(l *slog.Logger) Option { return func(b *server.HTTPBase) { b.Log = l } }

// WithTimeout bounds each request's total handling time.
func WithTimeout(d time.Duration) Option { return func(b *server.HTTPBase) { b.Timeout = d } }

// WithDrainTimeout bounds the graceful-shutdown drain.
func WithDrainTimeout(d time.Duration) Option { return func(b *server.HTTPBase) { b.Drain = d } }

// WithSlowQueryLog emits any request whose handling takes at least d as
// a full span tree to the structured log (default: disabled).
func WithSlowQueryLog(d time.Duration) Option { return func(b *server.HTTPBase) { b.Tracer.Slow = d } }

// ShardServer serves one shard's slice of a snapshot: it owns the
// segments its assignment covers and answers partial-evidence queries
// over them. It never merges, ranks or paginates — that is the
// router's job — so its responses are a pure function of its slice and
// the request, which is what makes the scatter-gather merge
// byte-identical to a single node.
type ShardServer struct {
	base    *server.HTTPBase
	svc     *webtable.Service
	asn     webtable.ShardAssignment
	shard   int
	shards  int
	gen     uint64
	handler http.Handler

	partialTotal *obs.CounterVec
	execStats    *server.ExecStatsRecorder
}

// NewShardServer wraps a shard service produced by
// webtable.LoadServiceShard. shard and shards must be the values the
// service was loaded with; the generation is pinned now and stamped
// into every response envelope so the router can detect a cluster
// whose processes loaded different snapshots.
func NewShardServer(svc *webtable.Service, asn webtable.ShardAssignment, shard, shards int, opts ...Option) *ShardServer {
	s := &ShardServer{
		base:   server.NewHTTPBase(),
		svc:    svc,
		asn:    asn,
		shard:  shard,
		shards: shards,
	}
	if cs, ok := svc.CorpusStats(); ok {
		s.gen = cs.Generation
	}
	for _, opt := range opts {
		opt(s.base)
	}
	s.registerMetrics()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/partial", s.handlePartial)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.Handle("GET /metrics", s.base.CorpusMetricsHandler(svc))
	mux.Handle("GET /v1/traces", s.base.TracesHandler())
	mux.Handle("GET /v1/traces/{id}", s.base.TraceHandler())
	s.handler = s.base.Middleware(mux)
	return s
}

// registerMetrics installs the shard's slice gauges: which part of the
// cluster this process owns and how much corpus it carries.
func (s *ShardServer) registerMetrics() {
	reg := s.base.Reg
	reg.GaugeFunc("shard_index", "This process's shard number.",
		func() float64 { return float64(s.shard) })
	reg.GaugeFunc("shard_count", "Total shards in the cluster this process expects.",
		func() float64 { return float64(s.shards) })
	reg.GaugeFunc("shard_segments", "Index segments in this shard's slice.",
		func() float64 { return float64(s.asn.Segments()) })
	reg.GaugeFunc("shard_tables", "Tables in this shard's slice.",
		func() float64 { return float64(s.asn.Tables) })
	reg.GaugeFunc("corpus_generation", "Snapshot generation this shard serves.",
		func() float64 { return float64(s.gen) })
	s.partialTotal = reg.Counter("shard_partial_requests_total",
		"Partial-evidence requests executed, by query mode.", "mode")
	s.execStats = server.NewExecStatsRecorder(reg)
}

// Handler exposes the shard's HTTP surface (tests mount it directly).
func (s *ShardServer) Handler() http.Handler { return s.handler }

// InFlight reports requests currently being handled.
func (s *ShardServer) InFlight() int64 { return s.base.InFlight() }

// Serve runs until ctx is canceled, then drains gracefully.
func (s *ShardServer) Serve(ctx context.Context, ln net.Listener) error {
	return s.base.Serve(ctx, ln, s.handler)
}

// handlePartial evaluates one search request over the shard's slice and
// streams back the binary partial-evidence payload. Validation and name
// resolution run here exactly as on a single node (every shard has the
// full catalog), so a bad request fails with the same structured 4xx
// the single-node server would emit — which the router propagates
// verbatim.
func (s *ShardServer) handlePartial(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	var wireReq server.SearchRequest
	if err := server.DecodeBody(r, &wireReq); err != nil {
		s.base.WriteError(w, r, err)
		return
	}
	req, err := wireReq.Resolve(s.svc)
	if err != nil {
		s.base.WriteError(w, r, err)
		return
	}
	s.partialTotal.With(req.Mode.String()).Inc()
	if err := s.svc.Acquire(ctx); err != nil {
		s.base.WriteError(w, r, err)
		return
	}
	defer s.svc.Release()
	groups, stats, err := s.svc.SearchPartial(ctx, req, s.asn.TableOffset)
	if err != nil {
		s.base.WriteError(w, r, err)
		return
	}
	p := &Partial{
		Generation: s.gen,
		Shard:      s.shard,
		Shards:     s.shards,
		Groups:     groups,
	}
	if stats != nil {
		p.Stats = *stats
		s.execStats.Record(stats)
	}
	payload := EncodePartial(p)
	w.Header().Set("Content-Type", "application/x-webtable-partial")
	w.Write(payload)
}

func (s *ShardServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.base.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// ShardStatsResponse is the wire form of a shard's GET /v1/stats: which
// slice of the cluster this process owns and how much corpus it carries.
type ShardStatsResponse struct {
	Shard       int    `json:"shard"`
	Shards      int    `json:"shards"`
	Segments    int    `json:"segments"`
	Tables      int    `json:"tables"`
	TableOffset int    `json:"table_offset"`
	Generation  uint64 `json:"generation"`
	InFlight    int64  `json:"in_flight"`
}

func (s *ShardServer) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := ShardStatsResponse{
		Shard:       s.shard,
		Shards:      s.shards,
		Segments:    s.asn.Segments(),
		Tables:      s.asn.Tables,
		TableOffset: s.asn.TableOffset,
		Generation:  s.gen,
		InFlight:    s.base.InFlight(),
	}
	s.base.WriteJSON(w, http.StatusOK, resp)
}
