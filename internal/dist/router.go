package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	webtable "repro"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/server"
)

// errShardInconsistent reports shards that disagree about cluster shape
// or corpus generation — a deployment bug (mixed snapshots, wrong
// -shard flags), not a transient fault.
var errShardInconsistent = errors.New("dist: shard responses inconsistent")

// shardStat is one shard's per-fan-out accounting, backed by the shared
// metrics registry (router_shard_*_total counters plus the
// router_shard_rtt_seconds histogram) so Prometheus and GET /v1/stats
// report from one source. Only the free-text last error needs its own
// mutex — everything countable lives in the registry.
type shardStat struct {
	requests *obs.Counter
	retries  *obs.Counter
	failures *obs.Counter
	rtt      *obs.Histogram

	mu        sync.Mutex
	lastError string
}

func (s *shardStat) record(d time.Duration, retries int, err error) {
	s.requests.Inc()
	s.retries.Add(uint64(retries))
	if err != nil {
		s.failures.Inc()
		s.mu.Lock()
		s.lastError = err.Error()
		s.mu.Unlock()
	}
	s.rtt.Observe(d.Seconds())
}

// snapshot returns the wire form of the counters. The p50/p99 estimates
// come from the RTT histogram (interpolated within its fixed buckets);
// with the whole request history in the histogram they no longer decay
// with a fixed-size window, and they agree with what /metrics exports.
func (s *shardStat) snapshot(shard int, url string) RouterShardStats {
	s.mu.Lock()
	lastError := s.lastError
	s.mu.Unlock()
	out := RouterShardStats{
		Shard:     shard,
		URL:       url,
		Requests:  s.requests.Value(),
		Retries:   s.retries.Value(),
		Failures:  s.failures.Value(),
		LastError: lastError,
	}
	if s.rtt.Count() > 0 {
		out.P50Millis = s.rtt.Quantile(0.5) * 1000
		out.P99Millis = s.rtt.Quantile(0.99) * 1000
	}
	return out
}

// RouterShardStats is one shard's slice of the router's GET /v1/stats.
type RouterShardStats struct {
	Shard     int     `json:"shard"`
	URL       string  `json:"url"`
	Requests  uint64  `json:"requests"`
	Retries   uint64  `json:"retries"`
	Failures  uint64  `json:"failures"`
	P50Millis float64 `json:"p50_ms"`
	P99Millis float64 `json:"p99_ms"`
	LastError string  `json:"last_error,omitempty"`
}

// RouterStatsResponse is the wire form of the router's GET /v1/stats.
type RouterStatsResponse struct {
	Shards   []RouterShardStats `json:"shards"`
	InFlight int64              `json:"in_flight"`
}

// Router is the stateless scatter-gather front of a shard cluster: it
// validates requests locally (rejecting malformed input without
// touching the cluster), forwards the raw request bytes to every
// shard, and merges the partial evidence in corpus order so the page
// it returns is byte-identical to a single node serving the whole
// snapshot. It holds no index — only the shard addresses.
//
// Failure policy: any shard definitively failing (after the client's
// retries) fails the request — a 502 naming the shard for
// availability faults, the shard's own 4xx propagated verbatim for
// request faults, and 502 shard_inconsistent when shards disagree on
// generation or cluster shape. The router never returns a silently
// truncated ranking.
type Router struct {
	base      *server.HTTPBase
	client    *Client
	stats     []*shardStat
	execStats *server.ExecStatsRecorder
	handler   http.Handler
}

// NewRouter builds a router over a shard client (which fixes the shard
// addresses and retry policy).
func NewRouter(client *Client, opts ...Option) *Router {
	rt := &Router{
		base:   server.NewHTTPBase(),
		client: client,
		stats:  make([]*shardStat, client.Shards()),
	}
	reqs := rt.base.Reg.Counter("router_shard_requests_total",
		"Fan-out requests sent, by shard.", "shard")
	retries := rt.base.Reg.Counter("router_shard_retries_total",
		"Fan-out request retries, by shard.", "shard")
	fails := rt.base.Reg.Counter("router_shard_failures_total",
		"Fan-out requests that definitively failed (after retries), by shard.", "shard")
	rtt := rt.base.Reg.Histogram("router_shard_rtt_seconds",
		"Fan-out round-trip time including retries, by shard.",
		obs.LatencyBuckets, "shard")
	rt.base.Reg.GaugeFunc("router_shards",
		"Shards this router fans out to.",
		func() float64 { return float64(client.Shards()) })
	for i := range rt.stats {
		label := strconv.Itoa(i)
		rt.stats[i] = &shardStat{
			requests: reqs.With(label),
			retries:  retries.With(label),
			failures: fails.With(label),
			rtt:      rtt.With(label),
		}
	}
	client.init(rt.base.Reg)
	rt.execStats = server.NewExecStatsRecorder(rt.base.Reg)
	rt.base.MapErr = routerMapError
	for _, opt := range opts {
		opt(rt.base)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/search", rt.handleSearch)
	mux.HandleFunc("GET /v1/healthz", rt.handleHealthz)
	mux.HandleFunc("GET /v1/stats", rt.handleStats)
	mux.Handle("GET /metrics", rt.base.MetricsHandler())
	mux.Handle("GET /v1/traces", rt.base.TracesHandler())
	mux.Handle("GET /v1/traces/{id}", rt.base.TraceHandler())
	rt.handler = rt.base.Middleware(mux)
	return rt
}

// routerMapError extends the standard error table with the router's
// shard-failure domain. Every shard error that reaches it is a failed
// shard: handleSearch relays a shard's rejection of the request itself
// before it gets here, and a health check has no request to reject.
func routerMapError(err error) (int, string, string) {
	if errors.Is(err, errShardInconsistent) {
		return http.StatusBadGateway, "shard_inconsistent", ""
	}
	if _, ok := asShardError(err); ok {
		return http.StatusBadGateway, "shard_unavailable", ""
	}
	return server.MapError(err)
}

// Handler exposes the router's HTTP surface (tests mount it directly).
func (rt *Router) Handler() http.Handler { return rt.handler }

// InFlight reports requests currently being handled.
func (rt *Router) InFlight() int64 { return rt.base.InFlight() }

// Serve runs until ctx is canceled, then drains gracefully and closes the
// streams the client has parked (every leg has returned its stream by
// then), which is what ends them on the shards.
func (rt *Router) Serve(ctx context.Context, ln net.Listener) error {
	defer rt.client.CloseIdle()
	return rt.base.Serve(ctx, ln, rt.handler)
}

// handleSearch is POST /v1/search: local validation, scatter, gather,
// merge. The raw body bytes are forwarded to the shards unmodified so
// every process parses exactly the same request.
func (rt *Router) handleSearch(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		rt.base.WriteError(w, r, err)
		return
	}
	var wireReq server.SearchRequest
	if err := server.DecodeJSON(bytes.NewReader(body), &wireReq); err != nil {
		rt.base.WriteError(w, r, err)
		return
	}
	// Pre-flight checks that need no corpus: mode, page size and cursor
	// shape. These produce the same structured 400s a single node would,
	// without spending a cluster fan-out on a hopeless request.
	mode, err := server.ParseMode(wireReq.Mode)
	if err != nil {
		rt.base.WriteError(w, r, err)
		return
	}
	if err := (webtable.SearchRequest{Mode: mode, PageSize: wireReq.PageSize}).Validate(); err != nil {
		rt.base.WriteError(w, r, &webtable.QueryError{Field: "page_size", Err: err})
		return
	}
	if err := webtable.ValidateSearchCursor(wireReq.Cursor); err != nil {
		rt.base.WriteError(w, r, err)
		return
	}

	fanSp := obs.Begin(ctx, "router.fanout")
	partials, err := rt.scatter(obs.ContextWithSpan(ctx, fanSp), body)
	fanSp.End()
	if err != nil {
		if se, ok := asShardError(err); ok && se.rejected() {
			// A shard rejected the request itself (bad names, bad query
			// shape). Relay its structured error verbatim — status, code,
			// field and message — so a client can't tell the router from a
			// single node; only the request ID is the router's own.
			rt.base.WriteJSON(w, se.Status, server.ErrorResponse{Error: server.ErrorBody{
				Code:      se.Code,
				Message:   se.Message,
				Field:     se.Field,
				RequestID: server.RequestID(ctx),
			}})
			return
		}
		rt.base.WriteError(w, r, err)
		return
	}
	groups := make([][]search.PartialGroup, len(partials))
	shardStats := make([]search.ExecStats, len(partials))
	for i, p := range partials {
		groups[i] = p.Groups
		shardStats[i] = p.Stats
	}
	msp := obs.Begin(ctx, "router.merge")
	res, err := webtable.MergeSearchPartials(groups, shardStats, wireReq.PageSize, wireReq.Cursor, wireReq.Explain)
	msp.End()
	if err != nil {
		rt.base.WriteError(w, r, err)
		return
	}
	rt.execStats.Record(res.Stats)
	out := server.ToSearchResponse(nil, res)
	if wireReq.Debug {
		dbg := &server.SearchDebug{
			Stats:  server.ToExecStatsWire(res.Stats),
			Shards: make([]server.ExecStatsWire, len(shardStats)),
		}
		for i := range shardStats {
			dbg.Shards[i] = server.ToExecStatsWire(&shardStats[i])
		}
		out.Debug = dbg
	}
	rt.base.WriteJSON(w, http.StatusOK, out)
}

// scatter fans the request body out to every shard concurrently and
// gathers either a complete, consistent set of partials or one error
// chosen deterministically: the parent context's own failure first,
// then the lowest-index shard's client error (4xx), then the
// lowest-index availability failure. A leg is written and read on the
// goroutine that runs it, so the last shard's runs on the handler's own:
// n − 1 spawns, and none for a cluster of one.
func (rt *Router) scatter(ctx context.Context, body []byte) ([]*Partial, error) {
	n := rt.client.Shards()
	partials := make([]*Partial, n)
	errs := make([]error, n)
	leg := func(shard int) {
		// One child span per shard under the fan-out span; its context
		// rides to the shard in the request frame, so the shard's own
		// trace records this span as its parent.
		sp := obs.Begin(ctx, "router.shard")
		sp.SetAttr("shard", strconv.Itoa(shard))
		sp.SetAttr("url", rt.client.URLs[shard])
		start := time.Now()
		p, retries, err := rt.client.Partial(obs.ContextWithSpan(ctx, sp), shard, body)
		sp.End()
		rt.stats[shard].record(time.Since(start), retries, err)
		partials[shard], errs[shard] = p, err
	}
	var wg sync.WaitGroup
	for i := 0; i < n-1; i++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			leg(shard)
		}(i)
	}
	if n > 0 {
		leg(n - 1)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		// The request as a whole timed out or the client left; report
		// that, not the per-shard collateral damage.
		return nil, err
	}
	// Client errors first: if any shard says the request is bad, that
	// verdict is deterministic (every shard validates identically), so
	// propagate the lowest shard's answer.
	for _, err := range errs {
		if se, ok := asShardError(err); ok && se.rejected() {
			return nil, err
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Consistency: every shard must claim its own slot in a cluster of
	// this size, all at one corpus generation.
	for i, p := range partials {
		if p.Shard != i || p.Shards != n {
			return nil, fmt.Errorf("%w: shard %d (%s) answered as shard %d of %d (want %d of %d)",
				errShardInconsistent, i, rt.client.URLs[i], p.Shard, p.Shards, i, n)
		}
		if p.Generation != partials[0].Generation {
			return nil, fmt.Errorf("%w: shard %d (%s) at generation %d, shard 0 at %d",
				errShardInconsistent, i, rt.client.URLs[i], p.Generation, partials[0].Generation)
		}
	}
	return partials, nil
}

// handleHealthz fans a health probe out to every shard: the router is
// healthy only if the whole cluster is (a green router in front of a
// dead shard would hide exactly the failure this endpoint exists to
// surface).
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	n := rt.client.Shards()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			errs[shard] = rt.client.Health(ctx, shard)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			rt.base.WriteError(w, r, err)
			return
		}
	}
	rt.base.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "shards": n})
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := RouterStatsResponse{
		Shards:   make([]RouterShardStats, len(rt.stats)),
		InFlight: rt.base.InFlight(),
	}
	for i, st := range rt.stats {
		resp.Shards[i] = st.snapshot(i, rt.client.URLs[i])
	}
	rt.base.WriteJSON(w, http.StatusOK, resp)
}
