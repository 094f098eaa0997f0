package dist

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
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
	streams *streamSet

	partialTotal *obs.CounterVec
	frames       *obs.Counter
	execStats    *server.ExecStatsRecorder
}

// NewShardServer wraps a shard service produced by
// webtable.LoadServiceShard. shard and shards must be the values the
// service was loaded with; the generation is pinned now and stamped
// into every response envelope so the router can detect a cluster
// whose processes loaded different snapshots.
func NewShardServer(svc *webtable.Service, asn webtable.ShardAssignment, shard, shards int, opts ...Option) *ShardServer {
	s := &ShardServer{
		base:    server.NewHTTPBase(),
		svc:     svc,
		asn:     asn,
		shard:   shard,
		shards:  shards,
		streams: newStreamSet(),
	}
	if cs, ok := svc.CorpusStats(); ok {
		s.gen = cs.Generation
	}
	for _, opt := range opts {
		opt(s.base)
	}
	s.registerMetrics()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/stream", s.handleStream)
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
	reg.GaugeFunc("shard_streams_open", "Router streams currently open on this shard, idle or executing a frame.",
		func() float64 { return float64(s.streams.open()) })
	s.frames = reg.Counter("shard_stream_frames_total",
		"Request frames taken off router streams (each is also one POST /v1/partial in http_requests_total).").With()
	s.partialTotal = reg.Counter("shard_partial_requests_total",
		"Partial-evidence requests executed, by query mode.", "mode")
	s.execStats = server.NewExecStatsRecorder(reg)
}

// Handler exposes the shard's HTTP surface (tests mount it directly).
func (s *ShardServer) Handler() http.Handler { return s.handler }

// InFlight reports requests currently being handled: HTTP requests and
// executing frames, not idle streams.
func (s *ShardServer) InFlight() int64 { return s.base.InFlight() }

// Serve runs until ctx is canceled, then drains gracefully: first the
// HTTP surface, then the router streams, which http.Server.Shutdown
// neither waits for nor closes — idle ones are closed, a stream executing
// a frame answers it and is closed, and whatever is still open after the
// drain timeout is cut. When Serve returns no goroutine of a stream is
// left, and with them nothing that holds the service.
func (s *ShardServer) Serve(ctx context.Context, ln net.Listener) error {
	err := s.base.Serve(ctx, ln, s.handler)
	s.streams.drain(s.base.Drain)
	return err
}

// partial evaluates one search request — the client's JSON body — over
// the shard's slice and appends the binary partial-evidence payload to
// dst. It is the one function behind both framings, POST /v1/partial and
// a stream's request frame. Validation and name resolution run here
// exactly as on a single node (every shard has the full catalog), so a
// bad request fails with the same structured 4xx the single-node server
// would emit — which the router propagates verbatim.
func (s *ShardServer) partial(ctx context.Context, dst, body []byte) ([]byte, error) {
	var wireReq server.SearchRequest
	if err := server.DecodeJSON(bytes.NewReader(body), &wireReq); err != nil {
		return dst, err
	}
	req, err := wireReq.Resolve(s.svc)
	if err != nil {
		return dst, err
	}
	s.partialTotal.With(req.Mode.String()).Inc()
	if err := s.svc.Acquire(ctx); err != nil {
		return dst, err
	}
	defer s.svc.Release()
	groups, stats, err := s.svc.SearchPartial(ctx, req, s.asn.TableOffset)
	if err != nil {
		return dst, err
	}
	p := Partial{
		Generation: s.gen,
		Shard:      s.shard,
		Shards:     s.shards,
		Groups:     groups,
	}
	if stats != nil {
		p.Stats = *stats
		s.execStats.Record(stats)
	}
	return AppendPartial(dst, &p), nil
}

// handlePartial is the HTTP framing of partial, for curl, operators and
// anything that is not a router: the body is the request, the response
// body the payload.
func (s *ShardServer) handlePartial(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		s.base.WriteError(w, r, err)
		return
	}
	payload, err := s.partial(r.Context(), nil, body)
	if err != nil {
		s.base.WriteError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-webtable-partial")
	w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
	w.Write(payload)
}

// partialRoute is the route a frame is counted, traced and logged under:
// a frame is POST /v1/partial in another framing, and a shard's metrics,
// traces and logs of a routed query do not depend on which carried it.
const partialRoute = "POST /v1/partial"

// handleFrame is the stream framing of partial: the frame passes through
// the same per-request envelope as an HTTP request and is answered with a
// response frame — the status and exactly the bytes the HTTP route sends
// — appended to dst.
func (s *ShardServer) handleFrame(ctx context.Context, fr requestFrame, remote string, dst []byte) []byte {
	s.frames.Inc()
	call := server.Call{
		ID: string(fr.ID), SpanContext: string(fr.Span), Budget: fr.Budget,
		Method: http.MethodPost, Path: "/v1/partial", Remote: remote,
	}
	s.base.Handle(ctx, call, func(ctx context.Context, _ string) (string, int) {
		status, start := http.StatusOK, len(dst)
		err := ctx.Err()
		if err == nil && fr.Oversize {
			err = &http.MaxBytesError{Limit: s.base.MaxBody}
		}
		if err == nil {
			dst, err = s.partial(ctx, beginResponseFrame(dst, status), fr.Body)
		}
		if err != nil {
			var body []byte
			status, body = s.base.ErrorBody(ctx, err)
			dst = append(beginResponseFrame(dst[:start], status), body...)
		}
		dst = endResponseFrame(dst, start)
		return partialRoute, status
	})
	return dst
}

// handleStream is GET /v1/stream: it answers the upgrade with 101, takes
// the connection from net/http and hands it to a stream that serves
// frames until the router hangs up or the shard drains. The upgrade is
// one request — logged, counted, its timeout its own; the frames after
// it each pass through the envelope again.
func (s *ShardServer) handleStream(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Upgrade", streamProtocol)
	if !strings.EqualFold(r.Header.Get("Upgrade"), streamProtocol) {
		s.base.WriteJSON(w, http.StatusUpgradeRequired, server.ErrorResponse{Error: server.ErrorBody{
			Code:      "upgrade_required",
			Message:   "GET /v1/stream serves only Upgrade: " + streamProtocol,
			RequestID: server.RequestID(r.Context()),
		}})
		return
	}
	conn, br, err := acceptStream(w)
	if err != nil {
		s.base.Log.Error("stream upgrade", "err", err)
		return
	}
	remote := r.RemoteAddr
	// The set's context goes with the stream: drain cancels it, which is
	// what bounds a goroutine that outlives this handler by design.
	go s.streams.serve(s.streams.ctx, conn, br, s.base.MaxBody,
		func(ctx context.Context, fr requestFrame, dst []byte) []byte {
			return s.handleFrame(ctx, fr, remote, dst)
		})
}

// acceptStream answers an upgrade request with 101 and takes the
// connection from net/http: the 101 is written (and seen by the
// middleware's status recorder) before the hijack flushes it.
func acceptStream(w http.ResponseWriter) (net.Conn, *bufio.Reader, error) {
	w.Header().Set("Upgrade", streamProtocol)
	w.Header().Set("Connection", "Upgrade")
	w.WriteHeader(http.StatusSwitchingProtocols)
	conn, rw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		return nil, nil, err
	}
	return conn, rw.Reader, nil
}

// frameFunc answers one request frame with a response frame appended to
// dst.
type frameFunc func(ctx context.Context, fr requestFrame, dst []byte) []byte

// streamSet is the upgraded connections a shard is serving, which
// net/http has handed over and no longer knows: who is open, who is
// executing a frame, and the draining that http.Server.Shutdown does not
// do for them.
type streamSet struct {
	// ctx is the parent of every frame's context; drain cancels it when
	// it runs out of patience.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup // one per stream, released when both its goroutines are gone

	mu       sync.Mutex
	draining bool
	busy     map[net.Conn]bool // open streams → executing a frame
}

func newStreamSet() *streamSet {
	ss := &streamSet{busy: make(map[net.Conn]bool)}
	ss.ctx, ss.cancel = context.WithCancel(context.Background())
	return ss
}

func (ss *streamSet) open() int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return len(ss.busy)
}

// add registers a stream; false when the set is draining.
func (ss *streamSet) add(conn net.Conn) bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.draining {
		return false
	}
	ss.busy[conn] = false
	ss.wg.Add(1)
	return true
}

// begin marks conn as executing a frame, at the frame's first byte. It
// is false when the stream may not take one: it is still executing the
// last (the peer did not wait for its answer) or drain has closed it.
func (ss *streamSet) begin(conn net.Conn) bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if busy, open := ss.busy[conn]; busy || !open {
		return false
	}
	ss.busy[conn] = true
	return true
}

// end marks conn idle again, before its answer is written (the peer's
// next frame may follow the answer at once). It reports whether the set
// is draining: the stream then closes once the answer is out.
func (ss *streamSet) end(conn net.Conn) (draining bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if _, open := ss.busy[conn]; open {
		ss.busy[conn] = false
	}
	return ss.draining
}

func (ss *streamSet) remove(conn net.Conn) {
	ss.mu.Lock()
	delete(ss.busy, conn)
	ss.mu.Unlock()
	ss.wg.Done()
}

// drain closes the idle streams, lets the executing ones answer their
// frame (each closes itself after), and waits for every stream's
// goroutines; after timeout it cancels the frames' context and cuts what
// is left. The set takes no stream afterwards.
func (ss *streamSet) drain(timeout time.Duration) {
	ss.mu.Lock()
	ss.draining = true
	for conn, busy := range ss.busy {
		if !busy {
			delete(ss.busy, conn) // begin finds it gone
			conn.Close()
		}
	}
	ss.mu.Unlock()
	gone := make(chan struct{})
	go func() { ss.wg.Wait(); close(gone) }()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-gone:
	case <-t.C:
		ss.cancel()
		ss.mu.Lock()
		for conn := range ss.busy {
			conn.Close()
		}
		ss.mu.Unlock()
		<-gone // a cancelled scan stops at its next poll
	}
	ss.cancel()
}

// serve runs one stream until the peer hangs up, breaks the protocol or
// the set drains. Two goroutines: this one stays on the socket — it reads
// a frame, hands it to the worker and goes back to reading, so that a
// hang-up (or a second frame before the first is answered, which ends the
// stream) is seen while the frame executes and cancels it; the worker
// executes frames one at a time and writes each answer. The read buffer
// is this goroutine's and the frame handed over points into it: it is not
// written again until the worker has marked the stream idle, which it
// does only after handle returned. The write buffer is the worker's.
func (ss *streamSet) serve(ctx context.Context, conn net.Conn, br *bufio.Reader, maxBody int64, handle frameFunc) {
	if !ss.add(conn) {
		conn.Close()
		return
	}
	ctx, cancel := context.WithCancel(ctx)
	jobs := make(chan requestFrame)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wbuf []byte
		for fr := range jobs {
			wbuf = handle(ctx, fr, wbuf[:0])
			draining := ss.end(conn)
			if _, err := conn.Write(wbuf); err != nil || draining {
				conn.Close() // the reader sees it and winds the stream up
			}
		}
	}()
	var rbuf []byte
	for {
		// A frame's first byte is waited for without consuming it: the
		// stream counts as executing from that byte on, and the read
		// buffer is not touched before begin has said the worker is done
		// with it.
		if _, err := br.Peek(1); err != nil || !ss.begin(conn) {
			cancel() // whatever is executing has lost its peer
			break
		}
		var fr requestFrame
		var err error
		fr, rbuf, err = readRequestFrame(br, rbuf, maxBody)
		if err != nil && !fr.Oversize {
			cancel()
			break
		}
		jobs <- fr
		if fr.Oversize {
			break // its body is still in the pipe: the 413 is this stream's last answer
		}
	}
	close(jobs)
	<-done
	cancel()
	conn.Close()
	ss.remove(conn)
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
