package dist

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// Client defaults.
const (
	// defaultAttemptTimeout bounds one attempt against one shard.
	defaultAttemptTimeout = 10 * time.Second
	// defaultRetries is how many times a failed attempt is retried
	// (transport errors and 5xx only — never client errors).
	defaultRetries = 2
	// defaultBackoff is the delay before the first retry; it doubles on
	// each subsequent one.
	defaultBackoff = 50 * time.Millisecond
	// defaultMaxResponse caps how many partial-payload bytes the client
	// will read from one shard.
	defaultMaxResponse = 1 << 30
)

// ShardError reports a definitive failure talking to one shard, after
// any retries. It names the shard so the router's 502 can point an
// operator at the failing process instead of a vague cluster error.
type ShardError struct {
	// Shard is the failing shard's index; URL its base address.
	Shard int
	URL   string
	// Status is the HTTP status of the last failed attempt (0 for
	// transport-level failures). Code, Field and Message carry the
	// shard's structured error body when it sent one.
	Status  int
	Code    string
	Field   string
	Message string
	// Attempts is how many attempts were made in total.
	Attempts int
	// RequestID is the router-minted request ID the failing attempts
	// carried (the same ID the shard logged), so one failed query is
	// greppable across router and shard logs.
	RequestID string
	// Err is the underlying transport or decode error, if any.
	Err error
}

func (e *ShardError) Error() string {
	var msg string
	switch {
	case e.Err != nil:
		msg = fmt.Sprintf("shard %d (%s): %v (after %d attempts)", e.Shard, e.URL, e.Err, e.Attempts)
	case e.Code != "":
		msg = fmt.Sprintf("shard %d (%s): HTTP %d %s: %s", e.Shard, e.URL, e.Status, e.Code, e.Message)
	default:
		msg = fmt.Sprintf("shard %d (%s): HTTP %d (after %d attempts)", e.Shard, e.URL, e.Status, e.Attempts)
	}
	if e.RequestID != "" {
		msg += fmt.Sprintf(" [request %s]", e.RequestID)
	}
	return msg
}

func (e *ShardError) Unwrap() error { return e.Err }

// rejected reports whether the shard answered the request itself with a
// client error — a verdict every shard reaches identically, which the
// router relays verbatim — as opposed to failing to answer it (Err set:
// transport, framing, an upgrade it refused).
func (e *ShardError) rejected() bool {
	return e.Err == nil && e.Status >= 400 && e.Status < 500
}

// Client issues partial-evidence and health requests to a fixed set of
// shard servers, with per-attempt timeouts and bounded exponential
// retry. The zero value is not usable; URLs is its one setting.
// Partial-evidence requests travel as frames over persistent streams the
// client dials itself (see the package comment's Transport section):
// plain TCP connections to the host and port of the shard's URL,
// upgraded by GET /v1/stream. A Client must not be copied once used.
type Client struct {
	// URLs are the shard base addresses ("http://host:port"), in shard
	// order. Index in this slice IS the shard number. The slice's length
	// is fixed at first use; an address may be repointed.
	URLs []string

	// timeout, maxRetries and firstBackoff tune the retry loop; zero
	// values take the default* constants, and maxRetries < 0 means no
	// retries. One attempt — dial and upgrade when no stream is parked,
	// request frame out, response frame in — runs under timeout as the
	// connection's deadline. Only tests set them.
	timeout      time.Duration
	maxRetries   int
	firstBackoff time.Duration
	// responseCap caps the partial payload a response frame may declare;
	// a larger one is refused before it is read.
	responseCap int64
	// sleepFn waits between attempts; tests inject a no-op that records
	// the requested delays. The default honors ctx cancellation.
	sleepFn func(ctx context.Context, d time.Duration) error

	once    sync.Once
	streams []*shardStreams // per shard, sized by init
}

func (c *Client) attemptTimeout() time.Duration {
	if c.timeout > 0 {
		return c.timeout
	}
	return defaultAttemptTimeout
}

func (c *Client) retries() int {
	if c.maxRetries != 0 {
		return max(c.maxRetries, 0)
	}
	return defaultRetries
}

func (c *Client) backoff() time.Duration {
	if c.firstBackoff > 0 {
		return c.firstBackoff
	}
	return defaultBackoff
}

func (c *Client) maxResponse() int64 {
	if c.responseCap > 0 {
		return c.responseCap
	}
	return defaultMaxResponse
}

func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if c.sleepFn != nil {
		return c.sleepFn(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Shards reports the cluster size.
func (c *Client) Shards() int { return len(c.URLs) }

// Partial sends the raw request body to one shard as a frame over a
// stream and decodes the binary payload that answers it, retrying
// transient failures with doubling backoff. It reports how many retries
// were spent (for the router's stats) alongside the result. A definitive
// failure is always a *ShardError; if the shard returned a structured
// JSON error its code, field and message are preserved so the router can
// propagate client errors exactly.
func (c *Client) Partial(ctx context.Context, shard int, body []byte) (p *Partial, retries int, err error) {
	c.init(nil)
	var last *ShardError
	for attempt := 0; attempt <= c.retries(); attempt++ {
		if attempt > 0 {
			if err := c.sleep(ctx, c.backoff()<<(attempt-1)); err != nil {
				break // parent canceled while backing off; report the last failure
			}
			retries++
		}
		p, serr, retry := c.attemptPartial(ctx, shard, body)
		if serr == nil {
			return p, retries, nil
		}
		last = serr
		last.Attempts = attempt + 1
		if !retry || ctx.Err() != nil {
			break
		}
	}
	last.RequestID = server.RequestID(ctx)
	return nil, retries, last
}

// attemptPartial runs one bounded attempt and reports whether its failure
// is worth retrying: transport and framing errors and shard-side 5xx are
// (the shard may be restarting); client errors are not (the request
// itself is bad, and will be just as bad next time), nor is a shard that
// does not speak the stream protocol. A parked stream may have died with
// the shard process it was dialled to: when the first exchange over one
// fails, it is repeated once, at once, over a fresh dial before the
// attempt counts as failed — requests are idempotent reads, and a shard
// restart must not cost every parked stream a backoff.
func (c *Client) attemptPartial(ctx context.Context, shard int, body []byte) (*Partial, *ShardError, bool) {
	base, pool := c.URLs[shard], c.streams[shard]
	fail := func(status int, err error) *ShardError {
		return &ShardError{Shard: shard, URL: base, Status: status, Err: err}
	}
	deadline := time.Now().Add(c.attemptTimeout())
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	for fresh := false; ; fresh = true {
		st, err := pool.take(ctx, base, fresh)
		if err != nil {
			return nil, fail(0, err), true
		}
		reused := st.br != nil
		status, err := st.exchange(ctx, deadline, body, c.maxResponse(), pool)
		var refused *upgradeError
		switch {
		case err == nil:
		case errors.As(err, &refused):
			pool.drop(st)
			return nil, fail(refused.status, err), false
		case reused && !errors.Is(err, os.ErrDeadlineExceeded) && ctx.Err() == nil:
			pool.drop(st)
			continue
		default:
			pool.drop(st)
			return nil, fail(status, err), true
		}
		if status != http.StatusOK {
			se := fail(status, nil)
			var eb server.ErrorResponse
			if jerr := json.Unmarshal(st.buf, &eb); jerr == nil && eb.Error.Code != "" {
				se.Code = eb.Error.Code
				se.Field = eb.Error.Field
				se.Message = eb.Error.Message
			} else {
				se.Message = http.StatusText(status)
			}
			pool.park(st)
			return nil, se, status >= 500
		}
		// DecodePartial copies what it keeps: nothing of the partial
		// points into the stream's buffer once it is parked.
		p, err := DecodePartial(st.buf)
		pool.park(st)
		if err != nil {
			// A garbled payload is retryable only as a transport-ish fault;
			// report it with the decode error attached.
			return nil, fail(status, err), true
		}
		return p, nil, false
	}
}

// upgradeError reports a shard that answered GET /v1/stream with
// something other than 101: not a shard of this protocol (an older
// binary, a proxy, the wrong port). Definitive — the next attempt would
// hear the same — and never papered over with another transport.
type upgradeError struct{ status int }

func (e *upgradeError) Error() string {
	return fmt.Sprintf("stream upgrade (%s) answered HTTP %d %s, want 101", streamProtocol, e.status, http.StatusText(e.status))
}

// maxIdleStreams caps the streams parked per shard. A stream is checked
// out for the length of one leg, so a router holds as many as it has
// requests in flight at once; what a burst leaves parked beyond that is
// sockets and 4 KB read buffers nobody is using. 64 is above the
// concurrency of any workload the ledger runs (8 callers) and of the
// default worker pool behind a shard; a burst above it dials, and closes
// the surplus when it parks.
const maxIdleStreams = 64

// clientStream is one connection to a shard, upgraded to the stream
// protocol (br set) or about to be. The goroutine that took it from the
// pool owns it, buffer included, until it parks or drops it.
type clientStream struct {
	conn net.Conn
	br   *bufio.Reader
	// buf holds the request frame on its way out, then the response
	// frame's payload.
	buf []byte
}

// shardStreams is one shard's parked streams and its stream accounting
// (the router's router_shard_streams / _stream_dials_total /
// _wire_bytes_total cells for the shard).
type shardStreams struct {
	mu   sync.Mutex
	idle []*clientStream // most recently parked last

	idleN, busyN  *obs.Gauge
	dials, tx, rx *obs.Counter
}

// init builds the per-shard stream pools, their metrics registered on reg
// (the router's) or, for a client used on its own, counted on a registry
// nobody scrapes.
func (c *Client) init(reg *obs.Registry) {
	c.once.Do(func() {
		if reg == nil {
			reg = obs.NewRegistry()
		}
		open := reg.Gauge("router_shard_streams",
			"Streams open to a shard, by state: idle (parked for the next leg) or busy (carrying one).", "shard", "state")
		dials := reg.Counter("router_shard_stream_dials_total",
			"Streams dialled and upgraded, by shard; a steady rate above zero means streams are not being reused.", "shard")
		wire := reg.Counter("router_shard_wire_bytes_total",
			"Bytes of request frames sent (tx) and response frames received (rx), by shard.", "shard", "dir")
		c.streams = make([]*shardStreams, len(c.URLs))
		for i := range c.streams {
			label := strconv.Itoa(i)
			c.streams[i] = &shardStreams{
				idleN: open.With(label, "idle"), busyN: open.With(label, "busy"),
				dials: dials.With(label), tx: wire.With(label, "tx"), rx: wire.With(label, "rx"),
			}
		}
	})
}

// take checks a stream out: the most recently parked one or, when none is
// parked or a fresh one is asked for, a new connection to the shard,
// which the first exchange upgrades.
func (p *shardStreams) take(ctx context.Context, base string, fresh bool) (*clientStream, error) {
	var st *clientStream
	p.mu.Lock()
	if n := len(p.idle); n > 0 && !fresh {
		st, p.idle = p.idle[n-1], p.idle[:n-1]
		p.idleN.Add(-1)
	}
	p.mu.Unlock()
	if st == nil {
		u, err := url.Parse(base)
		if err != nil || u.Scheme != "http" || u.Host == "" {
			return nil, fmt.Errorf("dist: shard address %q is not an http://host:port base URL", base)
		}
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", u.Host)
		if err != nil {
			return nil, err
		}
		st = &clientStream{conn: conn}
	}
	p.busyN.Add(1)
	return st, nil
}

// park returns a stream whose exchange completed; over the cap it is
// closed instead.
func (p *shardStreams) park(st *clientStream) {
	p.busyN.Add(-1)
	p.mu.Lock()
	if len(p.idle) < maxIdleStreams {
		p.idle = append(p.idle, st)
		p.idleN.Add(1)
		st = nil
	}
	p.mu.Unlock()
	if st != nil {
		st.conn.Close()
	}
}

// drop closes a stream whose exchange failed midway: what is left in the
// pipe is unknown. Closing it is also what tells the shard to stop
// working on the frame.
func (p *shardStreams) drop(st *clientStream) {
	p.busyN.Add(-1)
	st.conn.Close()
}

// CloseIdle closes every parked stream. A router calls it on its way out;
// streams carrying a leg at that moment are parked again afterwards and
// live until the next call or the shard's drain.
func (c *Client) CloseIdle() {
	c.init(nil)
	for _, p := range c.streams {
		p.mu.Lock()
		idle := p.idle
		p.idle = nil
		p.idleN.Add(-float64(len(idle)))
		p.mu.Unlock()
		for _, st := range idle {
			st.conn.Close()
		}
	}
}

// exchange sends body as one request frame — with ctx's request ID, its
// span's context and what is left until deadline as the budget — and reads
// the response frame that answers it, upgrading the connection first if
// it is new. It runs on the calling goroutine: deadline bounds every read
// and write on the connection, and ctx's cancellation pulls the deadline
// into the past so that a blocked one returns at once. On success st.buf
// is the payload. An error leaves the stream unusable.
func (st *clientStream) exchange(ctx context.Context, deadline time.Time, body []byte, maxResponse int64, acct *shardStreams) (status int, err error) {
	st.conn.SetDeadline(deadline)
	stop := context.AfterFunc(ctx, func() { st.conn.SetDeadline(time.Unix(1, 0)) })
	defer func() {
		if !stop() && err == nil {
			err = context.Cause(ctx) // the deadline may be moving under the next exchange
		}
	}()
	if st.br == nil {
		if err := st.upgrade(); err != nil {
			return 0, err
		}
		acct.dials.Inc()
	}
	var span string
	if traceID, spanID, ok := obs.SpanContext(ctx); ok {
		// The shard roots its own trace under the same ID and records
		// this span as its parent, so the two processes' traces stitch
		// into one query timeline.
		span = traceID + "/" + spanID
	}
	st.buf = appendRequestFrame(st.buf[:0], server.RequestID(ctx), span, time.Until(deadline), body)
	if _, err := st.conn.Write(st.buf); err != nil {
		return 0, err
	}
	acct.tx.Add(uint64(len(st.buf)))
	status, st.buf, err = readResponseFrame(st.br, st.buf, maxResponse)
	if err != nil {
		return status, err
	}
	acct.rx.Add(uint64(responseFrameHead + len(st.buf)))
	return status, nil
}

// upgrade sends GET /v1/stream with the stream protocol's Upgrade token
// and reads the answer; anything but 101 is an *upgradeError.
func (st *clientStream) upgrade() error {
	host := st.conn.RemoteAddr().String()
	if _, err := io.WriteString(st.conn, "GET /v1/stream HTTP/1.1\r\nHost: "+host+
		"\r\nConnection: Upgrade\r\nUpgrade: "+streamProtocol+"\r\n\r\n"); err != nil {
		return err
	}
	br := bufio.NewReader(st.conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusSwitchingProtocols || !strings.EqualFold(resp.Header.Get("Upgrade"), streamProtocol) {
		return &upgradeError{status: resp.StatusCode}
	}
	st.br = br
	return nil
}

// Health GETs one shard's /v1/healthz through http.DefaultClient (single
// attempt — health checks should observe failures, not mask them with
// retries).
func (c *Client) Health(ctx context.Context, shard int) error {
	url := c.URLs[shard]
	id := server.RequestID(ctx)
	actx, cancel := context.WithTimeout(ctx, c.attemptTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, url+"/v1/healthz", nil)
	if err != nil {
		return &ShardError{Shard: shard, URL: url, Err: err, Attempts: 1, RequestID: id}
	}
	if id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return &ShardError{Shard: shard, URL: url, Err: err, Attempts: 1, RequestID: id}
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return &ShardError{Shard: shard, URL: url, Status: resp.StatusCode, Attempts: 1,
			Message: http.StatusText(resp.StatusCode), RequestID: id}
	}
	return nil
}

// errors.As helper used by the router's error mapper.
func asShardError(err error) (*ShardError, bool) {
	var se *ShardError
	if errors.As(err, &se) {
		return se, true
	}
	return nil, false
}
