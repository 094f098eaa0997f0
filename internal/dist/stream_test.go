package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	webtable "repro"
	"repro/internal/server"
)

// testStream dials and upgrades one stream to a shard's base URL, for
// tests that speak frames themselves.
type testStream struct {
	t    testing.TB
	st   *clientStream
	acct *shardStreams
}

func dialTestStream(t testing.TB, url string) *testStream {
	t.Helper()
	c := &Client{URLs: []string{url}}
	c.init(nil)
	st, err := c.streams[0].take(context.Background(), url, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.conn.Close() })
	return &testStream{t, st, c.streams[0]}
}

// do sends one request frame under the given request ID and returns the
// status and a copy of the payload that answered it.
func (ts *testStream) do(id string, body []byte) (int, []byte, error) {
	ts.t.Helper()
	ctx := server.ContextWithRequestID(context.Background(), id)
	status, err := ts.st.exchange(ctx, time.Now().Add(10*time.Second), body, DefaultMaxResponse, ts.acct)
	return status, bytes.Clone(ts.st.buf), err
}

// raw writes a frame the test assembled itself and reads what answers it.
func (ts *testStream) raw(frame []byte) (int, []byte, error) {
	ts.t.Helper()
	if _, err := ts.st.conn.Write(frame); err != nil {
		return 0, nil, err
	}
	return readResponseFrame(ts.st.br, nil, DefaultMaxResponse)
}

// serveOn runs a Serve-style loop on a loopback listener at addr
// ("127.0.0.1:0" for a fresh port) and returns its base URL; stop cancels
// it and returns what it returned, once it has. The test's end stops it
// if nothing has before.
func serveOn(t testing.TB, addr string, serve func(context.Context, net.Listener) error) (url string, stop func() error) {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, ln) }()
	stopped := false
	stop = func() error {
		if stopped {
			return nil
		}
		stopped = true
		cancel()
		return <-done
	}
	t.Cleanup(func() {
		if err := stop(); err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return "http://" + ln.Addr().String(), stop
}

// loadShard loads one one-worker shard service of the snapshot and wraps
// it in a shard server.
func loadShard(t testing.TB, snap []byte, shard, shards int, opts ...Option) (*webtable.Service, *ShardServer) {
	t.Helper()
	svc, asn, err := webtable.LoadServiceShard(context.Background(), bytes.NewReader(snap), shard, shards, webtable.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc, NewShardServer(svc, asn, shard, shards, append([]Option{WithLogger(quietLogger())}, opts...)...)
}

// blankStageNanos zeroes the one part of a WTPART payload that is a clock
// reading: the six stage timings that end the stats block.
func blankStageNanos(payload []byte) []byte {
	const off = 6 + 1 + 8 + 4 + 4 + 3*8 + 4*4
	if len(payload) >= off+6*8 && bytes.HasPrefix(payload, partialMagic[:]) {
		clear(payload[off : off+6*8])
	}
	return payload
}

// TestStreamMatchesPost is the two framings' identity: for every search
// request of responses.golden's list — every mode, paging, explain, debug
// and each 4xx shape a shard can answer — and on each shard, the response
// frame's status and payload are byte for byte the status and body of
// POST /v1/partial for the same body under the same request ID (stage
// timings, two clock readings of two executions, blanked). A shard whose
// per-request Timeout has no room answers 504 both ways, and a body over
// MaxBody 413.
func TestStreamMatchesPost(t *testing.T) {
	snap, w := buildSegmentedSnapshot(t)
	svc, err := webtable.LoadService(context.Background(), bytes.NewReader(snap), webtable.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	single := server.New(svc, server.WithLogger(quietLogger())).Handler()
	const maxBody = 4 << 10
	cases := goldenRequests(t, w, single, maxBody)

	compare := func(t *testing.T, h http.Handler) {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		stream := dialTestStream(t, ts.URL)
		n := 0
		for i, c := range cases {
			if c.method != http.MethodPost {
				continue
			}
			id := fmt.Sprintf("parity-%03d", i)
			req := httptest.NewRequest(http.MethodPost, "/v1/partial", bytes.NewReader(c.body))
			req.Header.Set("X-Request-ID", id)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			status, payload, err := stream.do(id, c.body)
			if err != nil {
				t.Fatalf("%s: frame: %v", c.name, err)
			}
			if status != rec.Code || !bytes.Equal(blankStageNanos(payload), blankStageNanos(rec.Body.Bytes())) {
				t.Fatalf("%s: the framings differ\nframe %d %q\npost  %d %q", c.name, status, payload, rec.Code, rec.Body.Bytes())
			}
			if status == http.StatusOK {
				if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(len(payload)) {
					t.Fatalf("%s: POST Content-Length %q for a payload of %d bytes", c.name, cl, len(payload))
				}
				n++
			}
		}
		if n == 0 {
			t.Fatal("no request was answered 200")
		}
	}
	for shard := 0; shard < 2; shard++ {
		t.Run(fmt.Sprintf("shard=%d", shard), func(t *testing.T) {
			_, sh := loadShard(t, snap, shard, 2)
			compare(t, sh.Handler())
		})
	}
	t.Run("timeout", func(t *testing.T) {
		// A frame's deadline is the sooner of the shard's per-request
		// Timeout and the budget the frame carries. A shard with no Timeout
		// to spare answers even the upgrade 504, so the frame brings a
		// budget of a nanosecond to a shard with room, and is answered what
		// the POST to a shard without room is.
		_, sh := loadShard(t, snap, 0, 2)
		_, strict := loadShard(t, snap, 0, 2, WithTimeout(time.Nanosecond))
		ts := httptest.NewServer(sh.Handler())
		t.Cleanup(ts.Close)
		stream := dialTestStream(t, ts.URL)
		if status, _, err := stream.do("warm", cases[0].body); err != nil || status != http.StatusOK {
			t.Fatalf("status %d, err %v", status, err)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/partial", bytes.NewReader(cases[0].body))
		req.Header.Set("X-Request-ID", "late")
		rec := httptest.NewRecorder()
		strict.Handler().ServeHTTP(rec, req)
		status, payload, err := stream.raw(appendRequestFrame(nil, "late", "", time.Nanosecond, cases[0].body))
		if err != nil || status != http.StatusGatewayTimeout || rec.Code != status || !bytes.Equal(payload, rec.Body.Bytes()) {
			t.Fatalf("frame %d %q (%v)\npost  %d %q", status, payload, err, rec.Code, rec.Body.Bytes())
		}
		if rec := get(t, strict.Handler(), "/v1/stream"); rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("upgrade on a shard with no time: %d", rec.Code)
		}
	})
	t.Run("body cap", func(t *testing.T) {
		_, sh := loadShard(t, snap, 0, 2, func(b *server.HTTPBase) { b.MaxBody = 8 })
		ts := httptest.NewServer(sh.Handler())
		t.Cleanup(ts.Close)
		body := cases[0].body
		req := httptest.NewRequest(http.MethodPost, "/v1/partial", bytes.NewReader(body))
		req.Header.Set("X-Request-ID", "too-big")
		rec := httptest.NewRecorder()
		sh.Handler().ServeHTTP(rec, req)
		stream := dialTestStream(t, ts.URL)
		status, payload, err := stream.do("too-big", body)
		if err != nil || status != http.StatusRequestEntityTooLarge || rec.Code != status || !bytes.Equal(payload, rec.Body.Bytes()) {
			t.Fatalf("frame %d %q (%v)\npost  %d %q", status, payload, err, rec.Code, rec.Body.Bytes())
		}
		// The body was never read, so the stream cannot go on: the shard
		// closes it after the 413.
		if _, _, err := stream.do("after", body); err == nil {
			t.Fatal("the stream outlived an oversized frame")
		}
	})
}

// TestStreamRequestIDs: a frame's request ID is the ID of the shard's
// trace, log line and error body, as the X-Request-ID header is; a frame
// without one gets an ID minted by the shard.
func TestStreamRequestIDs(t *testing.T) {
	snap, _ := buildSnapshot(t)
	_, sh := loadShard(t, snap, 0, 1)
	ts := httptest.NewServer(sh.Handler())
	t.Cleanup(ts.Close)
	stream := dialTestStream(t, ts.URL)

	if status, _, err := stream.do("warm", []byte(`{}`)); err != nil || status != http.StatusBadRequest {
		t.Fatalf("status %d, err %v", status, err) // and the stream is upgraded
	}
	status, payload, err := stream.raw(appendRequestFrame(nil, "given-id-1", "upstream-9/4", 0, []byte(`{"nope":1}`)))
	if err != nil || status != http.StatusBadRequest {
		t.Fatalf("status %d, err %v", status, err)
	}
	var er server.ErrorResponse
	if err := json.Unmarshal(payload, &er); err != nil || er.Error.RequestID != "given-id-1" || er.Error.Code != "bad_request" {
		t.Fatalf("error body %q (%v)", payload, err)
	}
	wt := lookupTrace(t, sh.Handler(), "given-id-1")
	if wt.Root.Name != partialRoute {
		t.Fatalf("root span %q, want %q", wt.Root.Name, partialRoute)
	}
	var parent string
	for _, a := range wt.Root.Attrs {
		if a.Key == "parent" {
			parent = a.Value
		}
	}
	if parent != "upstream-9/4" {
		t.Fatalf("parent attr %q", parent)
	}

	status, payload, err = stream.do("", []byte(`{"nope":1}`))
	if err != nil || status != http.StatusBadRequest {
		t.Fatalf("status %d, err %v", status, err)
	}
	if err := json.Unmarshal(payload, &er); err != nil || er.Error.RequestID == "" || er.Error.RequestID == "given-id-1" {
		t.Fatalf("minted ID missing: %q (%v)", payload, err)
	}
	lookupTrace(t, sh.Handler(), er.Error.RequestID)
}

// TestStreamUpgradeRefused: a shard address that answers the upgrade with
// anything but 101 — an older binary's 404, a 200 from something that is
// not a shard at all — is a definitive failure naming the status it did
// answer: one attempt, no retry storm, no other transport tried, and to
// the router's client a 502, never the 404 relayed.
func TestStreamUpgradeRefused(t *testing.T) {
	for _, status := range []int{http.StatusOK, http.StatusNotFound} {
		var hits atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			w.WriteHeader(status)
		}))
		t.Cleanup(ts.Close)
		client := &Client{URLs: []string{ts.URL}, Sleep: noSleep, Retries: 3, Backoff: time.Millisecond}
		_, retries, err := client.Partial(context.Background(), 0, searchReq())
		var se *ShardError
		if !errors.As(err, &se) || se.Status != status || se.Attempts != 1 || retries != 0 || hits.Load() != 1 {
			t.Fatalf("upgrade answered %d: err %v, %d retries, %d hits; want one definitive attempt", status, err, retries, hits.Load())
		}
		if want := fmt.Sprintf("HTTP %d", status); !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), streamProtocol) {
			t.Fatalf("error %q does not name %q and the protocol", err, want)
		}
		rec := post(t, NewRouter(client, WithLogger(quietLogger())).Handler(), "/v1/search", searchReq())
		if eb := routerErr(t, rec); rec.Code != http.StatusBadGateway || eb.Code != "shard_unavailable" {
			t.Fatalf("router answered %d %+v, want 502 shard_unavailable", rec.Code, eb)
		}
	}
}

// rawShard is a shard that speaks the upgrade and then whatever script
// the test gives it: it reads one request frame per call of script and
// hands it the connection to answer on, or to cut.
func rawShard(t testing.TB, script func(n int64, conn net.Conn, fr requestFrame)) *httptest.Server {
	t.Helper()
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, br, err := acceptStream(w)
		if err != nil {
			panic(err)
		}
		go func() {
			defer conn.Close()
			for {
				fr, _, err := readRequestFrame(br, nil, 0)
				if err != nil {
					return
				}
				script(n.Add(1), conn, fr)
			}
		}()
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestStreamBrokenMidFrame: a shard that dies with a frame outstanding —
// the connection cut before any answer, or inside one — fails the attempt
// the way a transport error does: retried under the backoff ladder, and
// the next attempt's fresh stream succeeds.
func TestStreamBrokenMidFrame(t *testing.T) {
	good := EncodePartial(&Partial{Generation: 1, Shards: 1})
	frame := endResponseFrame(append(beginResponseFrame(nil, http.StatusOK), good...), 0)
	for name, cut := range map[string]int{"killed before answering": 0, "truncated response frame": len(frame) - 5} {
		ts := rawShard(t, func(n int64, conn net.Conn, _ requestFrame) {
			if n == 1 {
				conn.Write(frame[:cut])
				conn.Close()
				return
			}
			conn.Write(frame)
		})
		var slept int
		client := &Client{URLs: []string{ts.URL}, Retries: 2, Backoff: time.Millisecond,
			Sleep: func(context.Context, time.Duration) error { slept++; return nil }}
		t.Cleanup(client.CloseIdle)
		p, retries, err := client.Partial(context.Background(), 0, searchReq())
		if err != nil || p == nil || retries != 1 || slept != 1 {
			t.Fatalf("%s: partial %v, err %v, %d retries, %d sleeps; want success on the first retry", name, p, err, retries, slept)
		}
	}
}

// TestStreamResponseOverMaxResponse: a response frame that declares more
// than MaxResponse is refused from its head — nothing is allocated for it
// — and fails the attempt like a transport error, as the HTTP client's
// over-long body did.
func TestStreamResponseOverMaxResponse(t *testing.T) {
	ts := rawShard(t, func(_ int64, conn net.Conn, _ requestFrame) {
		conn.Write([]byte{0xff, 0xff, 0xff, 0xff, 0, 200}) // 4 GiB, says the head
	})
	client := &Client{URLs: []string{ts.URL}, Sleep: noSleep, Retries: 1, Backoff: time.Millisecond, MaxResponse: 1 << 10}
	t.Cleanup(client.CloseIdle)
	_, retries, err := client.Partial(context.Background(), 0, searchReq())
	var se *ShardError
	if !errors.As(err, &se) || !errors.Is(err, errFrameTooLarge) || retries != 1 || se.Attempts != 2 {
		t.Fatalf("err %v, %d retries; want errFrameTooLarge after 2 attempts", err, retries)
	}
	if !strings.Contains(err.Error(), "exceeds 1024 bytes") {
		t.Fatalf("error %q does not state the limit", err)
	}
}

// TestStreamSecondFrameEndsStream: the protocol is one frame at a time. A
// peer that sends a second before the first is answered has its stream
// closed, and the frame that was executing is cancelled with it.
func TestStreamSecondFrameEndsStream(t *testing.T) {
	entered := make(chan struct{})
	cancelled := make(chan error, 1)
	ss := newStreamSet()
	shardEnd, client := net.Pipe()
	go ss.serve(ss.ctx, shardEnd, bufio.NewReader(shardEnd), 0, func(ctx context.Context, _ requestFrame, dst []byte) []byte {
		close(entered)
		select {
		case <-ctx.Done():
			cancelled <- ctx.Err()
		case <-time.After(10 * time.Second):
			cancelled <- nil
		}
		return endResponseFrame(beginResponseFrame(dst, 499), 0)
	})
	frame := appendRequestFrame(nil, "a", "", 0, []byte(`{}`))
	go func() {
		client.Write(frame)
		<-entered
		client.Write(frame)
	}()
	if err := <-cancelled; !errors.Is(err, context.Canceled) {
		t.Fatalf("the executing frame saw %v, want context.Canceled", err)
	}
	// The worker may still answer the frame it was cancelled in; after
	// that the stream is over.
	if _, err := io.Copy(io.Discard, client); err != nil && !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("reading the closed stream: %v", err)
	}
	ss.drain(time.Second)
	if n := ss.open(); n != 0 {
		t.Fatalf("%d streams still open", n)
	}
}

// TestStreamCancelReachesShard: when the router side gives up on a leg —
// its context is cancelled while the shard is working on the frame — the
// client hangs up and the shard's execution context is cancelled: the
// frame ends as 499 on the shard, having scanned nothing, and frees the
// worker slot. The frame is held at a known point, waiting for the
// shard's one worker slot, which the test holds: nothing here depends on
// how long a scan takes.
func TestStreamCancelReachesShard(t *testing.T) {
	snap, w := buildSnapshot(t)
	svc, sh := loadShard(t, snap, 0, 1)
	url, _ := serveOn(t, "127.0.0.1:0", sh.Serve)
	client := &Client{URLs: []string{url}, Sleep: noSleep}
	t.Cleanup(client.CloseIdle)
	body := wireBody(t, w, w.SearchWorkload([]string{"directed"}, 1, 7)[0], nil)

	if err := svc.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := client.Partial(ctx, 0, body)
		errc <- err
	}()
	// The frame counter, not InFlight: the upgrade is a request in flight
	// too, for a moment, before any frame is.
	waitFor(t, "the frame to reach the shard", func() bool { return sh.frames.Value() == 1 })
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("a cancelled leg returned a partial")
	}
	waitFor(t, "the shard to drop the frame", func() bool { return sh.InFlight() == 0 })
	svc.Release()

	page := get(t, sh.Handler(), "/metrics").Body.String()
	for _, want := range []string{
		`http_requests_total{route="POST /v1/partial",method="POST",status="499"} 1`,
		"search_rows_scanned_total 0",
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("shard scrape missing %q:\n%s", want, page)
		}
	}
	// The slot is free again and the next leg, on a fresh stream, works.
	if _, _, err := client.Partial(context.Background(), 0, body); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond — an event in another goroutine that has no channel
// to wait on — and fails the test if it does not come true.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestStreamStaleAfterShardRestart: a parked stream whose shard process
// restarted fails its first exchange. That costs one immediate redial —
// not an attempt, not a backoff — because requests are idempotent reads
// and every parked stream is stale at once after a restart.
func TestStreamStaleAfterShardRestart(t *testing.T) {
	snap, w := buildSnapshot(t)
	body := wireBody(t, w, w.SearchWorkload([]string{"directed"}, 1, 7)[0], nil)
	_, sh := loadShard(t, snap, 0, 1)
	url, stop := serveOn(t, "127.0.0.1:0", sh.Serve)
	var slept int
	client := &Client{URLs: []string{url}, Sleep: func(context.Context, time.Duration) error { slept++; return nil }}
	rt := NewRouter(client, WithLogger(quietLogger()))
	t.Cleanup(client.CloseIdle)
	if _, _, err := client.Partial(context.Background(), 0, body); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil { // the drain closes the stream parked on the client
		t.Fatal(err)
	}
	_, sh2 := loadShard(t, snap, 0, 1)
	serveOn(t, strings.TrimPrefix(url, "http://"), sh2.Serve)

	p, retries, err := client.Partial(context.Background(), 0, body)
	if err != nil || p == nil || retries != 0 || slept != 0 {
		t.Fatalf("after the restart: err %v, %d retries, %d sleeps; want a silent redial", err, retries, slept)
	}
	page := get(t, rt.Handler(), "/metrics").Body.String()
	for _, want := range []string{
		`router_shard_stream_dials_total{shard="0"} 2`,
		`router_shard_streams{shard="0",state="idle"} 1`,
		`router_shard_streams{shard="0",state="busy"} 0`,
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("router scrape missing %q:\n%s", want, page)
		}
	}
}

// TestShardDrainsStreams: http.Server.Shutdown does not know hijacked
// connections, so the shard drains its streams itself — a frame that is
// executing when the drain starts is answered before Serve returns, the
// stream it ran on and every idle one are closed, and no stream is left
// open.
func TestShardDrainsStreams(t *testing.T) {
	snap, w := buildSnapshot(t)
	body := wireBody(t, w, w.SearchWorkload([]string{"directed"}, 1, 7)[0], nil)
	svc, sh := loadShard(t, snap, 0, 1)
	url, stop := serveOn(t, "127.0.0.1:0", sh.Serve)
	idle, busy := dialTestStream(t, url), dialTestStream(t, url)
	if status, _, err := idle.do("warm", body); err != nil || status != http.StatusOK {
		t.Fatalf("status %d, err %v", status, err)
	}

	if err := svc.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	type answer struct {
		status int
		err    error
	}
	answered := make(chan answer, 1)
	go func() {
		status, _, err := busy.do("in-flight", body)
		answered <- answer{status, err}
	}()
	waitFor(t, "the frame to reach the shard", func() bool { return sh.frames.Value() == 2 })
	stopped := make(chan error, 1)
	go func() { stopped <- stop() }()
	waitFor(t, "the drain to close the idle stream", func() bool { return sh.streams.open() == 1 })
	select {
	case err := <-stopped:
		t.Fatalf("Serve returned (%v) with a frame still executing", err)
	default:
	}
	svc.Release()
	if a := <-answered; a.err != nil || a.status != http.StatusOK {
		t.Fatalf("the executing frame was answered %d, %v; want 200", a.status, a.err)
	}
	if err := <-stopped; err != nil {
		t.Fatal(err)
	}
	if n := sh.streams.open(); n != 0 {
		t.Fatalf("%d streams open after Serve returned", n)
	}
	for name, ts := range map[string]*testStream{"idle": idle, "busy": busy} {
		if _, _, err := ts.do("late", body); err == nil {
			t.Fatalf("the %s stream survived the drain", name)
		}
	}
}

// TestClusterStartStopLeavesNothing starts a two-shard cluster behind a
// router on real listeners, sends it a query and stops it, fifty times
// over. Afterwards the goroutine count and the live heap are what they
// were: a stopped shard leaves no stream goroutine and nothing that keeps
// its service reachable (the repository benchmark builds two clusters a
// run and reads heap_mb after the first is stopped).
func TestClusterStartStopLeavesNothing(t *testing.T) {
	snap, w := buildSnapshot(t)
	body := wireBody(t, w, w.SearchWorkload([]string{"directed"}, 1, 7)[0], nil)
	hc := &http.Client{Transport: &http.Transport{}}
	// The clients stay reachable to the end: a collected one has its
	// sockets closed by their finalizers, which would end the shards'
	// streams for a cluster that forgot to.
	var clients []*Client
	round := func() {
		var stops []func()
		urls := make([]string, 2)
		for i := range urls {
			svc, asn, err := webtable.LoadServiceShard(context.Background(), bytes.NewReader(snap), i, 2, webtable.WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			url, stop := serveOn(t, "127.0.0.1:0", NewShardServer(svc, asn, i, 2, WithLogger(quietLogger())).Serve)
			urls[i] = url
			stops = append(stops, svc.Close, func() { stop() })
		}
		client := &Client{URLs: urls}
		clients = append(clients, client)
		url, stop := serveOn(t, "127.0.0.1:0", NewRouter(client, WithLogger(quietLogger())).Serve)
		stops = append(stops, func() { stop() })

		resp, err := hc.Post(url+"/v1/search", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("routed search: %d", resp.StatusCode)
		}
		hc.CloseIdleConnections()
		for i := len(stops) - 1; i >= 0; i-- { // router first, as the benchmark stops them
			stops[i]()
			for _, p := range client.streams {
				if n := len(p.idle); n != 0 {
					t.Fatalf("the stopped router left %d streams parked", n)
				}
			}
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	round() // lazy set-up: pools, the http client's own goroutines
	goroutines, heap := runtime.NumGoroutine(), liveHeap()
	for i := 0; i < 50; i++ {
		round()
	}
	// net/http's connection goroutines end a moment after Shutdown returns.
	waitFor(t, "the goroutines of the stopped clusters to end", func() bool { return runtime.NumGoroutine() <= goroutines })
	if after := liveHeap(); after > heap+1<<20 {
		t.Fatalf("live heap grew from %d to %d bytes over 50 start/stop rounds", heap, after)
	}
	runtime.KeepAlive(clients)
}

// TestStreamMetrics: the stream's own signals. On the shard the upgrade
// is one counted, logged request answered 101, each frame one POST
// /v1/partial, shard_streams_open and shard_stream_frames_total follow,
// and InFlight counts executing frames, not idle streams; on the router
// the stream gauges, the dial counter and the wire-byte counters move,
// and the bytes counted are the bytes of the frames.
func TestStreamMetrics(t *testing.T) {
	snap, w := buildSnapshot(t)
	c := startCluster(t, snap, 1)
	t.Cleanup(c.router.client.CloseIdle)
	body := wireBody(t, w, w.SearchWorkload([]string{"directed"}, 1, 7)[0], nil)
	for i := 0; i < 3; i++ {
		if rec := post(t, c.router.Handler(), "/v1/search", body); rec.Code != http.StatusOK {
			t.Fatalf("routed search: %d: %s", rec.Code, rec.Body.String())
		}
	}
	// The upgrade's handler returns — and is counted, and leaves in-flight —
	// a moment after its 101 let the client go on: wait for that, then
	// nothing below can move.
	var page string
	waitFor(t, "the upgrade request to finish", func() bool {
		page = get(t, c.swaps[0], "/metrics").Body.String()
		return strings.Contains(page, "http_in_flight_requests 1\n")
	})
	for _, want := range []string{
		`http_requests_total{route="GET /v1/stream",method="GET",status="101"} 1`,
		`http_requests_total{route="POST /v1/partial",method="POST",status="200"} 3`,
		"shard_streams_open 1",
		"shard_stream_frames_total 3",
		"http_in_flight_requests 1", // the scrape itself; the idle stream is not a request
	} {
		if !strings.Contains(page, want+"\n") {
			t.Fatalf("shard scrape missing %q:\n%s", want, page)
		}
	}
	page = get(t, c.router.Handler(), "/metrics").Body.String()
	tx := uint64(3 * len(appendRequestFrame(nil, "", "", 0, body)))
	for _, want := range []string{
		`router_shard_streams{shard="0",state="idle"} 1`,
		`router_shard_streams{shard="0",state="busy"} 0`,
		`router_shard_stream_dials_total{shard="0"} 1`,
	} {
		if !strings.Contains(page, want+"\n") {
			t.Fatalf("router scrape missing %q:\n%s", want, page)
		}
	}
	// Each request frame also carries the minted request ID and the span
	// context, so tx is above the bare frames; rx is three partials.
	for dir, min := range map[string]uint64{"tx": tx, "rx": 3 * uint64(responseFrameHead+len(partialMagic))} {
		var got uint64
		prefix := fmt.Sprintf(`router_shard_wire_bytes_total{shard="0",dir="%s"} `, dir)
		for _, line := range strings.Split(page, "\n") {
			if strings.HasPrefix(line, prefix) {
				fmt.Sscan(strings.TrimPrefix(line, prefix), &got)
			}
		}
		if got < min {
			t.Fatalf("wire bytes %s = %d, want at least %d:\n%s", dir, got, min, page)
		}
	}
	if c.router.InFlight() != 0 {
		t.Fatalf("router in flight = %d with the cluster idle", c.router.InFlight())
	}
}

// TestUpgradeRequired: GET /v1/stream without the protocol's Upgrade
// token is answered 426 naming it, not hijacked.
func TestUpgradeRequired(t *testing.T) {
	snap, _ := buildSnapshot(t)
	_, sh := loadShard(t, snap, 0, 1)
	rec := get(t, sh.Handler(), "/v1/stream")
	if rec.Code != http.StatusUpgradeRequired || rec.Header().Get("Upgrade") != streamProtocol {
		t.Fatalf("status %d, Upgrade %q", rec.Code, rec.Header().Get("Upgrade"))
	}
	if eb := routerErr(t, rec); eb.Code != "upgrade_required" {
		t.Fatalf("error body %+v", eb)
	}
}

// FuzzStreamFrames: whatever bytes arrive on a stream, the shard-side
// request-frame reader and the client-side response-frame reader each
// give an error — errBadFrame, errFrameTooLarge, or io.EOF for a request
// reader that met the end between frames — or a frame that re-encodes to
// exactly the bytes consumed; neither panics, reads past its frame, or
// sizes a buffer by a length it has not held against its cap (the length
// prefix is the hostile part: four bytes can claim four gigabytes).
func FuzzStreamFrames(f *testing.F) {
	const maxBody, maxPayload = 1 << 10, 1 << 12
	f.Add(appendRequestFrame(nil, "req-000001", "req-000001/3", 10*time.Second, []byte(`{"e2":"probe"}`)))
	f.Add(appendRequestFrame(nil, "", "", 0, nil))
	f.Add(appendRequestFrame(nil, "id", "", -1, bytes.Repeat([]byte{'x'}, maxBody+1)))
	f.Add(endResponseFrame(append(beginResponseFrame(nil, 200), EncodePartial(samplePartial())...), 0))
	f.Add(endResponseFrame(beginResponseFrame(nil, 504), 0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 1, 0})
	f.Add([]byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		fr, buf, err := readRequestFrame(r, nil, maxBody)
		consumed := data[:len(data)-r.Len()]
		switch {
		case err == nil:
			if again := appendRequestFrame(nil, string(fr.ID), string(fr.Span), fr.Budget, fr.Body); !bytes.Equal(again, consumed) {
				t.Fatalf("request frame re-encodes to %x, read %x", again, consumed)
			}
			if len(fr.Body) > maxBody {
				t.Fatalf("a body of %d bytes passed a cap of %d", len(fr.Body), maxBody)
			}
		case errors.Is(err, io.EOF):
			if len(data) != 0 {
				t.Fatalf("io.EOF after %d bytes of a frame", len(data))
			}
		case !errors.Is(err, errBadFrame) && !errors.Is(err, errFrameTooLarge):
			t.Fatalf("request reader: err = %v", err)
		}
		// What a reader may allocate: the length its frame declares or
		// its cap, whichever is less, plus — for a request — an ID and a
		// span context of at most 64 KB each by their u16 lengths.
		declared := 0
		if len(data) >= 4 {
			declared = int(min(binary.BigEndian.Uint32(data), 1<<20))
		}
		if limit := min(declared, maxBody) + 2*math.MaxUint16; cap(buf) > limit {
			t.Fatalf("request reader sized a buffer of %d for a frame declaring %d", cap(buf), declared)
		}

		r = bytes.NewReader(data)
		status, payload, err := readResponseFrame(r, nil, maxPayload)
		consumed = data[:len(data)-r.Len()]
		switch {
		case err == nil:
			if again := endResponseFrame(append(beginResponseFrame(nil, status), payload...), 0); !bytes.Equal(again, consumed) {
				t.Fatalf("response frame re-encodes to %x, read %x", again, consumed)
			}
		case !errors.Is(err, errBadFrame) && !errors.Is(err, errFrameTooLarge):
			t.Fatalf("response reader: err = %v", err)
		}
		if limit := min(declared, maxPayload); cap(payload) > limit {
			t.Fatalf("response reader sized a buffer of %d for a frame declaring %d", cap(payload), declared)
		}
	})
}
