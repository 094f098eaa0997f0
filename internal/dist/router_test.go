package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/search"
	"repro/internal/server"
)

// fakeCluster mounts arbitrary handlers as a shard cluster behind a
// router with instantaneous retries — the deterministic seam for
// exercising failure policy without real sockets misbehaving on their
// own schedule.
type fakeCluster struct {
	router *Router
	client *Client
	swaps  []*swapHandler
}

func newFakeCluster(t testing.TB, handlers ...http.Handler) *fakeCluster {
	t.Helper()
	c := &fakeCluster{}
	var urls []string
	for _, h := range handlers {
		sw := &swapHandler{}
		sw.Set(h)
		ts := httptest.NewServer(streamFace(sw))
		t.Cleanup(ts.Close)
		c.swaps = append(c.swaps, sw)
		urls = append(urls, ts.URL)
	}
	c.client = &Client{URLs: urls, sleepFn: noSleep, maxRetries: 2, firstBackoff: time.Millisecond}
	t.Cleanup(c.client.CloseIdle)
	c.router = NewRouter(c.client, WithLogger(quietLogger()))
	return c
}

// streamFace puts the stream protocol in front of a fake shard, so that
// the failure-policy tests keep scripting shards as plain http.Handlers:
// GET /v1/stream is upgraded, and every request frame becomes a
// POST /v1/partial call of h — request ID and span context in the headers
// the HTTP framing carries them in, the frame's context (cancelled when
// the client hangs up) as the request's — whose status and body go back
// as the response frame. It runs the shard server's own stream loop
// (streamSet.serve). Anything else, a health probe, reaches h as it is.
func streamFace(h http.Handler) http.Handler {
	ss := newStreamSet()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/stream" {
			h.ServeHTTP(w, r)
			return
		}
		conn, br, err := acceptStream(w)
		if err != nil {
			panic(err)
		}
		go ss.serve(ss.ctx, conn, br, 0, func(ctx context.Context, fr requestFrame, dst []byte) []byte {
			req := httptest.NewRequest(http.MethodPost, "/v1/partial", bytes.NewReader(fr.Body)).WithContext(ctx)
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set("X-Request-ID", string(fr.ID))
			req.Header.Set("X-Span-Context", string(fr.Span))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			start := len(dst)
			dst = append(beginResponseFrame(dst, rec.Code), rec.Body.Bytes()...)
			return endResponseFrame(dst, start)
		})
	})
}

// fakePartial answers every /v1/partial with a fixed valid payload and
// counts requests.
type fakePartial struct {
	partial Partial
	hits    atomic.Int64
}

func (f *fakePartial) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.hits.Add(1)
	w.Write(EncodePartial(&f.partial))
}

// failN serves errors for the first n requests, then delegates.
type failN struct {
	n      atomic.Int64
	status int
	body   []byte
	then   http.Handler
}

func (f *failN) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.n.Add(-1) >= 0 {
		w.WriteHeader(f.status)
		w.Write(f.body)
		return
	}
	f.then.ServeHTTP(w, r)
}

func emptyPartial(shard, shards int) *fakePartial {
	return &fakePartial{partial: Partial{Generation: 1, Shard: shard, Shards: shards}}
}

func searchReq() []byte {
	b, _ := json.Marshal(map[string]any{"e2": "probe", "mode": "baseline", "t1": "x"})
	return b
}

func routerErr(t testing.TB, rec *httptest.ResponseRecorder) server.ErrorBody {
	t.Helper()
	var er server.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatalf("not an ErrorResponse: %v (%s)", err, rec.Body.String())
	}
	return er.Error
}

// TestRouterShardDownIs502 kills one shard of two: the router must fail
// the whole request with a structured 502 naming the failed shard —
// never a silently truncated ranking from the survivor.
func TestRouterShardDownIs502(t *testing.T) {
	down := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error":{"code":"internal","message":"boom"}}`))
	})
	c := newFakeCluster(t, emptyPartial(0, 2), down)
	rec := post(t, c.router.Handler(), "/v1/search", searchReq())
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502: %s", rec.Code, rec.Body.String())
	}
	eb := routerErr(t, rec)
	if eb.Code != "shard_unavailable" {
		t.Fatalf("code = %q, want shard_unavailable", eb.Code)
	}
	if !strings.Contains(eb.Message, "shard 1") {
		t.Fatalf("message %q does not name shard 1", eb.Message)
	}

	// The stats must show the retries spent and the last error.
	srec := get(t, c.router.Handler(), "/v1/stats")
	var st RouterStatsResponse
	if err := json.Unmarshal(srec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("stats shards = %d", len(st.Shards))
	}
	s1 := st.Shards[1]
	if s1.Requests != 1 || s1.Failures != 1 || s1.Retries != 2 || s1.LastError == "" {
		t.Fatalf("shard 1 stats = %+v, want 1 request, 1 failure, 2 retries, last error set", s1)
	}
	if st.Shards[0].Failures != 0 {
		t.Fatalf("healthy shard recorded failure: %+v", st.Shards[0])
	}
}

// TestRouterTransportDownIs502 covers the connection-refused flavor of
// a dead shard (process gone, not erroring).
func TestRouterTransportDownIs502(t *testing.T) {
	okShard := emptyPartial(0, 2)
	c := newFakeCluster(t, okShard, emptyPartial(1, 2))
	// Point shard 1 at a closed listener.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	c.client.URLs[1] = dead.URL
	rec := post(t, c.router.Handler(), "/v1/search", searchReq())
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502: %s", rec.Code, rec.Body.String())
	}
	if eb := routerErr(t, rec); eb.Code != "shard_unavailable" || !strings.Contains(eb.Message, "shard 1") {
		t.Fatalf("error = %+v", eb)
	}
}

// TestRouterRetryRecovers fails one shard's first two attempts with a
// 503: the bounded retry must absorb the transient and the request must
// succeed, with the retries visible in stats.
func TestRouterRetryRecovers(t *testing.T) {
	flaky := &failN{status: http.StatusServiceUnavailable, then: emptyPartial(1, 2)}
	flaky.n.Store(2)
	c := newFakeCluster(t, emptyPartial(0, 2), flaky)
	rec := post(t, c.router.Handler(), "/v1/search", searchReq())
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200: %s", rec.Code, rec.Body.String())
	}
	var st RouterStatsResponse
	if err := json.Unmarshal(get(t, c.router.Handler(), "/v1/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Shards[1].Retries != 2 || st.Shards[1].Failures != 0 {
		t.Fatalf("shard 1 stats = %+v, want 2 retries and no definitive failure", st.Shards[1])
	}
}

// TestRouterSlowShardTimesOut points one shard at a handler that never
// answers within the attempt timeout: the router must give up after its
// bounded retries and return the structured 502, promptly.
func TestRouterSlowShardTimesOut(t *testing.T) {
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // free the connection so abort is observable
		select {
		case <-r.Context().Done(): // client's attempt deadline fired
		case <-time.After(500 * time.Millisecond): // safety: don't pin test cleanup
		}
	})
	c := newFakeCluster(t, emptyPartial(0, 2), slow)
	c.client.timeout = 25 * time.Millisecond
	c.client.maxRetries = 1
	start := time.Now()
	rec := post(t, c.router.Handler(), "/v1/search", searchReq())
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502: %s", rec.Code, rec.Body.String())
	}
	if eb := routerErr(t, rec); eb.Code != "shard_unavailable" || !strings.Contains(eb.Message, "shard 1") {
		t.Fatalf("error = %+v", eb)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("slow shard stalled the router for %v", elapsed)
	}
}

// TestRouterInconsistentShards covers deployment bugs: a shard claiming
// the wrong slot and a shard at a different corpus generation both fail
// with 502 shard_inconsistent.
func TestRouterInconsistentShards(t *testing.T) {
	t.Run("wrong slot", func(t *testing.T) {
		c := newFakeCluster(t, emptyPartial(0, 2), emptyPartial(0, 2)) // both claim shard 0
		rec := post(t, c.router.Handler(), "/v1/search", searchReq())
		if rec.Code != http.StatusBadGateway {
			t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
		}
		if eb := routerErr(t, rec); eb.Code != "shard_inconsistent" {
			t.Fatalf("code = %q", eb.Code)
		}
	})
	t.Run("generation skew", func(t *testing.T) {
		skewed := emptyPartial(1, 2)
		skewed.partial.Generation = 2
		c := newFakeCluster(t, emptyPartial(0, 2), skewed)
		rec := post(t, c.router.Handler(), "/v1/search", searchReq())
		if rec.Code != http.StatusBadGateway {
			t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
		}
		eb := routerErr(t, rec)
		if eb.Code != "shard_inconsistent" || !strings.Contains(eb.Message, "generation") {
			t.Fatalf("error = %+v", eb)
		}
	})
}

// TestRouterLocalValidation: malformed requests must be rejected by the
// router alone, with the single-node error codes, without spending a
// cluster fan-out.
func TestRouterLocalValidation(t *testing.T) {
	shard0, shard1 := emptyPartial(0, 2), emptyPartial(1, 2)
	c := newFakeCluster(t, shard0, shard1)
	cases := []struct {
		name string
		body string
		code string
	}{
		{"bad mode", `{"mode":"quantum"}`, "invalid_mode"},
		{"negative page size", `{"page_size":-1}`, "invalid_page_size"},
		{"bad cursor", `{"cursor":"!!"}`, "invalid_cursor"},
		{"unknown field", `{"nope":1}`, "bad_request"},
		{"trailing data", `{} {}`, "bad_request"},
		{"not json", `hello`, "bad_request"},
	}
	for _, tc := range cases {
		rec := post(t, c.router.Handler(), "/v1/search", []byte(tc.body))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400: %s", tc.name, rec.Code, rec.Body.String())
			continue
		}
		if eb := routerErr(t, rec); eb.Code != tc.code {
			t.Errorf("%s: code = %q, want %q", tc.name, eb.Code, tc.code)
		}
	}
	if n := shard0.hits.Load() + shard1.hits.Load(); n != 0 {
		t.Fatalf("local validation leaked %d requests to the shards", n)
	}
}

// TestRouterGarbledPartial: a shard answering 200 with a corrupt
// payload — not WTPART at all, or well-framed WTPART carrying a NaN
// evidence, which would otherwise surface as a NaN score and a cursor
// the router itself rejects — is a shard fault (502), never a page and
// not a router crash.
func TestRouterGarbledPartial(t *testing.T) {
	nan := emptyPartial(1, 2)
	nan.partial.Groups = []search.PartialGroup{{Clusters: []search.ClusterPartial{{
		Entity: catalog.None, Norm: "n", Hits: []search.PartialHit{{Evidence: math.NaN()}},
	}}}}
	for name, shard := range map[string]http.Handler{
		"not a partial": http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte("not a partial"))
		}),
		"NaN evidence": nan,
	} {
		c := newFakeCluster(t, emptyPartial(0, 2), shard)
		rec := post(t, c.router.Handler(), "/v1/search", searchReq())
		if rec.Code != http.StatusBadGateway {
			t.Fatalf("%s: status = %d: %s", name, rec.Code, rec.Body.String())
		}
		if eb := routerErr(t, rec); eb.Code != "shard_unavailable" || !strings.Contains(eb.Message, ErrBadPartial.Error()) {
			t.Fatalf("%s: error = %+v, want shard_unavailable naming %q", name, eb, ErrBadPartial)
		}
	}
}

// TestRouterHealthz: green only when every shard is green; a dead shard
// turns the router's health red, naming the shard.
func TestRouterHealthz(t *testing.T) {
	c := newFakeCluster(t, emptyPartial(0, 2), emptyPartial(1, 2))
	if rec := get(t, c.router.Handler(), "/v1/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthy cluster: %d", rec.Code)
	}
	c.swaps[1].Set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	rec := get(t, c.router.Handler(), "/v1/healthz")
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("sick cluster: %d, want 502", rec.Code)
	}
	if eb := routerErr(t, rec); eb.Code != "shard_unavailable" || !strings.Contains(eb.Message, "shard 1") {
		t.Fatalf("error = %+v", eb)
	}
	// A shard that answers its health check with a 4xx is just as
	// unavailable: the router does not pass the shard's status on.
	c.swaps[1].Set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
	}))
	rec = get(t, c.router.Handler(), "/v1/healthz")
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("shard healthz 404: router %d, want 502", rec.Code)
	}
	if eb := routerErr(t, rec); eb.Code != "shard_unavailable" || !strings.Contains(eb.Message, "shard 1") {
		t.Fatalf("error = %+v", eb)
	}
}

// TestClientNoRetryOn4xx: client errors are deterministic; retrying
// them only burns the cluster. Exactly one attempt is allowed.
func TestClientNoRetryOn4xx(t *testing.T) {
	var hits atomic.Int64
	reject := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":{"code":"unknown_name","message":"no","field":"t1"}}`))
	})
	ts := httptest.NewServer(streamFace(reject))
	t.Cleanup(ts.Close)
	client := &Client{URLs: []string{ts.URL}, sleepFn: noSleep, maxRetries: 3, firstBackoff: time.Millisecond}
	t.Cleanup(client.CloseIdle)
	_, retries, err := client.Partial(context.Background(), 0, searchReq())
	if hits.Load() != 1 || retries != 0 {
		t.Fatalf("attempts = %d, retries = %d; want a single attempt", hits.Load(), retries)
	}
	var se *ShardError
	if !errors.As(err, &se) || se.Status != http.StatusBadRequest || se.Code != "unknown_name" || se.Field != "t1" {
		t.Fatalf("err = %v", err)
	}
}

// TestClientBackoffDoubles records the injected sleeps: they must form
// the doubling sequence the retry policy promises.
func TestClientBackoffDoubles(t *testing.T) {
	fail := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	})
	ts := httptest.NewServer(streamFace(fail))
	t.Cleanup(ts.Close)
	var slept []time.Duration
	client := &Client{
		URLs: []string{ts.URL}, maxRetries: 3, firstBackoff: 10 * time.Millisecond,
		sleepFn: func(_ context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	}
	_, retries, err := client.Partial(context.Background(), 0, searchReq())
	if err == nil || retries != 3 {
		t.Fatalf("retries = %d, err = %v", retries, err)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("slept %v, want %v", slept, want)
		}
	}
	var se *ShardError
	if !errors.As(err, &se) || se.Attempts != 4 {
		t.Fatalf("err = %v, want ShardError after 4 attempts", err)
	}
}

// TestRouterStatsPercentiles: p50 and p99 must be populated and
// ordered after a burst of successful requests.
func TestRouterStatsPercentiles(t *testing.T) {
	c := newFakeCluster(t, emptyPartial(0, 1))
	for i := 0; i < 20; i++ {
		if rec := post(t, c.router.Handler(), "/v1/search", searchReq()); rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d", i, rec.Code)
		}
	}
	var st RouterStatsResponse
	if err := json.Unmarshal(get(t, c.router.Handler(), "/v1/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	s := st.Shards[0]
	if s.Requests != 20 {
		t.Fatalf("requests = %d", s.Requests)
	}
	if s.P50Millis <= 0 || s.P99Millis < s.P50Millis {
		t.Fatalf("percentiles p50=%v p99=%v", s.P50Millis, s.P99Millis)
	}
	if s.LastError != "" {
		t.Fatalf("unexpected last error %q", s.LastError)
	}
}

// TestShardErrorCarriesRequestID checks the cross-process grep story
// for failures: when a shard dies mid-query, the router's error message
// names both the shard and the request ID, so the same token finds the
// failure in the router's response, the router's log, and the shard's
// access log.
func TestShardErrorCarriesRequestID(t *testing.T) {
	down := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error":{"code":"internal","message":"boom"}}`))
	})
	c := newFakeCluster(t, emptyPartial(0, 2), down)

	req := httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(string(searchReq())))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "grep-me-42")
	rec := httptest.NewRecorder()
	c.router.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502: %s", rec.Code, rec.Body.String())
	}
	eb := routerErr(t, rec)
	if !strings.Contains(eb.Message, "shard 1") || !strings.Contains(eb.Message, "[request grep-me-42]") {
		t.Fatalf("message %q must name shard 1 and request grep-me-42", eb.Message)
	}

	// The struct form carries it too, for callers using the client
	// library directly.
	var se *ShardError
	ctx := server.ContextWithRequestID(context.Background(), "lib-req-7")
	_, _, err := c.client.Partial(ctx, 1, searchReq())
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *ShardError", err)
	}
	if se.RequestID != "lib-req-7" {
		t.Fatalf("ShardError.RequestID = %q, want lib-req-7", se.RequestID)
	}
}
