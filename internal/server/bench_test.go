package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	webtable "repro"
	"repro/internal/benchfix"
	"repro/internal/search"
)

// handlerBenchFixture is benchfix.Serving's snapshot loaded the way a
// daemon loads it, behind a single node's handler, with its request
// sequence. One worker, as the benchmark runs on the sandbox: a search
// scans on the calling goroutine.
func handlerBenchFixture(tb testing.TB) (http.Handler, [][]byte) {
	tb.Helper()
	snap, seq := benchfix.Serving(tb)
	svc, err := webtable.LoadService(context.Background(), bytes.NewReader(snap), webtable.WithWorkers(1))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(svc.Close)
	return New(svc, WithLogger(quietLogger())).Handler(), seq
}

// benchWriter is the least a handler can write to: the recorder of
// net/http/httptest allocates per response and cannot be reused.
type benchWriter struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (w *benchWriter) Header() http.Header         { return w.header }
func (w *benchWriter) WriteHeader(code int)        { w.code = code }
func (w *benchWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

// benchBody is a request body that can be pointed at the next request's
// bytes.
type benchBody struct{ bytes.Reader }

func (*benchBody) Close() error { return nil }

// BenchmarkHandlerSearch is one POST /v1/search through the whole
// in-process request path — middleware, decode, resolve, Service.Search,
// encode — with no socket, and with the request and response writer
// reused so that what is counted is what the handler itself costs the
// process: time, bytes, allocations and (gc/1000req) how often it makes
// the collector run.
func BenchmarkHandlerSearch(b *testing.B) {
	h, seq := handlerBenchFixture(b)
	body := &benchBody{}
	req := httptest.NewRequest(http.MethodPost, "/v1/search", nil)
	req.Body = body
	w := &benchWriter{header: http.Header{}}
	serve := func(i int) {
		body.Reset(seq[i%len(seq)])
		w.code = http.StatusOK
		w.body.Reset()
		clear(w.header)
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("status %d: %s", w.code, w.body.String())
		}
	}
	for i := 0; i < 256; i++ { // warm: lazy set-up is not a request's cost
		serve(i)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(i)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(1000*float64(after.NumGC-before.NumGC)/float64(b.N), "gc/1000req")
	parked, _ := search.ArenaStats()
	b.ReportMetric(float64(parked)/1024, "arena-KB")
}
