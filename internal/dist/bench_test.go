package dist

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"

	webtable "repro"
	"repro/internal/benchfix"
)

// BenchmarkRoutedSearch is BenchmarkHandlerSearch's corpus and request
// sequence (benchfix.Serving) through the cluster path, sockets included:
// the snapshot loaded as two one-worker shard services behind shard
// servers and a router, each on its own loopback listener in this process
// (the repository benchmark's serve-sharded topology), and one closed-loop
// net/http caller posting to the router. What is counted is the whole
// process — caller, router, both shards: time per routed request, bytes
// and allocations, and how often it makes the collector run. Run with
// -cpu 2, the sandbox's two processors.
func BenchmarkRoutedSearch(b *testing.B) {
	snap, seq := benchfix.Serving(b)
	const shards = 2
	urls := make([]string, shards)
	for i := range urls {
		svc, asn, err := webtable.LoadServiceShard(context.Background(), bytes.NewReader(snap), i, shards, webtable.WithWorkers(1))
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(svc.Close)
		urls[i], _ = serveOn(b, "127.0.0.1:0", NewShardServer(svc, asn, i, shards, WithLogger(quietLogger())).Serve)
	}
	// Registered after the shards, so the router stops first.
	url, _ := serveOn(b, "127.0.0.1:0", NewRouter(&Client{URLs: urls}, WithLogger(quietLogger())).Serve)
	url += "/v1/search"

	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: time.Minute}
	b.Cleanup(hc.CloseIdleConnections)
	call := func(i int) {
		resp, err := hc.Post(url, "application/json", bytes.NewReader(seq[i%len(seq)]))
		if err != nil {
			b.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d, read error %v", resp.StatusCode, err)
		}
	}
	for i := 0; i < 256; i++ { // warm: connections, arenas, route cells
		call(i)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call(i)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(1000*float64(after.NumGC-before.NumGC)/float64(b.N), "gc/1000req")
}
