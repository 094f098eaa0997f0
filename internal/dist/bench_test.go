package dist

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"

	webtable "repro"
	"repro/internal/benchfix"
	"repro/internal/catalog"
	"repro/internal/search"
)

// routedPartial is one shard's answer of about the size a routed query of
// the repository benchmark's serve-sharded mix carries (7 677 wire bytes
// a query over two shards): one replay group of 32 clusters, every
// second an entity cluster, each with three hits, and the text clusters
// with two spellings.
func routedPartial() *Partial {
	p := &Partial{Generation: 3, Shard: 1, Shards: 2, Stats: search.ExecStats{CandidatePairs: 253, PairsMatched: 40, RowsScanned: 5962, SegmentsVisited: 4}}
	g := search.PartialGroup{Key: 0}
	for ci := 0; ci < 32; ci++ {
		c := search.ClusterPartial{Entity: catalog.EntityID(ci), Norm: fmt.Sprintf("the film %d of %d", ci, ci%11)}
		if ci%2 == 1 {
			c.Entity = catalog.None
			c.Variants = []search.Variant{{Raw: fmt.Sprintf("The Film %d of %d", ci, ci%11), Count: 2}, {Raw: fmt.Sprintf("THE FILM %d OF %d", ci, ci%11), Count: 1}}
		} else {
			c.Canonical = fmt.Sprintf("The Film %d of %d", ci, ci%11)
		}
		for h := 0; h < 3; h++ {
			c.Hits = append(c.Hits, search.PartialHit{Table: int32(100*ci + h), Row: int32(h), Col: 0, Evidence: 1 / float64(ci+h+1)})
		}
		g.Clusters = append(g.Clusters, c)
	}
	p.Groups = []search.PartialGroup{g}
	return p
}

// BenchmarkDecodePartial decodes routedPartial's payload: what the router
// does once per shard per routed query.
func BenchmarkDecodePartial(b *testing.B) {
	data := EncodePartial(routedPartial())
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodePartial(data); err != nil {
			b.Fatal(err)
		}
	}
}

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
