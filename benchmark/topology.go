package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"time"

	webtable "repro"
	"repro/internal/dist"
	"repro/internal/server"
)

// All servers run in this process on loopback listeners, as tabload's
// do: the sandbox has two cores either way, and one process keeps the
// heap and the obs registries readable.

func quietLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// serveOn starts a Serve-style loop on a fresh loopback listener and
// returns its base URL and a stop func that drains it and waits.
func serveOn(serve func(context.Context, net.Listener) error) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, ln) }()
	return "http://" + ln.Addr().String(), func() { cancel(); <-done }, nil
}

// heapMB is the live heap after collection; the second cycle empties
// the sync.Pool victim caches the first one filled.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// topology is what a workload sends its requests to.
type topology struct {
	url    string              // where POST /v1/search goes
	svc    *webtable.Service   // the single node's service (nil for a cluster)
	srv    *server.Server      // the single node's server (nil for a cluster)
	shards []*webtable.Service // the cluster's shard services
	asn    []webtable.ShardAssignment
	loadS  float64 // wall time of LoadService / all LoadServiceShard calls
	heap   float64 // live heap the loaded services added, MB
	stops  []func()
}

func (t *topology) stop() {
	for i := len(t.stops) - 1; i >= 0; i-- {
		t.stops[i]()
	}
	t.stops = nil
}

// startSingle loads snap into one service (timing the load and its
// heap) and serves it. A nil snap starts an empty node. workers sizes the
// service's worker pool.
func startSingle(ctx context.Context, cat *webtable.Catalog, snap []byte, snapPath string, workers int) (*topology, error) {
	t := &topology{}
	before := heapMB()
	t0 := time.Now()
	var err error
	if snap == nil {
		t.svc, err = webtable.NewService(cat, webtable.WithWorkers(workers))
	} else {
		t.svc, err = webtable.LoadService(ctx, bytes.NewReader(snap), webtable.WithWorkers(workers))
	}
	if err != nil {
		return nil, err
	}
	t.loadS = time.Since(t0).Seconds()
	t.heap = heapMB() - before
	opts := []server.Option{server.WithLogger(quietLogger())}
	if snapPath != "" {
		opts = append(opts, server.WithSnapshotPath(snapPath))
	}
	t.srv = server.New(t.svc, opts...)
	url, stop, err := serveOn(t.srv.Serve)
	if err != nil {
		t.svc.Close()
		return nil, err
	}
	t.url = url
	t.stops = []func(){t.svc.Close, stop}
	return t, nil
}

// startCluster loads snap as n shard services, each with a worker pool of
// workers, behind a router.
func startCluster(ctx context.Context, snap []byte, n, workers int) (*topology, error) {
	t := &topology{}
	before := heapMB()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		svc, asn, err := webtable.LoadServiceShard(ctx, bytes.NewReader(snap), i, n, webtable.WithWorkers(workers))
		if err != nil {
			t.stop()
			return nil, err
		}
		t.shards = append(t.shards, svc)
		t.asn = append(t.asn, asn)
		t.stops = append(t.stops, svc.Close)
	}
	t.loadS = time.Since(t0).Seconds()
	t.heap = heapMB() - before
	urls := make([]string, n)
	for i, svc := range t.shards {
		sh := dist.NewShardServer(svc, t.asn[i], i, n, dist.WithLogger(quietLogger()))
		url, stop, err := serveOn(sh.Serve)
		if err != nil {
			t.stop()
			return nil, err
		}
		urls[i] = url
		t.stops = append(t.stops, stop)
	}
	rt := dist.NewRouter(&dist.Client{URLs: urls}, dist.WithLogger(quietLogger()))
	url, stop, err := serveOn(rt.Serve)
	if err != nil {
		t.stop()
		return nil, err
	}
	t.url = url
	t.stops = append(t.stops, stop)
	return t, nil
}

// shardImbalance is max/mean live tables per shard.
func (t *topology) shardImbalance() float64 {
	total, most := 0, 0
	for _, a := range t.asn {
		total += a.Tables
		most = max(most, a.Tables)
	}
	if total == 0 {
		return 0
	}
	return float64(most) * float64(len(t.asn)) / float64(total)
}

// caller is the load generator's HTTP side: one keep-alive connection
// per client.
type caller struct{ hc *http.Client }

func newCaller(clients int) *caller {
	tr := &http.Transport{MaxIdleConns: clients, MaxIdleConnsPerHost: clients}
	return &caller{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *caller) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and the whole body.
func (c *caller) do(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// call is do for requests that must answer 200 with a JSON body.
func (c *caller) call(ctx context.Context, method, url string, body []byte, out any) error {
	status, raw, err := c.do(ctx, method, url, body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, url, status, bytes.TrimSpace(raw))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}
