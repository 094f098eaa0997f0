// Command tabshard serves one shard of a snapshot's corpus: it loads
// the shard's slice of the segment manifest (a deterministic,
// live-table-balanced partition every process derives identically from
// the same snapshot file) and answers partial-evidence queries for a
// scatter-gather router (`tabserved -shards ...`).
//
// A shard is a read replica: it never mutates the corpus, and an
// N-shard cluster pays roughly 1/N of a full load's index memory per
// process. Start one tabshard per slot, all from the same snapshot:
//
//	tabshard -load corpus.snap -shard 0 -shards 2 -addr :9101
//	tabshard -load corpus.snap -shard 1 -shards 2 -addr :9102
//	tabserved -shards localhost:9101,localhost:9102 -addr :8080
//
// Endpoints: GET /v1/stream (Upgrade: wtpart-stream/1 — the router's
// persistent framed stream: one request frame in, one response frame out,
// carrying what POST /v1/partial does), POST /v1/partial (the same
// binary partial evidence over plain HTTP, for curl and operators), GET
// /v1/healthz, GET /v1/stats (which segments/tables this shard owns),
// GET /metrics (Prometheus text exposition), GET /v1/traces and
// /v1/traces/{id} (recent per-stage span trees). SIGINT/SIGTERM drain
// gracefully: HTTP requests and streams alike — idle streams are closed,
// a frame being executed is answered first.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cmdio"
	"repro/internal/dist"
	"repro/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "tabshard: %v\n", err)
		os.Exit(1)
	}
}

var errUsage = errors.New("need -load, and -shard in [0, -shards)")

// listenHook, when non-nil, receives the bound listener address before
// serving starts. It is a test seam: -addr :0 picks a free port and the
// test needs to learn which.
var listenHook func(net.Addr)

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tabshard", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr    = fs.String("addr", ":9100", "listen address")
		load    = fs.String("load", "", "corpus snapshot to serve a shard of: only the manifest and this shard's segment sections are read")
		shard   = fs.Int("shard", 0, "this process's shard index, in [0, -shards)")
		shards  = fs.Int("shards", 1, "total shard count in the cluster")
		workers = fs.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS); bounds search concurrency")
		timeout = fs.Duration("timeout", 30*time.Second, "per-request handling deadline")
		drain   = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline")
		slowLog = fs.Duration("slow-query-log", 0, "log the full span tree of any request at least this slow (0 = disabled)")
		pprofAt = fs.String("pprof", "", "serve net/http/pprof on this loopback address (e.g. 127.0.0.1:6061; empty = disabled)")
		version = fs.Bool("version", false, "print build information and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(stdout, cmdio.BuildInfo("tabshard"))
		return nil
	}
	if *load == "" || *shard < 0 || *shards < 1 || *shard >= *shards {
		fs.Usage()
		return errUsage
	}

	logger := cmdio.NewLogger(stderr)
	logger.Info("starting", "build", cmdio.BuildInfo("tabshard"),
		"shard", *shard, "shards", *shards, "workers", *workers)

	if *pprofAt != "" {
		closePprof, err := obs.ServePprof(*pprofAt, logger)
		if err != nil {
			return err
		}
		defer closePprof()
	}

	start := time.Now()
	svc, asn, err := cmdio.LoadSnapshotShardService(ctx, *load, *shard, *shards, *workers)
	if err != nil {
		return err
	}
	defer svc.Close()
	stats, _ := svc.CorpusStats()
	logger.Info("shard loaded", "path", *load,
		"segments", asn.Segments(), "tables", asn.Tables, "table_offset", asn.TableOffset,
		"generation", stats.Generation, "took", time.Since(start).Round(time.Millisecond))

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if listenHook != nil {
		listenHook(ln.Addr())
	}
	logger.Info("tabshard listening", "addr", ln.Addr().String(),
		"shard", *shard, "shards", *shards, "workers", svc.Workers(), "timeout", *timeout)
	fmt.Fprintf(stdout, "tabshard: listening on %s\n", ln.Addr().String())

	opts := []dist.Option{
		dist.WithLogger(logger),
		dist.WithTimeout(*timeout),
		dist.WithDrainTimeout(*drain),
	}
	if *slowLog > 0 {
		opts = append(opts, dist.WithSlowQueryLog(*slowLog))
	}
	srv := dist.NewShardServer(svc, asn, *shard, *shards, opts...)
	if err := srv.Serve(ctx, ln); err != nil {
		return err
	}
	logger.Info("tabshard stopped")
	return nil
}
