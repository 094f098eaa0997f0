// Command tabserved serves an annotated table corpus over JSON HTTP: the
// deployable form of the search application (§7 — user queries run
// against materialized annotation indices, not against raw tables).
//
// The corpus comes from either a snapshot written by `tabann -save` /
// `tabsearch -save` (the fast path: the search index is rebuilt from
// stored annotations, no annotation runs), or a catalog + corpus pair
// annotated once at startup.
//
// The corpus served is live: POST /v1/tables annotates and indexes new
// tables into a fresh index segment (the existing corpus is never
// re-annotated), DELETE /v1/tables/{id} tombstones one, a background
// compactor merges small segments, and POST /v1/snapshot persists the
// updated corpus to the -snapshot path (default: the -load path) so a
// restart resumes it.
//
// Endpoints: POST /v1/search, POST /v1/search:batch, POST /v1/annotate,
// POST /v1/tables, DELETE /v1/tables/{id}, POST /v1/snapshot,
// GET /v1/healthz, GET /v1/stats, GET /metrics (Prometheus text
// exposition), GET /v1/traces (recent per-stage span trees).
// SIGINT/SIGTERM shut down gracefully, draining in-flight requests.
//
// With -shards, tabserved instead runs as the stateless scatter-gather
// router of a shard cluster (see cmd/tabshard): it loads no corpus,
// fans POST /v1/search out to every shard, and merges the partial
// evidence into pages byte-identical to a single node serving the whole
// snapshot. Router endpoints: POST /v1/search, GET /v1/healthz (green
// only when every shard is), GET /v1/stats (per-shard request/retry
// counters and fan-out latency percentiles), GET /metrics and
// GET /v1/traces.
//
// Usage:
//
//	tabserved -load corpus.snap -addr :8080
//	tabserved -catalog data/catalog.json -corpus data/corpus.json -snapshot corpus.snap
//	tabserved -shards localhost:9101,localhost:9102 -addr :8080
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	webtable "repro"
	"repro/internal/cmdio"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "tabserved: %v\n", err)
		os.Exit(1)
	}
}

var errUsage = errors.New("need exactly one corpus source: -load, -catalog with -corpus, or -shards")

// listenHook, when non-nil, receives the bound listener address before
// serving starts. It is a test seam: -addr :0 picks a free port and the
// test needs to learn which.
var listenHook func(net.Addr)

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tabserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr    = fs.String("addr", ":8080", "listen address")
		load    = fs.String("load", "", "corpus snapshot to serve (annotate once, serve many): every segment is decoded from its own checksummed section, no re-annotation and no index rebuild; only the current WTSNAP format version loads")
		catPath = fs.String("catalog", "", "catalog JSON path (with -corpus: annotate at startup)")
		corpus  = fs.String("corpus", "", "table corpus JSON path")
		method  = fs.String("method", "collective", "startup annotation inference: collective|simple|lca|majority")
		workers = fs.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS); bounds annotation and search concurrency")
		timeout = fs.Duration("timeout", 30*time.Second, "per-request handling deadline")
		drain   = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline")
		snap    = fs.String("snapshot", "", "path POST /v1/snapshot persists the live corpus to, in the current WTSNAP format version (default: the -load path)")
		shards  = fs.String("shards", "", "comma-separated shard addresses; run as the cluster's scatter-gather router instead of serving a corpus")
		slowLog = fs.Duration("slow-query-log", 0, "log the full span tree of any request at least this slow (0 = disabled)")
		pprofAt = fs.String("pprof", "", "serve net/http/pprof on this loopback address (e.g. 127.0.0.1:6060; empty = disabled)")
		version = fs.Bool("version", false, "print build information and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(stdout, cmdio.BuildInfo("tabserved"))
		return nil
	}
	sources := 0
	if *load != "" {
		sources++
	}
	if *catPath != "" && *corpus != "" {
		sources++
	}
	if *shards != "" {
		sources++
	}
	if sources != 1 {
		fs.Usage()
		return errUsage
	}

	logger := cmdio.NewLogger(stderr)
	logger.Info("starting", "build", cmdio.BuildInfo("tabserved"), "workers", *workers)

	if *pprofAt != "" {
		closePprof, err := obs.ServePprof(*pprofAt, logger)
		if err != nil {
			return err
		}
		defer closePprof()
	}

	if *shards != "" {
		return runRouter(ctx, *shards, *addr, *timeout, *drain, *slowLog, logger, stdout)
	}

	var svc *webtable.Service
	if *load != "" {
		start := time.Now()
		var err error
		svc, err = cmdio.LoadSnapshotService(ctx, *load, *workers)
		if err != nil {
			return err
		}
		stats, _ := svc.CorpusStats()
		logger.Info("snapshot loaded", "path", *load, "tables", stats.Tables,
			"segments", stats.Segments, "generation", stats.Generation,
			"took", time.Since(start).Round(time.Millisecond))
		if *snap == "" {
			*snap = *load
		}
	} else {
		m, err := webtable.ParseMethod(*method)
		if err != nil {
			return err
		}
		cat, err := cmdio.LoadCatalog(*catPath)
		if err != nil {
			return err
		}
		tables, err := cmdio.LoadCorpus(*corpus)
		if err != nil {
			return err
		}
		svc, err = cmdio.NewService(cat, *workers)
		if err != nil {
			return err
		}
		start := time.Now()
		logger.Info("annotating corpus at startup", "tables", len(tables), "workers", svc.Workers(), "method", m.String())
		if _, err := svc.BuildIndex(ctx, tables, webtable.WithMethod(m)); err != nil {
			return fmt.Errorf("build index: %w", err)
		}
		logger.Info("corpus indexed", "tables", len(tables), "took", time.Since(start).Round(time.Millisecond))
	}
	defer svc.Close() // stop the background segment compactor

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if listenHook != nil {
		listenHook(ln.Addr())
	}
	logger.Info("tabserved listening", "addr", ln.Addr().String(),
		"workers", svc.Workers(), "timeout", *timeout)
	fmt.Fprintf(stdout, "tabserved: listening on %s\n", ln.Addr().String())

	opts := []server.Option{
		server.WithLogger(logger),
		server.WithTimeout(*timeout),
		server.WithDrainTimeout(*drain),
	}
	if *snap != "" {
		opts = append(opts, server.WithSnapshotPath(*snap))
	}
	if *slowLog > 0 {
		opts = append(opts, server.WithSlowQueryLog(*slowLog))
	}
	srv := server.New(svc, opts...)
	if err := srv.Serve(ctx, ln); err != nil {
		return err
	}
	logger.Info("tabserved stopped")
	return nil
}

// runRouter is the -shards mode: a stateless scatter-gather router over
// a tabshard cluster.
func runRouter(ctx context.Context, shardList, addr string, timeout, drain, slowLog time.Duration, logger *slog.Logger, stdout io.Writer) error {
	var urls []string
	for _, s := range strings.Split(shardList, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		if !strings.Contains(s, "://") {
			s = "http://" + s
		}
		urls = append(urls, strings.TrimRight(s, "/"))
	}
	if len(urls) == 0 {
		return fmt.Errorf("-shards lists no addresses")
	}
	logger.Info("router mode", "shards", len(urls), "shard_list", strings.Join(urls, ","))

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if listenHook != nil {
		listenHook(ln.Addr())
	}
	logger.Info("tabserved listening", "addr", ln.Addr().String(), "mode", "router",
		"shards", len(urls), "timeout", timeout)
	fmt.Fprintf(stdout, "tabserved: listening on %s\n", ln.Addr().String())

	ropts := []dist.Option{
		dist.WithLogger(logger),
		dist.WithTimeout(timeout),
		dist.WithDrainTimeout(drain),
	}
	if slowLog > 0 {
		ropts = append(ropts, dist.WithSlowQueryLog(slowLog))
	}
	rt := dist.NewRouter(&dist.Client{URLs: urls}, ropts...)
	if err := rt.Serve(ctx, ln); err != nil {
		return err
	}
	logger.Info("tabserved stopped")
	return nil
}
