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
// With -shard i/n, tabserved serves slice i of n of a -load snapshot
// to a router instead: the slice is a deterministic, live-table-balanced
// partition of the segment manifest that every process derives
// identically from the same file, so an n-shard cluster pays roughly 1/n
// of a full load's index memory per process. A shard never mutates its
// corpus. Its endpoints: GET /v1/stream (Upgrade: wtpart-stream/1, the
// router's persistent framed stream), POST /v1/partial (the same binary
// partial evidence over plain HTTP), GET /v1/healthz, GET /v1/stats
// (which segments and tables the shard owns), GET /metrics and
// GET /v1/traces.
//
// With -shards, tabserved runs as the stateless scatter-gather router of
// such a cluster: it loads no corpus, fans POST /v1/search out to every
// shard, and merges the partial evidence into pages byte-identical to a
// single node serving the whole snapshot. Router endpoints: POST
// /v1/search, GET /v1/healthz (green only when every shard is), GET
// /v1/stats (per-shard request/retry counters and fan-out latency
// percentiles), GET /metrics and GET /v1/traces.
//
// Usage:
//
//	tabserved -load corpus.snap -addr :8080
//	tabserved -catalog data/catalog.json -corpus data/corpus.json -snapshot corpus.snap
//	tabserved -load corpus.snap -shard 0/2 -addr :9101
//	tabserved -load corpus.snap -shard 1/2 -addr :9102
//	tabserved -shards localhost:9101,localhost:9102 -addr :8080
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
	"strconv"
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

var errUsage = errors.New("need exactly one corpus source: -load, -catalog with -corpus, or -shards; " +
	"-shard i/n (0 <= i < n) only with -load; -snapshot not with -shard or -shards")

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
		shard   = fs.String("shard", "", "i/n: serve slice i of n of the -load snapshot as shard i of an n-shard cluster, for a -shards router; only the manifest and this slice's segment sections are read")
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
	slot, count, slotOK := 0, 1, true
	if *shard != "" {
		slot, count, slotOK = parseShard(*shard)
	}
	if sources != 1 || !slotOK || (*shard != "" && *load == "") ||
		(*snap != "" && (*shard != "" || *shards != "")) {
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

	if *snap == "" {
		*snap = *load
	}
	srvOpts := []server.Option{
		server.WithLogger(logger),
		server.WithTimeout(*timeout),
		server.WithDrainTimeout(*drain),
	}
	if *snap != "" {
		srvOpts = append(srvOpts, server.WithSnapshotPath(*snap))
	}
	if *slowLog > 0 {
		srvOpts = append(srvOpts, server.WithSlowQueryLog(*slowLog))
	}
	distOpts := []dist.Option{
		dist.WithLogger(logger),
		dist.WithTimeout(*timeout),
		dist.WithDrainTimeout(*drain),
	}
	if *slowLog > 0 {
		distOpts = append(distOpts, dist.WithSlowQueryLog(*slowLog))
	}
	var srv interface {
		Serve(context.Context, net.Listener) error
	}
	switch {
	case *shards != "":
		urls, err := shardURLs(*shards)
		if err != nil {
			return err
		}
		logger.Info("router mode", "shards", len(urls), "shard_list", strings.Join(urls, ","))
		srv = dist.NewRouter(&dist.Client{URLs: urls}, distOpts...)
	case *load != "":
		start := time.Now()
		svc, asn, err := cmdio.LoadSnapshotService(ctx, *load, slot, count, *workers)
		if err != nil {
			return err
		}
		defer svc.Close()
		stats, _ := svc.CorpusStats()
		rb, _ := svc.ResidentBytes()
		logger.Info("snapshot loaded", "path", *load, "shard", slot, "shards", count,
			"tables", stats.Tables, "segments", stats.Segments, "table_offset", asn.TableOffset,
			"generation", stats.Generation, "workers", svc.Workers(),
			"resident_bytes", rb.Cells+rb.Dictionaries+rb.Postings+rb.Tables,
			"took", time.Since(start).Round(time.Millisecond))
		if *shard != "" {
			srv = dist.NewShardServer(svc, asn, slot, count, distOpts...)
		} else {
			srv = server.New(svc, srvOpts...)
		}
	default:
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
		svc, err := cmdio.NewService(cat, *workers)
		if err != nil {
			return err
		}
		defer svc.Close() // stop the background segment compactor
		start := time.Now()
		logger.Info("annotating corpus at startup", "tables", len(tables), "workers", svc.Workers(), "method", m.String())
		if _, err := svc.BuildIndex(ctx, tables, webtable.WithMethod(m)); err != nil {
			return fmt.Errorf("build index: %w", err)
		}
		logger.Info("corpus indexed", "tables", len(tables), "took", time.Since(start).Round(time.Millisecond))
		srv = server.New(svc, srvOpts...)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if listenHook != nil {
		listenHook(ln.Addr())
	}
	logger.Info("tabserved listening", "addr", ln.Addr().String(), "timeout", *timeout)
	fmt.Fprintf(stdout, "tabserved: listening on %s\n", ln.Addr().String())
	if err := srv.Serve(ctx, ln); err != nil {
		return err
	}
	logger.Info("tabserved stopped")
	return nil
}

// parseShard parses -shard's "i/n", the whole value: slot i of an
// n-shard cluster, with 0 <= i < n.
func parseShard(v string) (slot, count int, ok bool) {
	is, ns, found := strings.Cut(v, "/")
	slot, errSlot := strconv.Atoi(is)
	count, errCount := strconv.Atoi(ns)
	return slot, count, found && errSlot == nil && errCount == nil && 0 <= slot && slot < count
}

// shardURLs turns -shards' comma-separated addresses into base URLs.
func shardURLs(list string) ([]string, error) {
	var urls []string
	for _, s := range strings.Split(list, ",") {
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
		return nil, fmt.Errorf("-shards lists no addresses")
	}
	return urls, nil
}
