package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	webtable "repro"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/feature"
	"repro/internal/lemmaindex"
	"repro/internal/obs"
	"repro/internal/searchidx"
	"repro/internal/segment"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/table"
	"repro/internal/text"
	"repro/internal/worldgen"
)

// The traced run replays a fixed prefix of a workload's operations one
// at a time — nothing runs beside the operation being traced — and
// emits every per-layer metric of BENCHMARK.json. A layer the workload
// does not cross reports 0: ingest never searches, serve-single never
// annotates after set-up. End-to-end metrics never come from here.

// perLayer names every metric of the traced run, so that each workload
// reports the same set.
var perLayer = []string{
	"text.normalize_ns_per_cell",
	"lemmaindex.build_ms", "lemmaindex.probe_us_per_cell", "lemmaindex.candidates_per_cell",
	"feature.phi_ns_per_call",
	"core.annotate_ms_per_table", "core.annotate_cells_per_s",
	"core.annotate_simple_ms_per_table", "core.annotate_majority_ms_per_table",
	"factorgraph.bp_ms_per_table",
	"table.decode_us_per_table",
	"searchidx.build_ms_per_ktables",
	"segment.add_ms_per_batch", "segment.remove_us", "segment.compact_ms",
	"segment.compactions", "segment.segments_end", "segment.tombstones_end",
	"search.point_us", "search.broad_us", "search.baseline_us", "search.type_us", "search.typerel_us",
	"search.plan_us", "search.scan_us", "search.aggregate_us", "search.select_us", "search.explain_us",
	"search.rows_scanned_per_query", "search.candidate_pairs_per_query", "search.pairs_matched_share", "search.answers_per_query",
	"search.serial_us", "search.parallel_us", "search.partial_us", "search.merge_us",
	"snapshot.save_ms", "snapshot.load_ms",
	"server.decode_us", "server.encode_us", "server.response_bytes", "server.handler_self_us", "server.hop_us",
	"dist.encode_us", "dist.decode_us", "dist.wire_bytes_per_query", "dist.router_self_us",
	"dist.retries", "dist.failures", "dist.shard_imbalance",
	"obs.scrape_ms",
	"bench.mutation_ms", "bench.untraced_op_us", "bench.traced_op_us", "bench.trace_residual_pct",
}

// layerMetrics turns the recorded spans and counts into the metrics.
// untracedUS is the mean latency of the same operations sent over HTTP
// by one client before any of them was traced; root names their
// outermost span.
func (h *harness) layerMetrics(root string, untracedUS float64) {
	clear(h.res.Metrics) // what set-up reported belongs to the untraced run
	clear(h.res.Samples)
	for _, name := range perLayer {
		h.metric(name, 0, 0)
	}
	st, c := h.tr.stats(), h.tr.counts
	per := func(total float64, n float64) float64 {
		if n == 0 {
			return 0
		}
		return total / n
	}
	set := func(name string, v float64, n int) {
		if n > 0 {
			h.metric(name, v, n)
		}
	}
	meanUS := func(metric, span string) { set(metric, st[span].meanUS(), st[span].n) }
	meanMS := func(metric, span string) { set(metric, st[span].meanUS()/1e3, st[span].n) }

	cells, tables := c["cells"], int(c["tables"])
	set("text.normalize_ns_per_cell", per(float64(st["text.normalize"].total), cells), int(cells))
	meanMS("lemmaindex.build_ms", "lemmaindex.build")
	set("lemmaindex.probe_us_per_cell", per(float64(st["lemmaindex.probe"].total)/1e3, cells), int(cells))
	set("lemmaindex.candidates_per_cell", per(c["candidates"], cells), int(cells))
	set("feature.phi_ns_per_call", per(float64(st["feature.phi"].total), c["phi_calls"]), int(c["phi_calls"]))
	meanMS("core.annotate_ms_per_table", "core.annotate")
	set("core.annotate_cells_per_s", per(cells*1e9, float64(st["core.annotate"].total)), tables)
	meanMS("core.annotate_simple_ms_per_table", "core.annotate_simple")
	meanMS("core.annotate_majority_ms_per_table", "core.annotate_majority")
	meanMS("factorgraph.bp_ms_per_table", "factorgraph.bp")
	set("table.decode_us_per_table", per(float64(st["table.decode"].total)/1e3, c["decoded_tables"]), int(c["decoded_tables"]))
	set("searchidx.build_ms_per_ktables", per(float64(st["searchidx.build"].total)/1e6, c["indexed_tables"]/1000), int(c["indexed_tables"]))
	meanMS("segment.add_ms_per_batch", "segment.add")
	meanUS("segment.remove_us", "segment.remove")
	meanMS("segment.compact_ms", "segment.compact")
	for _, name := range []string{"segment.compactions", "segment.segments_end", "segment.tombstones_end",
		"dist.retries", "dist.failures", "dist.shard_imbalance"} {
		if v, ok := c[name]; ok {
			h.metric(name, v, 1)
		}
	}

	queries := c["queries"]
	for _, class := range []string{"point", "broad", "baseline", "type", "typerel"} {
		meanUS("search."+class+"_us", "search.execute_"+class)
	}
	for _, stage := range []string{"plan", "scan", "aggregate", "select", "explain"} {
		set("search."+stage+"_us", per(float64(st["search."+stage].total)/1e3, queries), int(queries))
	}
	set("search.rows_scanned_per_query", per(c["rows_scanned"], queries), int(queries))
	set("search.candidate_pairs_per_query", per(c["candidate_pairs"], queries), int(queries))
	set("search.pairs_matched_share", per(c["pairs_matched"], c["candidate_pairs"]), int(c["candidate_pairs"]))
	set("search.answers_per_query", per(c["answers"], queries), int(queries))
	meanUS("search.serial_us", "search.serial")
	meanUS("search.parallel_us", "search.parallel")
	meanUS("search.partial_us", "search.partial")
	meanUS("search.merge_us", "search.merge")
	meanMS("snapshot.save_ms", "snapshot.save")
	meanMS("snapshot.load_ms", "snapshot.load")
	meanUS("server.decode_us", "server.decode")
	meanUS("server.encode_us", "server.encode")
	set("server.response_bytes", per(c["response_bytes"], queries), int(queries))
	set("server.handler_self_us", st["server.handler"].meanSelfUS(), st["server.handler"].n)
	set("server.hop_us", st["bench.search_roundtrip"].meanSelfUS(), st["server.handler"].n)
	meanUS("dist.encode_us", "dist.encode")
	meanUS("dist.decode_us", "dist.decode")
	set("dist.wire_bytes_per_query", per(c["wire_bytes"], queries), int(queries))
	set("dist.router_self_us", st["bench.routed_roundtrip"].meanSelfUS(), st["bench.routed_roundtrip"].n)
	meanMS("obs.scrape_ms", "obs.scrape")
	meanMS("bench.mutation_ms", "bench.mutation")

	ops := st[root].n
	modelled := h.tr.modelledUS(root)
	set("bench.untraced_op_us", untracedUS, ops)
	set("bench.traced_op_us", modelled, ops)
	if untracedUS > 0 {
		residual := 100 * (untracedUS - modelled) / untracedUS
		if residual < 0 {
			residual = -residual
		}
		set("bench.trace_residual_pct", residual, ops)
		if residual > 25 {
			h.res.Notes["warning_trace_residual_over_25_pct"] = residual
		}
	}
}

// --- search, traced from the outside in ---

// noteClass files an execution's time under its request class (point or
// broad) and, for a point request, its mode.
func (h *harness) noteClass(op int, rq *requests, idx int, d time.Duration) {
	if rq.broad[idx] {
		h.tr.add(op, probeSpan, "search", "execute_broad", 0, int64(d))
		return
	}
	h.tr.add(op, probeSpan, "search", "execute_point", 0, int64(d))
	h.tr.add(op, probeSpan, "search", "execute_"+searchModes[rq.mode[idx]], 0, int64(d))
}

// noteStats records what one execution scanned and puts its stages
// under the span that ran it.
func (h *harness) noteStats(under int, s *webtable.SearchExecStats) {
	c := h.tr.counts
	c["queries"]++
	c["rows_scanned"] += float64(s.RowsScanned)
	c["candidate_pairs"] += float64(s.CandidatePairs)
	c["pairs_matched"] += float64(s.PairsMatched)
	c["answers"] += float64(s.AnswersBeforeTopK)
	if under == 0 {
		return
	}
	l := h.tr.under(under, 1)
	l.put("search", "validate", time.Duration(s.Stage.Validate))
	l.put("search", "plan", time.Duration(s.Stage.Plan))
	l.put("search", "scan", time.Duration(s.Stage.Scan))
	l.put("search", "aggregate", time.Duration(s.Stage.Aggregate))
	l.put("search", "select", time.Duration(s.Stage.Select))
	l.put("search", "explain", time.Duration(s.Stage.Explain))
}

// traceSearch traces one search against a single node: the request over
// loopback, then the handler alone, then what the handler calls.
func (h *harness) traceSearch(op int, top *topology, rq *requests, idx int) {
	body := rq.bodies[idx]
	// Sent once unrecorded first: the yardstick's requests follow each
	// other without a pause, and after the milliseconds the inner layers
	// of the previous operation took, the server's goroutines are parked
	// and a request costs ~0.3 ms more.
	h.call.do(h.ctx, http.MethodPost, top.url+"/v1/search", body)
	root := h.tr.timed(op, 0, "bench", "search_roundtrip", func() {
		status, _, err := h.call.do(h.ctx, http.MethodPost, top.url+"/v1/search", body)
		h.check(err == nil && status == http.StatusOK, "traced search %s: HTTP %d (%v)", body, status, err)
	})
	hd := h.tr.under(root, 1).run("server", "handler", func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body))
		top.srv.Handler().ServeHTTP(httptest.NewRecorder(), req)
	})
	in := h.tr.under(hd, 1)
	var req webtable.SearchRequest
	in.run("server", "decode", func() {
		var wr server.SearchRequest
		if err := server.DecodeJSON(bytes.NewReader(body), &wr); err == nil {
			req, _ = wr.Resolve(top.svc)
		}
	})
	var res *webtable.SearchResult
	d := clock(func() { res, _ = top.svc.Search(h.ctx, req) })
	if res == nil {
		return
	}
	ex := in.put("search", "execute", d)
	h.noteClass(op, rq, idx, d)
	h.noteStats(ex, res.Stats)
	in.run("server", "encode", func() {
		raw, _ := json.Marshal(server.ToSearchResponse(top.svc.Catalog(), res))
		h.tr.counts["response_bytes"] += float64(len(raw) + 1)
	})
}

// untracedSearches is the yardstick the trace is held against: the same
// requests, one client, nothing recorded but the total. It is taken
// before and after the traced replay and the two are averaged, because
// the sandbox's speed drifts by more between the two than tracing costs.
func (h *harness) untracedSearches(url string, rq *requests, n int) float64 {
	t0 := time.Now()
	for _, idx := range rq.seq[:n] {
		h.call.do(h.ctx, http.MethodPost, url+"/v1/search", rq.bodies[idx])
	}
	return float64(time.Since(t0).Microseconds()) / float64(n)
}

func (h *harness) probeSearches(name string, svc *webtable.Service, rq *requests, n int) {
	for op, idx := range rq.seq[:n] {
		h.tr.timed(op+1, probeSpan, "search", name, func() { libraryResponse(h.ctx, svc, rq.bodies[idx]) })
	}
}

// traceLoad runs LoadService's steps one by one over the snapshot, under
// a span as long as the real load took, and returns the store they make.
func (h *harness) traceLoad(c *corpus, loadS float64) (*segment.Store, error) {
	h.tr.add(0, probeSpan, "snapshot", "save", 0, int64(c.saveMS*1e6))
	root := h.tr.add(0, 0, "bench", "load", int64(time.Since(h.tr.t0)), int64(loadS*1e9))
	l := h.tr.under(root, 1)
	var snap *snapshot.Snapshot
	var err error
	l.run("snapshot", "load", func() { snap, err = snapshot.Load(bytes.NewReader(c.snap)) })
	if err != nil {
		return nil, err
	}
	cat, err := catalog.FromSnapshot(snap.Catalog)
	if err != nil {
		return nil, err
	}
	if err := cat.Freeze(); err != nil {
		return nil, err
	}
	l.run("lemmaindex", "build", func() { lemmaindex.Build(cat, lemmaindex.DefaultConfig()) })
	cfg := segment.Config{Policy: segment.DefaultCompactionPolicy(), Generation: snap.Generation}
	for _, sg := range snap.SegmentList() {
		var ix *searchidx.Index
		l.run("searchidx", "build", func() { ix, err = searchidx.BuildContext(h.ctx, cat, sg.Tables, sg.Anns) })
		if err != nil {
			return nil, err
		}
		h.tr.counts["indexed_tables"] += float64(len(sg.Tables))
		cfg.Seeds = append(cfg.Seeds, segment.Seed{ID: sg.ID, Index: ix, Dead: sg.Dead})
	}
	var st *segment.Store
	l.run("segment", "new", func() { st, err = segment.New(cat, cfg) })
	return st, err
}

func (h *harness) traceScrape(url string) {
	h.tr.timed(0, probeSpan, "obs", "scrape", func() {
		status, _, err := h.call.do(h.ctx, http.MethodGet, url+"/metrics", nil)
		h.check(err == nil && status == http.StatusOK, "GET /metrics: HTTP %d (%v)", status, err)
	})
}

func (h *harness) traceServe(e *serveEnv, ref *webtable.Service) error {
	store, err := h.traceLoad(e.c, e.top.loadS)
	if err != nil {
		return err
	}
	defer store.Close()
	n := min(h.z.traceSearches, len(e.rq.seq))
	switch h.res.Workload {
	case "serve-single":
		h.untracedSearches(e.top.url, e.rq, n) // warms the connection and the caches
		untraced := h.untracedSearches(e.top.url, e.rq, n)
		for op, idx := range e.rq.seq[:n] {
			h.traceSearch(op+1, e.top, e.rq, idx)
		}
		untraced = (untraced + h.untracedSearches(e.top.url, e.rq, n)) / 2
		// The same requests at scan parallelism 1 and nproc, each on a
		// service of its own and in a pass of its own: two copies of the
		// index scanned in turn would evict each other from the processor's
		// cache.
		for _, probe := range []struct {
			name string
			par  int
		}{{"serial", 1}, {"parallel", nproc()}} {
			svc, err := webtable.LoadService(h.ctx, bytes.NewReader(e.c.snap), webtable.WithSearchParallelism(probe.par))
			if err != nil {
				return err
			}
			h.probeSearches(probe.name, svc, e.rq, n)
			svc.Close()
		}
		h.traceScrape(e.top.url)
		h.layerMetrics("bench.search_roundtrip", untraced)
	case "serve-sharded":
		h.untracedSearches(e.top.url, e.rq, n)
		untraced := h.untracedSearches(e.top.url, e.rq, n)
		for op, idx := range e.rq.seq[:n] {
			if err := h.traceRouted(op+1, e, idx); err != nil {
				return err
			}
		}
		untraced = (untraced + h.untracedSearches(e.top.url, e.rq, n)) / 2
		var rs dist.RouterStatsResponse
		if err := h.call.call(h.ctx, http.MethodGet, e.top.url+"/v1/stats", nil, &rs); err != nil {
			return err
		}
		for _, s := range rs.Shards {
			h.tr.counts["dist.retries"] += float64(s.Retries)
			h.tr.counts["dist.failures"] += float64(s.Failures)
		}
		h.tr.counts["dist.shard_imbalance"] = e.top.shardImbalance()
		h.check(h.tr.counts["dist.retries"] == 0 && h.tr.counts["dist.failures"] == 0 && e.top.shardImbalance() <= 1.05,
			"router saw %v retries, %v failures; shard imbalance %.3f", h.tr.counts["dist.retries"], h.tr.counts["dist.failures"], e.top.shardImbalance())
		h.traceScrape(e.top.url)
		h.layerMetrics("bench.routed_roundtrip", untraced)
	case "serve-mixed":
		return h.traceMixed(e, store)
	}
	return nil
}

// traceRouted traces one search through the router: the request over
// loopback, then each shard's part side by side, then the gather.
func (h *harness) traceRouted(op int, e *serveEnv, idx int) error {
	body := e.rq.bodies[idx]
	h.call.do(h.ctx, http.MethodPost, e.top.url+"/v1/search", body) // as in traceSearch
	root := h.tr.timed(op, 0, "bench", "routed_roundtrip", func() {
		status, _, err := h.call.do(h.ctx, http.MethodPost, e.top.url+"/v1/search", body)
		h.check(err == nil && status == http.StatusOK, "traced routed search %s: HTTP %d (%v)", body, status, err)
	})
	var wr server.SearchRequest
	if err := server.DecodeJSON(bytes.NewReader(body), &wr); err != nil {
		return err
	}
	n := len(e.top.shards)
	// One lane per shard: the gather waits for the slower one.
	type part struct {
		decode, partial, encode, decodePartial time.Duration
		p                                      *dist.Partial
	}
	parts := make([]part, n)
	groups := make([][]webtable.PartialGroup, n)
	stats := make([]webtable.SearchExecStats, n)
	for i, svc := range e.top.shards {
		var req webtable.SearchRequest
		var err error
		parts[i].decode = clock(func() {
			var w2 server.SearchRequest
			if err = server.DecodeJSON(bytes.NewReader(body), &w2); err == nil {
				req, err = w2.Resolve(svc)
			}
		})
		if err != nil {
			return err
		}
		var st *webtable.SearchExecStats
		parts[i].partial = clock(func() { groups[i], st, err = svc.SearchPartial(h.ctx, req, e.top.asn[i].TableOffset) })
		if err != nil {
			return err
		}
		stats[i] = *st
		var payload []byte
		parts[i].encode = clock(func() {
			payload = dist.EncodePartial(&dist.Partial{Generation: 1, Shard: i, Shards: n, Stats: *st, Groups: groups[i]})
		})
		h.tr.counts["wire_bytes"] += float64(len(payload))
		parts[i].decodePartial = clock(func() { parts[i].p, err = dist.DecodePartial(payload) })
		if err != nil {
			return err
		}
	}
	l := h.tr.under(root, n)
	for i := range parts {
		l.putIn(i, "server", "decode", parts[i].decode)
		sp := h.tr.under(l.putIn(i, "search", "partial", parts[i].partial), 1)
		sp.put("search", "validate", time.Duration(stats[i].Stage.Validate))
		sp.put("search", "plan", time.Duration(stats[i].Stage.Plan))
		sp.put("search", "scan", time.Duration(stats[i].Stage.Scan))
		l.putIn(i, "dist", "encode", parts[i].encode)
		l.putIn(i, "dist", "decode", parts[i].decodePartial)
	}
	l.join()
	var res *webtable.SearchResult
	var err error
	mg := l.run("search", "merge", func() {
		res, err = webtable.MergeSearchPartials(groups, stats, wr.PageSize, wr.Cursor, wr.Explain)
	})
	if err != nil {
		return err
	}
	h.noteStats(0, res.Stats)
	ml := h.tr.under(mg, 1)
	ml.put("search", "aggregate", time.Duration(res.Stats.Stage.Aggregate))
	ml.put("search", "select", time.Duration(res.Stats.Stage.Select))
	ml.put("search", "explain", time.Duration(res.Stats.Stage.Explain))
	slowest := parts[0].partial
	for _, p := range parts {
		slowest = max(slowest, p.partial)
	}
	h.noteClass(op, e.rq, idx, slowest)
	l.run("server", "encode", func() {
		raw, _ := json.Marshal(server.ToSearchResponse(e.c.world.Public, res))
		h.tr.counts["response_bytes"] += float64(len(raw) + 1)
	})
	return nil
}

// --- annotation and the live corpus, traced from the outside in ---

// annotateLayers traces the annotation of one table on lay and returns
// the annotation.
func (h *harness) annotateLayers(op int, lay *layout, ann *core.Annotator, ext *feature.Extractor, t *table.Table) *core.Annotation {
	var a *core.Annotation
	d := clock(func() { a, _ = ann.AnnotateCollectiveContext(h.ctx, t) })
	simple := clock(func() { ann.AnnotateSimpleContext(h.ctx, t) })
	majority := clock(func() { ann.AnnotateMajority(t) })
	normalize := clock(func() {
		for _, row := range t.Cells {
			for _, cell := range row {
				text.Tokenize(text.Normalize(cell))
			}
		}
	})
	cands := 0
	probe := clock(func() {
		for _, row := range t.Cells {
			for _, cell := range row {
				cands += len(ann.Index().CandidateEntities(cell))
			}
		}
	})
	c := h.tr.counts
	c["tables"]++
	c["cells"] += float64(t.Rows() * t.Cols())
	c["candidates"] += float64(cands)

	id := lay.put("core", "annotate", d)
	in := h.tr.under(id, 1)
	pr := in.put("lemmaindex", "probe", min(probe, simple))
	h.tr.under(pr, 1).put("text", "normalize", min(normalize, probe))
	in.put("factorgraph", "bp", max(0, d-simple))
	h.tr.add(op, probeSpan, "core", "annotate_simple", 0, int64(simple))
	h.tr.add(op, probeSpan, "core", "annotate_majority", 0, int64(majority))

	// The potentials message passing reads, on the labels it settled on.
	w := ann.Weights()
	calls := 0
	phi := clock(func() {
		for col, ty := range a.ColumnTypes {
			if ty == catalog.None {
				continue
			}
			for r := range a.CellEntities {
				if ent := a.CellEntities[r][col]; ent != catalog.None {
					ext.LogPhi3(&w, ty, ent)
					calls++
				}
			}
		}
		for _, rel := range a.Relations {
			rd := feature.RelDir{Relation: rel.Relation, Forward: rel.Forward}
			ext.LogPhi4(&w, rd, a.ColumnTypes[rel.Col1], a.ColumnTypes[rel.Col2])
			calls++
			for r := range a.CellEntities {
				e1, e2 := a.CellEntities[r][rel.Col1], a.CellEntities[r][rel.Col2]
				if e1 != catalog.None && e2 != catalog.None {
					ext.LogPhi5(&w, rd, e1, e2)
					calls++
				}
			}
		}
	})
	h.tr.add(op, probeSpan, "feature", "phi", 0, int64(phi))
	c["phi_calls"] += float64(calls)
	return a
}

// traceAdd traces what POST /v1/tables does with one batch — decode,
// annotate on the worker pool, index and swap — under root, adding the
// batch to store. It returns the layout, for what the operation does
// next.
func (h *harness) traceAdd(op, root, workers int, ann *core.Annotator, ext *feature.Extractor, store *segment.Store, batch []worldgen.LabeledTable) (*layout, error) {
	l := h.tr.under(root, 1)
	tabs := tablesOf(batch)
	var enc bytes.Buffer
	if err := table.WriteCorpus(&enc, tabs); err != nil {
		return nil, err
	}
	l.run("table", "decode", func() { table.ReadCorpus(bytes.NewReader(enc.Bytes())) })
	h.tr.counts["decoded_tables"] += float64(len(tabs))

	l.fan(min(workers, len(tabs))) // AnnotateCorpus spreads the batch over the service's worker pool
	anns := make([]*core.Annotation, len(tabs))
	for i, t := range tabs {
		anns[i] = h.annotateLayers(op, l, ann, ext, t)
	}
	l.join()

	var err error
	add := l.run("segment", "add", func() { _, err = store.Add(h.ctx, tabs, anns) })
	if err != nil {
		return nil, err
	}
	h.tr.under(add, 1).run("searchidx", "build", func() { searchidx.BuildContext(h.ctx, store.View().Catalog(), tabs, anns) })
	h.tr.counts["indexed_tables"] += float64(len(tabs))
	return l, nil
}

func (h *harness) traceIngest(e *ingestEnv) error {
	svc := e.top.svc
	ann := svc.Annotator()
	ext := feature.NewExtractor(svc.Catalog(), ann.Index(), ann.Config().Mode)
	h.tr.timed(0, probeSpan, "lemmaindex", "build", func() { lemmaindex.Build(svc.Catalog(), lemmaindex.DefaultConfig()) })
	store, err := segment.New(svc.Catalog(), segment.Config{Policy: segment.DefaultCompactionPolicy()})
	if err != nil {
		return err
	}
	defer store.Close()

	batches := min(h.z.traceTables/h.z.batch, len(e.fresh.bodies))
	// The yardstick: the same batches posted to a node of their own.
	plain, err := startSingle(h.ctx, svc.Catalog(), nil, "", h.workers)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for i := 0; i < batches; i++ {
		if err := h.call.call(h.ctx, http.MethodPost, plain.url+"/v1/tables", e.fresh.bodies[i], nil); err != nil {
			plain.stop()
			return err
		}
	}
	untraced := float64(time.Since(t0).Microseconds()) / float64(batches)
	plain.stop()

	for i := 0; i < batches; i++ {
		root := h.tr.timed(i+1, 0, "bench", "add_roundtrip", func() {
			err = h.call.call(h.ctx, http.MethodPost, e.top.url+"/v1/tables", e.fresh.bodies[i], nil)
		})
		if err != nil {
			return err
		}
		if _, err := h.traceAdd(i+1, root, svc.Workers(), ann, ext, store, e.fresh.tables[i]); err != nil {
			return err
		}
	}
	var saved bytes.Buffer
	h.tr.timed(0, probeSpan, "snapshot", "save", func() { err = svc.SaveSnapshot(h.ctx, &saved) })
	if err != nil {
		return err
	}
	h.tr.timed(0, probeSpan, "snapshot", "load", func() { snapshot.Load(&saved) })
	h.traceCompact(svc)
	h.traceScrape(e.top.url)
	h.layerMetrics("bench.add_roundtrip", untraced)
	return nil
}

// traceCompact records where the compactor left the corpus, then forces
// a full compaction.
func (h *harness) traceCompact(svc *webtable.Service) {
	stats, _ := svc.CorpusStats()
	h.tr.counts["segment.segments_end"] = float64(stats.Segments)
	h.tr.counts["segment.tombstones_end"] = float64(stats.Tombstones)
	h.tr.timed(0, probeSpan, "segment", "compact", func() { svc.Compact(h.ctx) })
	h.tr.counts["segment.compactions"] = compactionSteps() - h.tr.compactions0
}

// compactionSteps reads the process-wide segment_compaction_steps_total
// family, every step kind summed.
func compactionSteps() float64 {
	var page bytes.Buffer
	obs.Default().WritePrometheus(&page)
	steps := 0.0
	for _, line := range strings.Split(page.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "segment_compaction_steps_total{"); ok {
			var v float64
			if _, after, ok := strings.Cut(rest, "} "); ok && json.Unmarshal([]byte(after), &v) == nil {
				steps += v
			}
		}
	}
	return steps
}

// traceMixed replays serve-mixed's ticks one operation at a time: the
// batch, the deletes, then a run of searches over the corpus as the
// tick left it.
func (h *harness) traceMixed(e *serveEnv, store *segment.Store) error {
	svc := e.top.svc
	ann := svc.Annotator()
	ext := feature.NewExtractor(svc.Catalog(), ann.Index(), ann.Config().Mode)
	ticks := min(h.z.traceTicks, len(e.fresh.bodies))
	perTick := h.z.traceSearches / max(ticks, 1) / 4
	h.untracedSearches(e.top.url, e.rq, perTick*ticks)
	untraced := h.untracedSearches(e.top.url, e.rq, perTick*ticks)
	op := 0
	for n := 0; n < ticks; n++ {
		op++
		ok := true
		root := h.tr.timed(op, 0, "bench", "mutation", func() { ok = h.mutate(e, n) })
		if !ok {
			return nil
		}
		l, err := h.traceAdd(op, root, svc.Workers(), ann, ext, store, e.fresh.tables[n])
		if err != nil {
			return err
		}
		if n >= h.z.lag {
			for _, lt := range e.fresh.tables[n-h.z.lag] {
				var err error
				l.run("segment", "remove", func() { _, err = store.Remove([]string{lt.Table.ID}) })
				if err != nil {
					return err
				}
			}
		}
		for k := 0; k < perTick; k++ {
			op++
			h.traceSearch(op, e.top, e.rq, e.rq.seq[(n*perTick+k)%len(e.rq.seq)])
		}
	}
	untraced = (untraced + h.untracedSearches(e.top.url, e.rq, perTick*ticks)) / 2
	h.traceCompact(svc)
	h.traceScrape(e.top.url)
	h.layerMetrics("bench.search_roundtrip", untraced)
	return nil
}
