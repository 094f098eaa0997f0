package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	webtable "repro"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/table"
	"repro/internal/worldgen"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// noSleep makes client retries instantaneous in tests.
func noSleep(context.Context, time.Duration) error { return nil }

// buildSnapshot annotates a multi-relation search corpus and returns
// the serialized snapshot plus the world (for workload generation).
func buildSnapshot(t testing.TB) ([]byte, *worldgen.World) {
	t.Helper()
	spec := worldgen.DefaultSpec()
	spec.FilmsPerGenre = 10
	spec.NovelsPerGenre = 8
	spec.PeoplePerRole = 12
	spec.AlbumCount = 15
	spec.CountryCount = 8
	spec.CitiesPerCountry = 2
	spec.LanguageCount = 6
	w, err := worldgen.Build(spec)
	if err != nil {
		t.Fatalf("build world: %v", err)
	}
	svc, err := webtable.NewService(w.Public, webtable.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ds := w.SearchCorpus(14, 7)
	tables := make([]*table.Table, len(ds.Tables))
	for i, lt := range ds.Tables {
		tables[i] = lt.Table
	}
	if _, err := svc.BuildIndex(context.Background(), tables); err != nil {
		t.Fatalf("build index: %v", err)
	}
	var buf bytes.Buffer
	if err := svc.SaveSnapshot(context.Background(), &buf); err != nil {
		t.Fatalf("save snapshot: %v", err)
	}
	return buf.Bytes(), w
}

// singleHandler serves the whole snapshot from one node — the byte
// reference every cluster configuration is diffed against.
func singleHandler(t testing.TB, snap []byte) http.Handler {
	t.Helper()
	svc, err := webtable.LoadService(context.Background(), bytes.NewReader(snap))
	if err != nil {
		t.Fatalf("load service: %v", err)
	}
	t.Cleanup(svc.Close)
	return server.New(svc, server.WithLogger(quietLogger())).Handler()
}

// swapHandler lets a test replace a live HTTP server's handler between
// requests — the seam for simulating a shard process restarting while
// its address stays stable.
type swapHandler struct {
	h atomic.Pointer[http.Handler]
}

func (s *swapHandler) Set(h http.Handler) { s.h.Store(&h) }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

// loadShardHandler builds one shard server over its slice of the
// snapshot.
func loadShardHandler(t testing.TB, snap []byte, shard, shards int) http.Handler {
	t.Helper()
	svc, asn, err := webtable.LoadServiceShard(context.Background(), bytes.NewReader(snap), shard, shards)
	if err != nil {
		t.Fatalf("load shard %d/%d: %v", shard, shards, err)
	}
	t.Cleanup(svc.Close)
	return NewShardServer(svc, asn, shard, shards, WithLogger(quietLogger())).Handler()
}

// cluster is a running shard cluster behind a router, with per-shard
// handler-swap seams.
type cluster struct {
	router *Router
	swaps  []*swapHandler
	urls   []string
}

// startCluster loads the snapshot into n shard processes, mounts them
// on real listeners, and fronts them with a router.
func startCluster(t testing.TB, snap []byte, n int) *cluster {
	t.Helper()
	c := &cluster{}
	for i := 0; i < n; i++ {
		sw := &swapHandler{}
		sw.Set(loadShardHandler(t, snap, i, n))
		ts := httptest.NewServer(sw)
		t.Cleanup(ts.Close)
		c.swaps = append(c.swaps, sw)
		c.urls = append(c.urls, ts.URL)
	}
	c.router = NewRouter(&Client{URLs: c.urls, sleepFn: noSleep}, WithLogger(quietLogger()))
	return c
}

// restartShard simulates shard i's process restarting: the old handler
// is torn away and a fresh one, loaded from the same snapshot, takes
// over at the same address.
func (c *cluster) restartShard(t testing.TB, snap []byte, shard int) {
	t.Helper()
	c.swaps[shard].Set(loadShardHandler(t, snap, shard, len(c.swaps)))
}

func post(t testing.TB, h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func get(t testing.TB, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// wireBody builds a wire search request for one workload query.
func wireBody(t testing.TB, w *worldgen.World, q worldgen.SearchQuery, extra map[string]any) []byte {
	t.Helper()
	m := map[string]any{
		"relation": q.RelationName,
		"t1":       w.True.TypeName(q.T1),
		"t2":       w.True.TypeName(q.T2),
		"e2":       q.E2Name,
	}
	for k, v := range extra {
		m[k] = v
	}
	body, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestClusterByteIdentical is the core acceptance check of the
// distributed design: the same corpus split across 1, 2 and 3 shards
// must answer every mode × page size × cursor chain × explanation
// byte-for-byte identically to a single node serving the whole
// snapshot. In the 2-shard configuration one shard "restarts" (its
// handler is rebuilt from the snapshot at the same address) between
// requests, which must be invisible.
func TestClusterByteIdentical(t *testing.T) {
	snap, w := buildSnapshot(t)
	single := singleHandler(t, snap)
	workload := w.SearchWorkload([]string{"directed", "actedIn"}, 1, 7)
	if len(workload) < 2 {
		t.Fatalf("workload too small: %d", len(workload))
	}

	for _, n := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			c := startCluster(t, snap, n)
			router := c.router.Handler()
			requests := 0
			for _, q := range workload {
				for _, mode := range []string{"baseline", "type", "typerel"} {
					for _, pageSize := range []int{1, 3, 0} {
						for _, explain := range []bool{true, false} {
							cursor := ""
							for page := 0; page < 40; page++ {
								body := wireBody(t, w, q, map[string]any{
									"mode": mode, "page_size": pageSize,
									"cursor": cursor, "explain": explain,
								})
								want := post(t, single, "/v1/search", body)
								got := post(t, router, "/v1/search", body)
								requests++
								if n == 2 && requests%7 == 0 {
									c.restartShard(t, snap, requests%2)
								}
								if want.Code != http.StatusOK {
									t.Fatalf("single node: status %d: %s", want.Code, want.Body.String())
								}
								if got.Code != want.Code {
									t.Fatalf("%s q=%s ps=%d page %d: router status %d, single %d: %s",
										mode, q.E2Name, pageSize, page, got.Code, want.Code, got.Body.String())
								}
								if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
									t.Fatalf("%s q=%s ps=%d explain=%v page %d: bodies differ\nrouter: %s\nsingle: %s",
										mode, q.E2Name, pageSize, explain, page,
										got.Body.String(), want.Body.String())
								}
								var resp server.SearchResponse
								if err := json.Unmarshal(want.Body.Bytes(), &resp); err != nil {
									t.Fatal(err)
								}
								cursor = resp.NextCursor
								if cursor == "" {
									break
								}
							}
							if cursor != "" {
								t.Fatalf("%s ps=%d: cursor chain did not terminate", mode, pageSize)
							}
						}
					}
				}
			}
		})
	}
}

// TestClusterErrorParity checks that request-level failures (unknown
// names, resolved on the shards) come back through the router with the
// same status, code, field and message a single node produces.
func TestClusterErrorParity(t *testing.T) {
	snap, _ := buildSnapshot(t)
	single := singleHandler(t, snap)
	c := startCluster(t, snap, 2)

	body, _ := json.Marshal(map[string]any{
		"relation": "no-such-relation", "e2": "whoever", "mode": "typerel",
	})
	want := post(t, single, "/v1/search", body)
	got := post(t, c.router.Handler(), "/v1/search", body)
	if got.Code != want.Code || want.Code != http.StatusBadRequest {
		t.Fatalf("status: router %d, single %d, want 400", got.Code, want.Code)
	}
	var we, ge server.ErrorResponse
	if err := json.Unmarshal(want.Body.Bytes(), &we); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got.Body.Bytes(), &ge); err != nil {
		t.Fatal(err)
	}
	if ge.Error.Code != we.Error.Code || ge.Error.Field != we.Error.Field || ge.Error.Message != we.Error.Message {
		t.Fatalf("error parity: router %+v, single %+v", ge.Error, we.Error)
	}
}

// TestShardEndpoints exercises a shard server's health and stats
// surface directly.
func TestShardEndpoints(t *testing.T) {
	snap, _ := buildSnapshot(t)
	svc, asn, err := webtable.LoadServiceShard(context.Background(), bytes.NewReader(snap), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	sh := NewShardServer(svc, asn, 0, 2, WithLogger(quietLogger()))

	if rec := get(t, sh.Handler(), "/v1/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	rec := get(t, sh.Handler(), "/v1/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	var st ShardStatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Shard != 0 || st.Shards != 2 {
		t.Fatalf("identity: %+v", st)
	}
	if st.Segments != asn.Segments() || st.Tables != asn.Tables || st.TableOffset != asn.TableOffset {
		t.Fatalf("ownership: %+v vs assignment %+v", st, asn)
	}
	if st.Generation == 0 {
		t.Fatal("generation not reported")
	}
}

// TestClusterMetricsAndTraces drives one routed search through a real
// 2-shard cluster and checks the observability surface end to end: the
// router's counters and the shards' counters both increment, and the
// request ID stitches the router's span tree (fanout → per-shard →
// merge) to each shard's own trace.
func TestClusterMetricsAndTraces(t *testing.T) {
	snap, w := buildSnapshot(t)
	c := startCluster(t, snap, 2)
	workload := w.SearchWorkload([]string{"directed"}, 1, 7)
	if len(workload) == 0 {
		t.Fatal("empty workload")
	}
	// Type mode: its plan walks one posting list per subject type, which
	// the shard path once timed nowhere (plan stage 0, no search.plan span).
	body := wireBody(t, w, workload[0], map[string]any{"mode": "type", "debug": true})

	req := httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "dist-trace-1")
	rec := httptest.NewRecorder()
	c.router.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("routed search = %d: %s", rec.Code, rec.Body.String())
	}
	var routed server.SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &routed); err != nil {
		t.Fatal(err)
	}
	if routed.Debug == nil || len(routed.Debug.Shards) != 2 {
		t.Fatalf("routed debug block = %+v, want stats for 2 shards", routed.Debug)
	}
	for i, ss := range routed.Debug.Shards {
		if ss.StageNanos.Plan <= 0 {
			t.Fatalf("shard %d reports plan stage %dns, want > 0", i, ss.StageNanos.Plan)
		}
	}

	// Router scrape: per-shard counters and RTT histograms moved onto
	// the shared registry.
	page := get(t, c.router.Handler(), "/metrics").Body.String()
	for _, want := range []string{
		`router_shard_requests_total{shard="0"} 1`,
		`router_shard_requests_total{shard="1"} 1`,
		`router_shard_rtt_seconds_count{shard="0"} 1`,
		"router_shards 2",
		`http_requests_total{route="POST /v1/search",method="POST",status="200"} 1`,
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("router scrape missing %q:\n%s", want, page)
		}
	}

	// Shard scrapes: each shard served exactly one partial.
	for i, sw := range c.swaps {
		page := get(t, sw, "/metrics").Body.String()
		for _, want := range []string{
			"shard_partial_requests_total", // mode label depends on query
			`http_requests_total{route="POST /v1/partial",method="POST",status="200"} 1`,
			"# TYPE shard_index gauge",
			`corpus_resident_bytes{part="cells"}`,
			`corpus_resident_bytes{part="dictionaries"}`,
			`corpus_resident_bytes{part="postings"}`,
			`corpus_resident_bytes{part="tables"}`,
			"# TYPE search_arena_bytes gauge",
			"# TYPE search_arena_grows_total counter",
		} {
			if !strings.Contains(page, want) {
				t.Fatalf("shard %d scrape missing %q:\n%s", i, want, page)
			}
		}
	}

	// Router trace: fanout with one child span per shard, then merge.
	var resp obs.TracesResponse
	if err := json.Unmarshal(get(t, c.router.Handler(), "/v1/traces").Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	var rootTrace *obs.WireTrace
	for i := range resp.Traces {
		if resp.Traces[i].ID == "dist-trace-1" {
			rootTrace = &resp.Traces[i]
		}
	}
	if rootTrace == nil {
		t.Fatalf("router trace ring has no dist-trace-1: %+v", resp)
	}
	stages := map[string]int{}
	var childSum float64
	for _, cs := range rootTrace.Root.Children {
		stages[cs.Name]++
		childSum += cs.DurationMs
		if cs.Name == "router.fanout" {
			if len(cs.Children) != 2 {
				t.Fatalf("fanout has %d shard spans, want 2: %+v", len(cs.Children), cs)
			}
			for _, ss := range cs.Children {
				if ss.Name != "router.shard" {
					t.Fatalf("fanout child = %q, want router.shard", ss.Name)
				}
			}
		}
	}
	// The routed trace is exactly fan-out then merge: the gather stages
	// are spans in the shards' own traces (below), and the merge's fold
	// runs untraced under router.merge (MergePartials takes no context).
	if len(stages) != 2 || stages["router.fanout"] != 1 || stages["router.merge"] != 1 {
		t.Fatalf("router span stages = %v, want one fanout and one merge", stages)
	}
	if childSum > rootTrace.Root.DurationMs {
		t.Fatalf("child spans sum %.3fms exceeds root %.3fms", childSum, rootTrace.Root.DurationMs)
	}

	// Each shard's trace shares the router's request ID and records the
	// router's calling span as its parent — one query, greppable and
	// joinable across all three processes.
	for i, sw := range c.swaps {
		var sresp obs.TracesResponse
		if err := json.Unmarshal(get(t, sw, "/v1/traces").Body.Bytes(), &sresp); err != nil {
			t.Fatal(err)
		}
		var found *obs.WireTrace
		for j := range sresp.Traces {
			if sresp.Traces[j].ID == "dist-trace-1" {
				found = &sresp.Traces[j]
			}
		}
		if found == nil {
			t.Fatalf("shard %d trace ring has no dist-trace-1", i)
		}
		var parent string
		for _, a := range found.Root.Attrs {
			if a.Key == "parent" {
				parent = a.Value
			}
		}
		if !strings.HasPrefix(parent, "dist-trace-1/") {
			t.Fatalf("shard %d root span parent = %q, want dist-trace-1/<span>", i, parent)
		}
		// A shard runs the pipeline up to gather: validate, plan and scan,
		// one span each in every mode, and none of the fold stages.
		shardStages := map[string]int{}
		for _, cs := range found.Root.Children {
			shardStages[cs.Name]++
		}
		want := map[string]int{"search.validate": 1, "search.plan": 1, "search.scan": 1}
		if !reflect.DeepEqual(shardStages, want) {
			t.Fatalf("shard %d /v1/partial stage spans = %v, want %v", i, shardStages, want)
		}
	}
}

// lookupTrace fetches one trace by ID through GET /v1/traces/{id} and
// fails the test unless it exists.
func lookupTrace(t testing.TB, h http.Handler, id string) *obs.WireTrace {
	t.Helper()
	rec := get(t, h, "/v1/traces/"+id)
	if rec.Code != http.StatusOK {
		t.Fatalf("trace %s: status %d: %s", id, rec.Code, rec.Body.String())
	}
	var wt obs.WireTrace
	if err := json.Unmarshal(rec.Body.Bytes(), &wt); err != nil {
		t.Fatal(err)
	}
	if wt.ID != id {
		t.Fatalf("trace ID = %q, want %q", wt.ID, id)
	}
	return &wt
}

// TestClusterDebugStats is the acceptance check for per-query execution
// stats across shards: debug:true through a 2-shard router returns the
// merged stats plus both shards' own, with every merged counter exactly
// the sum of the shard counters; the deterministic counters agree with
// a single node answering the same query; and debug:false responses
// carry no debug block at all.
func TestClusterDebugStats(t *testing.T) {
	snap, w := buildSnapshot(t)
	single := singleHandler(t, snap)
	c := startCluster(t, snap, 2)
	workload := w.SearchWorkload([]string{"directed", "actedIn"}, 1, 7)
	if len(workload) == 0 {
		t.Fatal("empty workload")
	}

	for _, q := range workload {
		debugBody := wireBody(t, w, q, map[string]any{"mode": "typerel", "debug": true})

		rec := post(t, c.router.Handler(), "/v1/search", debugBody)
		if rec.Code != http.StatusOK {
			t.Fatalf("routed debug search = %d: %s", rec.Code, rec.Body.String())
		}
		var routed server.SearchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &routed); err != nil {
			t.Fatal(err)
		}
		if routed.Debug == nil {
			t.Fatal("debug:true routed response has no debug block")
		}
		if len(routed.Debug.Shards) != 2 {
			t.Fatalf("debug block has %d shard entries, want 2", len(routed.Debug.Shards))
		}

		// Merged counters = sum of per-shard counters, exactly.
		var sum server.ExecStatsWire
		for _, sh := range routed.Debug.Shards {
			sum.CandidatePairs += sh.CandidatePairs
			sum.PairsMatched += sh.PairsMatched
			sum.RowsScanned += sh.RowsScanned
			sum.SegmentsVisited += sh.SegmentsVisited
			sum.TombstonesSkipped += sh.TombstonesSkipped
		}
		m := routed.Debug.Stats
		if m.CandidatePairs != sum.CandidatePairs || m.PairsMatched != sum.PairsMatched ||
			m.RowsScanned != sum.RowsScanned || m.SegmentsVisited != sum.SegmentsVisited ||
			m.TombstonesSkipped != sum.TombstonesSkipped {
			t.Fatalf("merged counters are not the shard sums:\nmerged %+v\nsum    %+v\nshards %+v",
				m, sum, routed.Debug.Shards)
		}
		if m.Parallelism < 1 {
			t.Fatalf("merged parallelism = %d, want >= 1", m.Parallelism)
		}

		// Same query on a single node: the deterministic scan counters
		// must agree with the routed merge (timings are wall clock and
		// segment counts depend on the shard split, so neither compares).
		srec := post(t, single, "/v1/search", debugBody)
		if srec.Code != http.StatusOK {
			t.Fatalf("single debug search = %d: %s", srec.Code, srec.Body.String())
		}
		var sresp server.SearchResponse
		if err := json.Unmarshal(srec.Body.Bytes(), &sresp); err != nil {
			t.Fatal(err)
		}
		if sresp.Debug == nil {
			t.Fatal("debug:true single-node response has no debug block")
		}
		if len(sresp.Debug.Shards) != 0 {
			t.Fatalf("single node reported shard stats: %+v", sresp.Debug.Shards)
		}
		s := sresp.Debug.Stats
		if s.CandidatePairs != m.CandidatePairs || s.PairsMatched != m.PairsMatched ||
			s.RowsScanned != m.RowsScanned || s.AnswersBeforeTopK != m.AnswersBeforeTopK ||
			s.TombstonesSkipped != m.TombstonesSkipped {
			t.Fatalf("routed merge diverges from single node:\nrouted %+v\nsingle %+v", m, s)
		}

		// Without debug the response has no debug key and stays
		// byte-identical to the single node.
		plainBody := wireBody(t, w, q, map[string]any{"mode": "typerel"})
		got := post(t, c.router.Handler(), "/v1/search", plainBody)
		want := post(t, single, "/v1/search", plainBody)
		if got.Code != http.StatusOK || want.Code != http.StatusOK {
			t.Fatalf("plain search: router %d, single %d", got.Code, want.Code)
		}
		if bytes.Contains(got.Body.Bytes(), []byte(`"debug"`)) {
			t.Fatalf("debug:false response leaked a debug block: %s", got.Body.String())
		}
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("debug:false bodies differ\nrouter: %s\nsingle: %s",
				got.Body.String(), want.Body.String())
		}
	}

	// The queries above fed the fleet-level search_* counters on the
	// router and on each shard.
	for name, h := range map[string]http.Handler{
		"router":  c.router.Handler(),
		"shard 0": c.swaps[0],
		"shard 1": c.swaps[1],
	} {
		page := get(t, h, "/metrics").Body.String()
		for _, want := range []string{
			"search_rows_scanned_total",
			`search_candidate_pairs_total{outcome="matched"}`,
			`search_stage_duration_seconds_count{stage="scan"}`,
		} {
			if !strings.Contains(page, want) {
				t.Fatalf("%s scrape missing %q:\n%s", name, want, page)
			}
		}
		// A shard whose slice held no candidates can legitimately report
		// zero rows; the router's merged total cannot.
		if name == "router" && strings.Contains(page, "search_rows_scanned_total 0\n") {
			t.Fatalf("%s search_rows_scanned_total stayed at zero", name)
		}
	}
}

// TestTraceLookupEndpoint covers GET /v1/traces/{id}: a routed query's
// trace is retrievable by request ID from the router and from each
// shard it touched, and an ID the ring does not hold (never recorded,
// or evicted — the same miss) is the standard 404 error body.
func TestTraceLookupEndpoint(t *testing.T) {
	snap, w := buildSnapshot(t)
	c := startCluster(t, snap, 2)
	workload := w.SearchWorkload([]string{"directed"}, 1, 7)
	if len(workload) == 0 {
		t.Fatal("empty workload")
	}
	body := wireBody(t, w, workload[0], nil)

	req := httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "lookup-1")
	rec := httptest.NewRecorder()
	c.router.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("routed search = %d: %s", rec.Code, rec.Body.String())
	}

	if wt := lookupTrace(t, c.router.Handler(), "lookup-1"); len(wt.Root.Children) == 0 {
		t.Fatalf("router trace has no child spans: %+v", wt.Root)
	}
	for i, sw := range c.swaps {
		if wt := lookupTrace(t, sw, "lookup-1"); wt.ID != "lookup-1" {
			t.Fatalf("shard %d trace = %+v", i, wt)
		}
	}

	for name, h := range map[string]http.Handler{
		"router": c.router.Handler(),
		"shard":  c.swaps[0],
	} {
		miss := get(t, h, "/v1/traces/never-recorded")
		if miss.Code != http.StatusNotFound {
			t.Fatalf("%s: unknown trace = %d, want 404: %s", name, miss.Code, miss.Body.String())
		}
		var er server.ErrorResponse
		if err := json.Unmarshal(miss.Body.Bytes(), &er); err != nil {
			t.Fatalf("%s: 404 body is not the standard error shape: %v: %s", name, err, miss.Body.String())
		}
		if er.Error.Code != "trace_not_found" {
			t.Fatalf("%s: error code = %q, want trace_not_found", name, er.Error.Code)
		}
	}
}

// TestSpanContextHeaderHardening sends malformed, truncated and
// oversized X-Span-Context headers to the router and straight to a
// shard: every request must succeed, with the garbage degraded to a
// fresh root span carrying no parent attribute. A well-formed header
// must still thread through as the parent.
func TestSpanContextHeaderHardening(t *testing.T) {
	snap, w := buildSnapshot(t)
	c := startCluster(t, snap, 1)
	workload := w.SearchWorkload([]string{"directed"}, 1, 7)
	if len(workload) == 0 {
		t.Fatal("empty workload")
	}
	body := wireBody(t, w, workload[0], nil)

	targets := []struct {
		name string
		h    http.Handler
		path string
	}{
		{"router", c.router.Handler(), "/v1/search"},
		{"shard", c.swaps[0], "/v1/partial"},
	}
	send := func(t *testing.T, tg struct {
		name string
		h    http.Handler
		path string
	}, id, header string) *httptest.ResponseRecorder {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, tg.path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-ID", id)
		req.Header.Set("X-Span-Context", header)
		rec := httptest.NewRecorder()
		tg.h.ServeHTTP(rec, req)
		return rec
	}

	cases := []struct{ name, header string }{
		{"no separator", "justatraceid"},
		{"truncated spanID", "trace/"},
		{"truncated traceID", "/span"},
		{"only separator", "/"},
		{"extra separators", "a/b/c/d"},
		{"oversized", strings.Repeat("x", 4096) + "/1"},
		{"embedded space", "tra ce/1"},
		{"control byte", "tra\x01ce/1"},
		{"non-ascii", "tracé/1"},
		{"whitespace only", "   "},
	}
	n := 0
	for _, tc := range cases {
		for _, tg := range targets {
			n++
			id := fmt.Sprintf("hardening-%d", n)
			rec := send(t, tg, id, tc.header)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s %s: garbage header failed the request: %d: %s",
					tg.name, tc.name, rec.Code, rec.Body.String())
			}
			wt := lookupTrace(t, tg.h, id)
			for _, a := range wt.Root.Attrs {
				if a.Key == "parent" {
					t.Fatalf("%s %s: garbage header %q became parent attr %q",
						tg.name, tc.name, tc.header, a.Value)
				}
			}
		}
	}

	// Control: a valid header still records its parent.
	for _, tg := range targets {
		n++
		id := fmt.Sprintf("hardening-%d", n)
		if rec := send(t, tg, id, "upstream-7/3"); rec.Code != http.StatusOK {
			t.Fatalf("%s: valid header failed: %d: %s", tg.name, rec.Code, rec.Body.String())
		}
		var parent string
		for _, a := range lookupTrace(t, tg.h, id).Root.Attrs {
			if a.Key == "parent" {
				parent = a.Value
			}
		}
		if parent != "upstream-7/3" {
			t.Fatalf("%s: valid header parent = %q, want upstream-7/3", tg.name, parent)
		}
	}
}
