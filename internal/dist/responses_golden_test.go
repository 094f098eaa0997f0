package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	webtable "repro"
	"repro/internal/server"
	"repro/internal/table"
	"repro/internal/worldgen"
)

var updateResponses = flag.Bool("update", false, "rewrite testdata/responses.golden from what the handlers answer now")

// stageNanos matches the one part of a response that is a clock reading.
var stageNanos = regexp.MustCompile(`"stage_nanos":\{[^}]*\}`)

// goldenCase is one request of the fixed list.
type goldenCase struct {
	name   string
	method string
	path   string
	body   []byte
}

// TestResponsesGolden freezes what the HTTP surface answers — status,
// headers (X-Request-ID and Date aside) and body bytes — for a fixed
// request list: every mode, a cursor chain walked to its end, explain,
// debug (stage timings blanked; every counter kept), and each 4xx shape,
// on a single node and through a router over two shards of the same
// four-segment snapshot (one table tombstoned). Both run one worker, so
// "parallelism" does not depend on the machine. testdata/responses.golden was written by the code that built
// one engine, one candidate list and one hit list per cluster per
// request; whatever the request path allocates, it must keep answering
// these bytes.
func TestResponsesGolden(t *testing.T) {
	snap, w := buildSegmentedSnapshot(t)
	const maxBody = 4 << 10
	one := webtable.WithWorkers(1)
	svc, err := webtable.LoadService(context.Background(), bytes.NewReader(snap), one)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	single := server.New(svc, server.WithLogger(quietLogger()), server.WithMaxBodyBytes(maxBody)).Handler()
	var urls []string
	for i := 0; i < 2; i++ {
		shardSvc, asn, err := webtable.LoadServiceShard(context.Background(), bytes.NewReader(snap), i, 2, one)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(shardSvc.Close)
		ts := httptest.NewServer(NewShardServer(shardSvc, asn, i, 2, WithLogger(quietLogger())).Handler())
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	routed := NewRouter(&Client{URLs: urls, sleepFn: noSleep}, WithLogger(quietLogger()),
		func(b *server.HTTPBase) { b.MaxBody = maxBody }).Handler()

	cases := goldenRequests(t, w, single, maxBody)

	var got bytes.Buffer
	for _, node := range []struct {
		name string
		h    http.Handler
	}{{"single", single}, {"routed", routed}} {
		for i, c := range cases {
			req := httptest.NewRequest(c.method, c.path, bytes.NewReader(c.body))
			req.Header.Set("X-Request-ID", fmt.Sprintf("golden-%03d", i))
			rec := httptest.NewRecorder()
			node.h.ServeHTTP(rec, req)
			fmt.Fprintf(&got, "== %s %03d %s: %s %s\nstatus %d\n", node.name, i, c.name, c.method, c.path, rec.Code)
			var names []string
			for name := range rec.Header() {
				if name != "X-Request-Id" && name != "Date" {
					names = append(names, name)
				}
			}
			sort.Strings(names)
			for _, name := range names {
				fmt.Fprintf(&got, "header %s: %s\n", name, strings.Join(rec.Header()[name], ", "))
			}
			fmt.Fprintf(&got, "body %s\n", bytes.TrimRight(stageNanos.ReplaceAll(rec.Body.Bytes(), []byte(`"stage_nanos":{}`)), "\n"))
		}
	}

	path := filepath.Join("testdata", "responses.golden")
	if *updateResponses {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run TestResponsesGolden -update ./internal/dist to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("responses diverge from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("responses diverge from %s in length: %d lines, want %d", path, len(gl), len(wl))
	}
}

// goldenRequests is the fixed request list of TestResponsesGolden: every
// mode, a cursor chain walked to its end on single (its next_cursor is the
// next request), explain, debug, and each 4xx shape; maxBody is the body
// cap the "oversized body" case has to exceed.
func goldenRequests(t testing.TB, w *worldgen.World, single http.Handler, maxBody int) []goldenCase {
	t.Helper()
	workload := w.SearchWorkload([]string{"directed", "actedIn"}, 1, 7)
	if len(workload) < 2 {
		t.Fatalf("workload too small: %d", len(workload))
	}
	var cases []goldenCase
	search := func(name string, body []byte) {
		cases = append(cases, goldenCase{name, http.MethodPost, "/v1/search", body})
	}
	for qi, q := range workload[:2] {
		for _, mode := range []string{"baseline", "type", "typerel"} {
			search(fmt.Sprintf("q%d %s full", qi, mode), wireBody(t, w, q, map[string]any{"mode": mode}))
			search(fmt.Sprintf("q%d %s explain", qi, mode), wireBody(t, w, q, map[string]any{"mode": mode, "page_size": 3, "explain": true}))
			search(fmt.Sprintf("q%d %s debug", qi, mode), wireBody(t, w, q, map[string]any{"mode": mode, "page_size": 2, "debug": true}))
			// The cursor chain: the single node's next_cursor is the next
			// request of both.
			cursor := ""
			for page := 0; page < 50; page++ {
				body := wireBody(t, w, q, map[string]any{"mode": mode, "page_size": 2, "cursor": cursor, "explain": page%2 == 1})
				search(fmt.Sprintf("q%d %s page %d", qi, mode, page), body)
				var resp server.SearchResponse
				if err := json.Unmarshal(post(t, single, "/v1/search", body).Body.Bytes(), &resp); err != nil {
					t.Fatal(err)
				}
				if cursor = resp.NextCursor; cursor == "" {
					break
				}
			}
			if cursor != "" {
				t.Fatalf("q%d %s: cursor chain did not end", qi, mode)
			}
		}
	}
	q := workload[0]
	search("malformed json", []byte(`{"relation":`))
	search("unknown field", wireBody(t, w, q, map[string]any{"colour": "red"}))
	search("trailing data", append(wireBody(t, w, q, nil), []byte(` {"again":1}`)...))
	search("oversized body", wireBody(t, w, q, map[string]any{"context": strings.Repeat("x", maxBody)}))
	search("unknown relation", wireBody(t, w, q, map[string]any{"relation": "no-such-relation"}))
	search("unknown t1", wireBody(t, w, q, map[string]any{"t1": "NoSuchType"}))
	search("unknown t2", wireBody(t, w, q, map[string]any{"t2": "NoSuchType", "mode": "type"}))
	search("invalid mode", wireBody(t, w, q, map[string]any{"mode": "fuzzy"}))
	search("negative page size", wireBody(t, w, q, map[string]any{"page_size": -1}))
	search("garbage cursor", wireBody(t, w, q, map[string]any{"cursor": "!!not-base64!!"}))
	search("forged cursor", wireBody(t, w, q, map[string]any{"cursor": "eyJzIjowLCJ1IjotMSwidCI6IngiLCJrIjoiZTp4In0"}))
	search("missing probe", wireBody(t, w, q, map[string]any{"e2": ""}))
	search("missing relation", wireBody(t, w, q, map[string]any{"relation": ""}))
	search("baseline without t1", wireBody(t, w, q, map[string]any{"mode": "baseline", "t1": ""}))
	cases = append(cases,
		goldenCase{"wrong method", http.MethodGet, "/v1/search", nil},
		goldenCase{"unmatched path", http.MethodGet, "/v1/nowhere", nil},
		goldenCase{"unknown trace", http.MethodGet, "/v1/traces/never-recorded", nil},
	)
	return cases
}

// buildSegmentedSnapshot is buildSnapshot's corpus saved as four
// segments — built, then grown three times, never compacted — with one
// table of the second removed; two shards split it one segment (half the
// tables) to three.
func buildSegmentedSnapshot(t testing.TB) ([]byte, *worldgen.World) {
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
		t.Fatal(err)
	}
	svc, err := webtable.NewService(w.Public, webtable.WithWorkers(1), webtable.WithoutAutoCompaction())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	ds := w.SearchCorpus(28, 7)
	tables := make([]*table.Table, len(ds.Tables))
	for i, lt := range ds.Tables {
		tables[i] = lt.Table
	}
	cuts := []int{0, len(tables) / 2, 3 * len(tables) / 4, 7 * len(tables) / 8, len(tables)}
	if _, err := svc.BuildIndex(ctx, tables[:cuts[1]]); err != nil {
		t.Fatal(err)
	}
	for i := 1; i+1 < len(cuts); i++ {
		if _, err := svc.AddTables(ctx, tables[cuts[i]:cuts[i+1]]); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := svc.RemoveTables(ctx, []string{tables[cuts[1]+1].ID})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Segments != 4 || stats.Tombstones != 1 {
		t.Fatalf("corpus shape: %+v, want 4 segments and 1 tombstone", stats)
	}
	var buf bytes.Buffer
	if err := svc.SaveSnapshot(ctx, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), w
}
