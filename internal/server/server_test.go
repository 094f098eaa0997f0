package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	webtable "repro"
	"repro/internal/table"
	"repro/internal/worldgen"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// testService builds a small world, annotates a "directed"-relation
// corpus and returns a search-ready service.
func testService(t testing.TB, workers int) (*webtable.Service, *worldgen.World) {
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
	svc, err := webtable.NewService(w.Public, webtable.WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	ds := w.GenerateDataset("srv", 7, 8, 4, 8, worldgen.CleanProfile(), worldgen.AllGTLayers(), "directed")
	tables := make([]*table.Table, len(ds.Tables))
	for i, lt := range ds.Tables {
		tables[i] = lt.Table
	}
	if _, err := svc.BuildIndex(context.Background(), tables); err != nil {
		t.Fatalf("build index: %v", err)
	}
	t.Cleanup(svc.Close) // stop the background compactor if a test mutates
	return svc, w
}

// extraTables generates tables disjoint from testService's corpus, for
// live-corpus mutation tests.
func extraTables(t testing.TB, w *worldgen.World, n int) []*table.Table {
	t.Helper()
	ds := w.GenerateDataset("extra", 11, n, 4, 8, worldgen.CleanProfile(), worldgen.AllGTLayers(), "directed")
	tables := make([]*table.Table, len(ds.Tables))
	for i, lt := range ds.Tables {
		tables[i] = lt.Table
	}
	return tables
}

// searchBody returns a valid wire search request for the world's
// "directed" workload.
func searchBody(t testing.TB, w *worldgen.World, extra map[string]any) []byte {
	t.Helper()
	return queryBody(t, w, w.SearchWorkload([]string{"directed"}, 1, 7)[0], extra)
}

// queryBody is the /v1/search body for q, with extra fields merged in.
func queryBody(t testing.TB, w *worldgen.World, q worldgen.SearchQuery, extra map[string]any) []byte {
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

func postJSON(t testing.TB, h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decodeErr(t testing.TB, rec *httptest.ResponseRecorder) ErrorBody {
	t.Helper()
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatalf("error body is not ErrorResponse JSON: %v (%s)", err, rec.Body.String())
	}
	return er.Error
}

func TestHealthz(t *testing.T) {
	svc, _ := testService(t, 2)
	srv := New(svc, WithLogger(quietLogger()))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"ok"`) {
		t.Fatalf("body = %s", rec.Body.String())
	}
	if rec.Header().Get("X-Request-ID") == "" {
		t.Fatal("no X-Request-ID header")
	}
}

func TestStats(t *testing.T) {
	svc, _ := testService(t, 2)
	srv := New(svc, WithLogger(quietLogger()))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	var stats StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if !stats.IndexBuilt || stats.Tables != 8 || stats.AnnotatedTables != 8 {
		t.Fatalf("stats = %+v, want 8 annotated tables and index_built", stats)
	}
	if stats.Workers != 2 || stats.Catalog.Entities == 0 || stats.Catalog.Relations == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	// A query is scanned on one goroutine whatever the worker count.
	if stats.Parallelism != 1 {
		t.Fatalf("parallelism = %d, want 1", stats.Parallelism)
	}
}

func TestSearchEndpoint(t *testing.T) {
	svc, w := testService(t, 2)
	srv := New(svc, WithLogger(quietLogger()))
	rec := postJSON(t, srv.Handler(), "/v1/search", searchBody(t, w, map[string]any{
		"page_size": 5, "explain": true,
	}))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var res SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Total == 0 || len(res.Answers) == 0 {
		t.Fatalf("no answers: %+v", res)
	}
	if len(res.Answers) > 5 {
		t.Fatalf("page overflow: %d answers", len(res.Answers))
	}
	if res.Answers[0].Explanation == nil || len(res.Answers[0].Explanation.Sources) == 0 {
		t.Fatalf("explain requested but missing: %+v", res.Answers[0])
	}
}

// TestSearchErrorMapping drives each sentinel through the HTTP surface
// and checks status code, stable error code, and the structured body.
func TestSearchErrorMapping(t *testing.T) {
	svc, w := testService(t, 2)
	srv := New(svc, WithLogger(quietLogger()))
	noIndexSvc, err := webtable.NewService(w.Public)
	if err != nil {
		t.Fatal(err)
	}
	noIndexSrv := New(noIndexSvc, WithLogger(quietLogger()))

	cases := []struct {
		name       string
		handler    http.Handler
		body       []byte
		wantStatus int
		wantCode   string
		wantField  string
	}{
		{"bad cursor", srv.Handler(), searchBody(t, w, map[string]any{"cursor": "!!!not-a-cursor"}),
			http.StatusBadRequest, "invalid_cursor", ""},
		// A well-encoded cursor with a NaN score: it used to decode, compare
		// false against every answer and return 200 with an empty page.
		{"forged cursor", srv.Handler(), searchBody(t, w, map[string]any{"cursor": base64.RawURLEncoding.EncodeToString(
			[]byte(`{"s":9221120237041090561,"u":1,"t":"x","k":"t:x"}`))}),
			http.StatusBadRequest, "invalid_cursor", ""},
		{"negative page size", srv.Handler(), searchBody(t, w, map[string]any{"page_size": -3}),
			http.StatusBadRequest, "invalid_page_size", "page_size"},
		{"bogus mode", srv.Handler(), searchBody(t, w, map[string]any{"mode": "psychic"}),
			http.StatusBadRequest, "invalid_mode", "mode"},
		{"unknown relation", srv.Handler(), searchBody(t, w, map[string]any{"relation": "nonesuch"}),
			http.StatusBadRequest, "unknown_name", "relation"},
		{"unknown t1", srv.Handler(), searchBody(t, w, map[string]any{"t1": "Blorp"}),
			http.StatusBadRequest, "unknown_name", "t1"},
		{"missing probe", srv.Handler(), searchBody(t, w, map[string]any{"e2": ""}),
			http.StatusBadRequest, "invalid_query", "e2"},
		{"no index", noIndexSrv.Handler(), searchBody(t, w, nil),
			http.StatusConflict, "no_index", ""},
		{"malformed body", srv.Handler(), []byte("{not json"),
			http.StatusBadRequest, "bad_request", ""},
		{"oversized body", New(svc, WithLogger(quietLogger()), WithMaxBodyBytes(16)).Handler(),
			searchBody(t, w, nil),
			http.StatusRequestEntityTooLarge, "body_too_large", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := postJSON(t, tc.handler, "/v1/search", tc.body)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d (%s)", rec.Code, tc.wantStatus, rec.Body.String())
			}
			eb := decodeErr(t, rec)
			if eb.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", eb.Code, tc.wantCode)
			}
			if eb.Field != tc.wantField {
				t.Errorf("field = %q, want %q", eb.Field, tc.wantField)
			}
			if eb.RequestID == "" {
				t.Error("error body missing request_id")
			}
		})
	}
}

// TestMapErrorTable unit-tests the sentinel→status table, including the
// context errors the HTTP round trips above cannot produce on demand.
func TestMapErrorTable(t *testing.T) {
	cases := []struct {
		err        error
		wantStatus int
		wantCode   string
	}{
		{context.DeadlineExceeded, http.StatusGatewayTimeout, "deadline_exceeded"},
		{context.Canceled, StatusClientClosedRequest, "client_closed_request"},
		{fmt.Errorf("wrap: %w", webtable.ErrInvalidCursor), http.StatusBadRequest, "invalid_cursor"},
		{webtable.ErrInvalidPageSize, http.StatusBadRequest, "invalid_page_size"},
		{webtable.ErrInvalidMode, http.StatusBadRequest, "invalid_mode"},
		{webtable.ErrUnknownName, http.StatusBadRequest, "unknown_name"},
		{webtable.ErrInvalidQuery, http.StatusBadRequest, "invalid_query"},
		{webtable.ErrNoIndex, http.StatusConflict, "no_index"},
		{webtable.ErrNilTable, http.StatusBadRequest, "invalid_table"},
		{table.ErrRagged, http.StatusBadRequest, "invalid_table"},
		{table.ErrEmpty, http.StatusBadRequest, "invalid_table"},
		{webtable.ErrUnknownMethod, http.StatusBadRequest, "unknown_method"},
		{errBadBody, http.StatusBadRequest, "bad_request"},
		{&http.MaxBytesError{Limit: 8}, http.StatusRequestEntityTooLarge, "body_too_large"},
		{fmt.Errorf("boom"), http.StatusInternalServerError, "internal"},
	}
	for _, tc := range cases {
		status, code, _ := MapError(tc.err)
		if status != tc.wantStatus || code != tc.wantCode {
			t.Errorf("MapError(%v) = (%d, %q), want (%d, %q)",
				tc.err, status, code, tc.wantStatus, tc.wantCode)
		}
	}
	// A QueryError wrapper surfaces its field.
	_, _, field := MapError(&webtable.QueryError{Field: "t2", Err: webtable.ErrUnknownName})
	if field != "t2" {
		t.Errorf("field = %q, want t2", field)
	}
}

// TestCursorPagingHTTP walks the full ranking two answers at a time and
// checks the union equals the one-shot full page, in order. The query is
// the workload's first that ranks at least 3 answers, so paging crosses
// at least one cursor; a corpus that ranks fewer fails the test.
func TestCursorPagingHTTP(t *testing.T) {
	svc, w := testService(t, 2)
	srv := New(svc, WithLogger(quietLogger()))

	var full SearchResponse
	var q worldgen.SearchQuery
	for _, q = range w.SearchWorkload([]string{"directed"}, 6, 7) {
		rec := postJSON(t, srv.Handler(), "/v1/search", queryBody(t, w, q, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("full page: %d %s", rec.Code, rec.Body.String())
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &full); err != nil {
			t.Fatal(err)
		}
		if full.Total >= 3 {
			break
		}
	}
	if full.Total < 3 {
		t.Fatalf("ranking too small to page: no query ranks 3 answers, last total=%d", full.Total)
	}

	var paged []Answer
	cursor := ""
	for pages := 0; pages < full.Total; pages++ {
		extra := map[string]any{"page_size": 2}
		if cursor != "" {
			extra["cursor"] = cursor
		}
		rec := postJSON(t, srv.Handler(), "/v1/search", queryBody(t, w, q, extra))
		if rec.Code != http.StatusOK {
			t.Fatalf("page %d: %d %s", pages, rec.Code, rec.Body.String())
		}
		var page SearchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			t.Fatal(err)
		}
		if page.Total != full.Total {
			t.Fatalf("page total %d != full total %d", page.Total, full.Total)
		}
		paged = append(paged, page.Answers...)
		cursor = page.NextCursor
		if cursor == "" {
			break
		}
	}
	if len(paged) != len(full.Answers) {
		t.Fatalf("paged %d answers, full %d", len(paged), len(full.Answers))
	}
	for i := range paged {
		if paged[i].Text != full.Answers[i].Text || paged[i].Score != full.Answers[i].Score {
			t.Fatalf("rank %d: paged %+v != full %+v", i, paged[i], full.Answers[i])
		}
	}
}

// TestClientDisconnect: a request whose context died before dispatch is
// answered 499 without reaching the service.
func TestClientDisconnect(t *testing.T) {
	svc, w := testService(t, 2)
	srv := New(svc, WithLogger(quietLogger()))
	req := httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(searchBody(t, w, nil)))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req = req.WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("status = %d, want %d", rec.Code, StatusClientClosedRequest)
	}
	if eb := decodeErr(t, rec); eb.Code != "client_closed_request" {
		t.Fatalf("code = %q", eb.Code)
	}
}

// TestRequestTimeout: an expired per-request deadline maps to 504.
func TestRequestTimeout(t *testing.T) {
	svc, w := testService(t, 2)
	srv := New(svc, WithLogger(quietLogger()), WithTimeout(time.Nanosecond))
	time.Sleep(time.Millisecond) // ensure any clock granularity has passed
	rec := postJSON(t, srv.Handler(), "/v1/search", searchBody(t, w, nil))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%s)", rec.Code, rec.Body.String())
	}
	if eb := decodeErr(t, rec); eb.Code != "deadline_exceeded" {
		t.Fatalf("code = %q", eb.Code)
	}
}

func TestRequestIDEcho(t *testing.T) {
	svc, _ := testService(t, 2)
	srv := New(svc, WithLogger(quietLogger()))
	req := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	req.Header.Set("X-Request-ID", "caller-chosen-77")
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-ID"); got != "caller-chosen-77" {
		t.Fatalf("X-Request-ID = %q, want caller-chosen-77", got)
	}
}

func TestNotFoundAndMethodNotAllowed(t *testing.T) {
	svc, _ := testService(t, 2)
	srv := New(svc, WithLogger(quietLogger()))

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/nope", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", rec.Code)
	}

	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/search", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", rec.Code)
	}
}

func TestBatchEndpoint(t *testing.T) {
	svc, w := testService(t, 2)
	srv := New(svc, WithLogger(quietLogger()))

	var good SearchRequest
	if err := json.Unmarshal(searchBody(t, w, nil), &good); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Relation = "nonesuch"
	badCursor := good
	badCursor.Cursor = "???"
	body, err := json.Marshal(BatchRequest{Requests: []SearchRequest{good, bad, good, badCursor}})
	if err != nil {
		t.Fatal(err)
	}
	rec := postJSON(t, srv.Handler(), "/v1/search:batch", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var br BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 4 {
		t.Fatalf("results = %d, want 4 (parallel to requests)", len(br.Results))
	}
	if br.Results[0] == nil || br.Results[2] == nil {
		t.Fatal("valid requests got nil results")
	}
	if br.Results[1] != nil || br.Results[3] != nil {
		t.Fatal("failed requests got non-nil results")
	}
	if len(br.Errors) != 2 {
		t.Fatalf("errors = %+v, want 2", br.Errors)
	}
	if br.Errors[0].Index != 1 || br.Errors[0].Error.Code != "unknown_name" {
		t.Fatalf("errors[0] = %+v", br.Errors[0])
	}
	if br.Errors[1].Index != 3 || br.Errors[1].Error.Code != "invalid_cursor" {
		t.Fatalf("errors[1] = %+v", br.Errors[1])
	}
	// The two identical good requests return identical pages.
	a, err := json.Marshal(br.Results[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(br.Results[2])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("identical batch entries differ: %s vs %s", a, b)
	}
}

func TestAnnotateEndpoint(t *testing.T) {
	svc, w := testService(t, 2)
	srv := New(svc, WithLogger(quietLogger()))

	// A table naming a real film/director pair from the world.
	rel := w.True.Tuples(w.RelID("directed"))
	if len(rel) == 0 {
		t.Fatal("no directed tuples")
	}
	film := w.True.EntityName(rel[0].Subject)
	director := w.True.EntityName(rel[0].Object)
	body, err := json.Marshal(AnnotateRequest{
		Table: &webtable.Table{
			ID:      "annotate-me",
			Headers: []string{"Movie", "Director"},
			Cells:   [][]string{{film, director}},
		},
		Method: "simple",
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := postJSON(t, srv.Handler(), "/v1/annotate", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var ann Annotation
	if err := json.Unmarshal(rec.Body.Bytes(), &ann); err != nil {
		t.Fatal(err)
	}
	if ann.TableID != "annotate-me" {
		t.Fatalf("table_id = %q", ann.TableID)
	}

	// Ragged table → 400 invalid_table.
	raggedBody := []byte(`{"table": {"id": "x", "cells": [["a","b"],["c"]]}}`)
	rec = postJSON(t, srv.Handler(), "/v1/annotate", raggedBody)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("ragged status = %d, want 400", rec.Code)
	}
	if eb := decodeErr(t, rec); eb.Code != "invalid_table" {
		t.Fatalf("ragged code = %q", eb.Code)
	}

	// Unknown method → 400 unknown_method.
	body, _ = json.Marshal(AnnotateRequest{
		Table:  &webtable.Table{ID: "x", Cells: [][]string{{"a"}}},
		Method: "oracle",
	})
	rec = postJSON(t, srv.Handler(), "/v1/annotate", body)
	if eb := decodeErr(t, rec); rec.Code != http.StatusBadRequest || eb.Code != "unknown_method" {
		t.Fatalf("method status/code = %d/%q", rec.Code, eb.Code)
	}

	// Missing table → 400 invalid_table.
	rec = postJSON(t, srv.Handler(), "/v1/annotate", []byte(`{"method": "simple"}`))
	if eb := decodeErr(t, rec); rec.Code != http.StatusBadRequest || eb.Code != "invalid_table" {
		t.Fatalf("nil-table status/code = %d/%q", rec.Code, eb.Code)
	}
}

// TestConcurrentSearches hammers the search endpoint with 8 parallel
// clients (run under -race in CI) and checks every response is a valid
// identical page.
func TestConcurrentSearches(t *testing.T) {
	svc, w := testService(t, 4)
	srv := New(svc, WithLogger(quietLogger()))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := searchBody(t, w, map[string]any{"page_size": 5})
	var want SearchResponse
	rec := postJSON(t, srv.Handler(), "/v1/search", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("probe: %d %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 8
	const perClient = 3
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d: %s", resp.StatusCode, raw)
					return
				}
				var got SearchResponse
				if err := json.Unmarshal(raw, &got); err != nil {
					errs <- err
					return
				}
				gotJSON, err := json.Marshal(got)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(gotJSON, wantJSON) {
					errs <- fmt.Errorf("divergent response: %s", gotJSON)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestGracefulShutdownDrains verifies Serve's contract: after its
// context is canceled it stops accepting but waits for the in-flight
// request — here one blocked waiting for a worker-pool slot the test is
// hogging — and returns nil once the drain completes.
func TestGracefulShutdownDrains(t *testing.T) {
	svc, w := testService(t, 2)
	srv := New(svc, WithLogger(quietLogger()), WithDrainTimeout(10*time.Second))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ctx, ln) }()

	// Hold every worker slot so the next search blocks in Acquire.
	for i := 0; i < svc.Workers(); i++ {
		if err := svc.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	body := searchBody(t, w, nil)
	type result struct {
		status int
		err    error
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/search", "application/json", bytes.NewReader(body))
		if err != nil {
			resCh <- result{err: err}
			return
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		resCh <- result{status: resp.StatusCode}
	}()

	// Wait until the request is in flight (blocked on the semaphore).
	deadline := time.Now().Add(5 * time.Second)
	for srv.InFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	cancel() // SIGTERM equivalent: begin graceful shutdown

	// Serve must still be draining, not returned, while the request is
	// blocked.
	select {
	case err := <-serveDone:
		t.Fatalf("Serve returned %v before the in-flight request finished", err)
	case <-time.After(50 * time.Millisecond):
	}

	// Release the pool: the blocked request completes, the drain ends.
	for i := 0; i < svc.Workers(); i++ {
		svc.Release()
	}
	res := <-resCh
	if res.err != nil {
		t.Fatalf("in-flight request failed: %v", res.err)
	}
	if res.status != http.StatusOK {
		t.Fatalf("in-flight request status = %d, want 200", res.status)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve = %v, want nil after clean drain", err)
	}

	// New connections are refused after shutdown.
	if _, err := http.Post("http://"+ln.Addr().String()+"/v1/healthz", "application/json", nil); err == nil {
		t.Fatal("server still accepting after shutdown")
	}
}

// --- live corpus endpoints ---

func addBody(t testing.TB, tables []*table.Table, method string) []byte {
	t.Helper()
	body, err := json.Marshal(AddTablesRequest{Tables: tables, Method: method})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func decodeMutate(t testing.TB, rec *httptest.ResponseRecorder) MutateResponse {
	t.Helper()
	var mr MutateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &mr); err != nil {
		t.Fatalf("mutate response: %v (%s)", err, rec.Body.String())
	}
	return mr
}

// TestAddTablesEndpoint: POST /v1/tables annotates and indexes the new
// batch as a fresh segment, the stats counters move, and a search that
// previously missed the new evidence now sees it.
func TestAddTablesEndpoint(t *testing.T) {
	svc, w := testService(t, 2)
	srv := New(svc, WithLogger(quietLogger()))

	before := postJSON(t, srv.Handler(), "/v1/search", searchBody(t, w, map[string]any{"mode": "typerel"}))
	if before.Code != http.StatusOK {
		t.Fatalf("search before add: %d %s", before.Code, before.Body.String())
	}
	var beforeRes SearchResponse
	if err := json.Unmarshal(before.Body.Bytes(), &beforeRes); err != nil {
		t.Fatal(err)
	}

	extra := extraTables(t, w, 3)
	rec := postJSON(t, srv.Handler(), "/v1/tables", addBody(t, extra, "collective"))
	if rec.Code != http.StatusOK {
		t.Fatalf("add status = %d: %s", rec.Code, rec.Body.String())
	}
	mr := decodeMutate(t, rec)
	if mr.Added != 3 || mr.Tables != 11 || mr.Segments < 1 || mr.IndexGeneration < 2 {
		t.Fatalf("mutate response = %+v", mr)
	}

	// Stats reflect the mutation.
	statsRec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(statsRec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var stats StatsResponse
	if err := json.Unmarshal(statsRec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Tables != 11 || stats.AnnotatedTables != 11 || stats.IndexGeneration != mr.IndexGeneration {
		t.Fatalf("stats after add = %+v", stats)
	}

	// The same query over the grown corpus accumulates at least as much
	// evidence (the new tables carry the same relation).
	after := postJSON(t, srv.Handler(), "/v1/search", searchBody(t, w, map[string]any{"mode": "typerel"}))
	var afterRes SearchResponse
	if err := json.Unmarshal(after.Body.Bytes(), &afterRes); err != nil {
		t.Fatal(err)
	}
	if afterRes.Total < beforeRes.Total {
		t.Fatalf("total shrank after add: %d -> %d", beforeRes.Total, afterRes.Total)
	}
}

func TestAddTablesRejections(t *testing.T) {
	svc, w := testService(t, 2)
	srv := New(svc, WithLogger(quietLogger()))
	extra := extraTables(t, w, 2)

	if rec := postJSON(t, srv.Handler(), "/v1/tables", addBody(t, extra, "majority")); rec.Code != http.StatusOK {
		t.Fatalf("first add: %d %s", rec.Code, rec.Body.String())
	}
	// Re-adding the same IDs is a conflict, and all-or-nothing.
	rec := postJSON(t, srv.Handler(), "/v1/tables", addBody(t, extra, "majority"))
	if rec.Code != http.StatusConflict {
		t.Fatalf("duplicate add status = %d, want 409", rec.Code)
	}
	if eb := decodeErr(t, rec); eb.Code != "duplicate_table" {
		t.Fatalf("duplicate add code = %q", eb.Code)
	}

	// A table with no ID cannot join the live corpus.
	anon := &table.Table{Context: "x", Headers: []string{"A", "B"}, Cells: [][]string{{"a", "b"}}}
	rec = postJSON(t, srv.Handler(), "/v1/tables", addBody(t, []*table.Table{anon}, "majority"))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("missing-id add status = %d, want 400", rec.Code)
	}
	if eb := decodeErr(t, rec); eb.Code != "missing_table_id" {
		t.Fatalf("missing-id code = %q", eb.Code)
	}

	// An empty batch is a bad request.
	rec = postJSON(t, srv.Handler(), "/v1/tables", []byte(`{"tables":[]}`))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty add status = %d, want 400", rec.Code)
	}
}

func TestRemoveTableEndpoint(t *testing.T) {
	svc, w := testService(t, 2)
	srv := New(svc, WithLogger(quietLogger()))
	extra := extraTables(t, w, 2)
	if rec := postJSON(t, srv.Handler(), "/v1/tables", addBody(t, extra, "majority")); rec.Code != http.StatusOK {
		t.Fatalf("add: %d %s", rec.Code, rec.Body.String())
	}

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/tables/"+extra[0].ID, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("delete status = %d: %s", rec.Code, rec.Body.String())
	}
	mr := decodeMutate(t, rec)
	if mr.Removed != 1 || mr.Tables != 9 {
		t.Fatalf("delete response = %+v", mr)
	}

	// Deleting it again: the ID is no longer live -> 404 unknown_table.
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/tables/"+extra[0].ID, nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("re-delete status = %d, want 404", rec.Code)
	}
	if eb := decodeErr(t, rec); eb.Code != "unknown_table" {
		t.Fatalf("re-delete code = %q", eb.Code)
	}

	// A never-seen ID is 404 too (the satellite fix: structured error,
	// not silent success).
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/tables/never-existed", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown delete status = %d, want 404", rec.Code)
	}
}

// TestSnapshotEndpoint: POST /v1/snapshot persists the mutated corpus to
// the configured path as a mode-0644 file of the size it reports;
// reloading it yields a service whose stats match. A save that fails —
// its request cancelled, or the write itself failing — leaves the
// previous file as it was and no temp file.
func TestSnapshotEndpoint(t *testing.T) {
	svc, w := testService(t, 2)
	path := t.TempDir() + "/corpus.snap"
	srv := New(svc, WithLogger(quietLogger()), WithSnapshotPath(path))

	extra := extraTables(t, w, 2)
	if rec := postJSON(t, srv.Handler(), "/v1/tables", addBody(t, extra, "majority")); rec.Code != http.StatusOK {
		t.Fatalf("add: %d %s", rec.Code, rec.Body.String())
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/tables/"+extra[1].ID, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("delete: %d %s", rec.Code, rec.Body.String())
	}

	rec = postJSON(t, srv.Handler(), "/v1/snapshot", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("snapshot status = %d: %s", rec.Code, rec.Body.String())
	}
	var sr SnapshotResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Path != path || sr.Bytes <= 0 {
		t.Fatalf("snapshot response = %+v", sr)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Errorf("snapshot mode = %v, want 0644", fi.Mode().Perm())
	}
	if sr.Bytes != fi.Size() {
		t.Errorf("response bytes = %d, file holds %d", sr.Bytes, fi.Size())
	}

	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	// A service with no corpus fails inside the write, after the temp
	// file exists.
	empty, err := webtable.NewService(w.Public)
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	for _, failing := range []struct {
		name string
		h    http.Handler
		req  *http.Request
	}{
		{"cancelled", srv.Handler(), httptest.NewRequest(http.MethodPost, "/v1/snapshot", nil).WithContext(cancelled)},
		{"failed write", New(empty, WithLogger(quietLogger()), WithSnapshotPath(path)).Handler(), httptest.NewRequest(http.MethodPost, "/v1/snapshot", nil)},
	} {
		rec := httptest.NewRecorder()
		failing.h.ServeHTTP(rec, failing.req)
		if rec.Code == http.StatusOK {
			t.Fatalf("%s save answered 200: %s", failing.name, rec.Body.String())
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, saved) {
			t.Fatalf("%s save changed the published snapshot (err %v)", failing.name, err)
		}
		if entries, err := os.ReadDir(filepath.Dir(path)); err != nil || len(entries) != 1 {
			t.Fatalf("%s save: directory holds %d entries (err %v), want the snapshot alone", failing.name, len(entries), err)
		}
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	loaded, err := webtable.LoadService(context.Background(), f)
	if err != nil {
		t.Fatalf("load persisted snapshot: %v", err)
	}
	defer loaded.Close()
	got, ok := loaded.CorpusStats()
	if !ok {
		t.Fatal("loaded service has no corpus")
	}
	want, _ := svc.CorpusStats()
	if got != want {
		t.Fatalf("reloaded stats %+v != served %+v", got, want)
	}
}

func TestSnapshotUnconfigured(t *testing.T) {
	svc, _ := testService(t, 2)
	srv := New(svc, WithLogger(quietLogger()))
	rec := postJSON(t, srv.Handler(), "/v1/snapshot", nil)
	if rec.Code != http.StatusConflict {
		t.Fatalf("status = %d, want 409", rec.Code)
	}
	if eb := decodeErr(t, rec); eb.Code != "snapshot_unconfigured" {
		t.Fatalf("code = %q", eb.Code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	svc, w := testService(t, 2)
	srv := New(svc, WithLogger(quietLogger()))
	h := srv.Handler()
	if rec := postJSON(t, h, "/v1/search", searchBody(t, w, nil)); rec.Code != http.StatusOK {
		t.Fatalf("search status = %d: %s", rec.Code, rec.Body.String())
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	page := rec.Body.String()
	for _, want := range []string{
		`search_requests_total{mode="Type+Rel"} 1`,
		`http_requests_total{route="POST /v1/search",method="POST",status="200"} 1`,
		"http_request_duration_seconds_bucket",
		"# TYPE corpus_tables gauge",
		"# TYPE service_worker_slots gauge",
		"# TYPE go_goroutines gauge", // merged process-global registry
		"# TYPE search_arena_bytes gauge",
		"# TYPE search_arena_grows_total counter",
		"# TYPE annotate_candidate_memo_total counter", // annotation counters, process-global
		"# TYPE bp_factor_walks_total counter",
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("scrape missing %q:\n%s", want, page)
		}
	}
	// The search above returned its arena to the pool: some capacity is
	// parked, and at least that execution grew one.
	for _, name := range []string{"search_arena_bytes", "search_arena_grows_total"} {
		if m := regexp.MustCompile(`(?m)^` + name + ` ([0-9.e+]+)$`).FindStringSubmatch(page); m == nil || m[1] == "0" {
			t.Fatalf("scrape: %s = %v, want a positive number:\n%s", name, m, page)
		}
	}
	// The resident-bytes gauges are the served view's own counts.
	rb, ok := svc.ResidentBytes()
	if !ok || rb.Cells == 0 || rb.Dictionaries == 0 || rb.Postings == 0 || rb.Tables == 0 {
		t.Fatalf("ResidentBytes = %+v, %v: want every part counted", rb, ok)
	}
	for part, n := range map[string]int64{"cells": rb.Cells, "dictionaries": rb.Dictionaries, "postings": rb.Postings, "tables": rb.Tables} {
		if want := fmt.Sprintf("corpus_resident_bytes{part=%q} %d\n", part, n); !strings.Contains(page, want) {
			t.Fatalf("scrape missing %q:\n%s", want, page)
		}
	}
}

// TestTraceSpanTree checks the acceptance shape: a traced search yields
// a span tree whose stages cover scan (and aggregate under parallel
// execution) and whose child durations fit inside the measured wall
// time of the request.
func TestTraceSpanTree(t *testing.T) {
	svc, w := testService(t, 2)
	srv := New(svc, WithLogger(quietLogger()))
	h := srv.Handler()

	req := httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(searchBody(t, w, map[string]any{"explain": true})))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "trace-accept-1")
	rec := httptest.NewRecorder()
	wallStart := time.Now()
	h.ServeHTTP(rec, req)
	wallMs := float64(time.Since(wallStart).Microseconds()) / 1000
	if rec.Code != http.StatusOK {
		t.Fatalf("search status = %d: %s", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/traces", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/traces = %d", rec.Code)
	}
	var resp struct {
		Traces []struct {
			ID         string  `json:"id"`
			DurationMs float64 `json:"duration_ms"`
			Root       struct {
				Name       string  `json:"name"`
				DurationMs float64 `json:"duration_ms"`
				Children   []struct {
					Name       string  `json:"name"`
					DurationMs float64 `json:"duration_ms"`
				} `json:"children"`
			} `json:"root"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("traces JSON: %v (%s)", err, rec.Body.String())
	}
	var found bool
	for _, tr := range resp.Traces {
		if tr.ID != "trace-accept-1" {
			continue
		}
		found = true
		if tr.Root.Name != "POST /v1/search" {
			t.Fatalf("root span = %q, want route name", tr.Root.Name)
		}
		stages := map[string]int{}
		var childSum float64
		for _, c := range tr.Root.Children {
			stages[c.Name]++
			childSum += c.DurationMs
		}
		// Every pipeline stage is exactly one span.
		for _, stage := range []string{"search.validate", "search.plan", "search.scan", "search.aggregate", "search.select", "search.explain"} {
			if stages[stage] != 1 {
				t.Fatalf("span tree has %d %q spans, want 1; have %v", stages[stage], stage, stages)
			}
		}
		if childSum > tr.Root.DurationMs {
			t.Fatalf("child spans sum %.3fms exceeds root %.3fms", childSum, tr.Root.DurationMs)
		}
		if tr.Root.DurationMs > wallMs {
			t.Fatalf("root span %.3fms exceeds measured wall time %.3fms", tr.Root.DurationMs, wallMs)
		}
	}
	if !found {
		t.Fatalf("trace trace-accept-1 not in ring: %s", rec.Body.String())
	}
}

// TestAddTablesTraced: a traced POST /v1/tables carries, under its request
// span, each table's annotation stages — annotate.candidates,
// annotate.graph and annotate.bp, one of each per collectively annotated
// table — and the segment.add that appends the batch. A loaded service
// builds its annotator on its first annotating call, so the first such
// request after a load also carries one service.annotator span, and the
// next none.
func TestAddTablesTraced(t *testing.T) {
	src, w := testService(t, 2)
	var raw bytes.Buffer
	if err := src.SaveSnapshot(context.Background(), &raw); err != nil {
		t.Fatal(err)
	}
	svc, err := webtable.LoadService(context.Background(), &raw)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h := New(svc, WithLogger(quietLogger())).Handler()
	extra := extraTables(t, w, 6)
	for i, builds := range []int{1, 0} {
		id := fmt.Sprintf("trace-add-%d", i)
		req := httptest.NewRequest(http.MethodPost, "/v1/tables", bytes.NewReader(addBody(t, extra[3*i:3*i+3], "collective")))
		req.Header.Set("X-Request-ID", id)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("add status = %d: %s", rec.Code, rec.Body.String())
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/traces/"+id, nil))
		var tr struct {
			Root struct {
				Name       string  `json:"name"`
				DurationMs float64 `json:"duration_ms"`
				Children   []struct {
					Name       string  `json:"name"`
					DurationMs float64 `json:"duration_ms"`
				} `json:"children"`
			} `json:"root"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("GET /v1/traces/%s = %d: %v (%s)", id, rec.Code, err, rec.Body.String())
		}
		if tr.Root.Name != "POST /v1/tables" {
			t.Fatalf("root span = %q, want the route", tr.Root.Name)
		}
		stages := map[string]int{}
		for _, c := range tr.Root.Children {
			stages[c.Name]++
			if c.DurationMs > tr.Root.DurationMs {
				t.Fatalf("span %s lasts %.3fms, longer than its request (%.3fms)", c.Name, c.DurationMs, tr.Root.DurationMs)
			}
		}
		want := map[string]int{"annotate.candidates": 3, "annotate.graph": 3, "annotate.bp": 3, "segment.add": 1, "service.annotator": builds}
		for name, n := range want {
			if stages[name] != n {
				t.Fatalf("%s: span tree has %d %q spans, want %d; have %v", id, stages[name], name, n, stages)
			}
		}
	}
}
