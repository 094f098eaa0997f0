package webtable_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	webtable "repro"
	"repro/internal/server"
	"repro/internal/table"
	"repro/internal/worldgen"
)

func testWorld(t *testing.T) *worldgen.World {
	t.Helper()
	spec := worldgen.DefaultSpec()
	spec.FilmsPerGenre = 12
	spec.NovelsPerGenre = 10
	spec.PeoplePerRole = 15
	spec.AlbumCount = 20
	spec.CountryCount = 8
	spec.CitiesPerCountry = 2
	spec.LanguageCount = 8
	w, err := worldgen.Build(spec)
	if err != nil {
		t.Fatalf("build world: %v", err)
	}
	return w
}

func corpusTables(w *worldgen.World, n int) []*table.Table {
	ds := w.SearchCorpus(n, 7)
	out := make([]*table.Table, len(ds.Tables))
	for i, lt := range ds.Tables {
		out[i] = lt.Table
	}
	return out
}

// TestServiceAnnotateCorpusParallel drives the corpus fan-out with >= 4
// workers (run under `go test -race` in CI) and checks that the parallel
// results are identical to one-at-a-time annotation — concurrency must
// not change the labeling.
func TestServiceAnnotateCorpusParallel(t *testing.T) {
	w := testWorld(t)
	tables := corpusTables(w, 12)
	svc, err := webtable.NewService(w.Public, webtable.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if svc.Workers() != 4 {
		t.Fatalf("workers = %d, want 4", svc.Workers())
	}

	ctx := context.Background()
	parallel, err := svc.AnnotateCorpus(ctx, tables)
	if err != nil {
		t.Fatalf("annotate corpus: %v", err)
	}
	if len(parallel) != len(tables) {
		t.Fatalf("got %d annotations, want %d", len(parallel), len(tables))
	}

	for i, tab := range tables {
		serial, err := svc.AnnotateTable(ctx, tab)
		if err != nil {
			t.Fatalf("table %d: %v", i, err)
		}
		p := parallel[i]
		if p == nil {
			t.Fatalf("table %d: nil parallel annotation", i)
		}
		if p.TableID != tab.ID {
			t.Errorf("table %d: ID %q, want %q", i, p.TableID, tab.ID)
		}
		for c := range serial.ColumnTypes {
			if p.ColumnTypes[c] != serial.ColumnTypes[c] {
				t.Errorf("table %d col %d: parallel type %v != serial %v",
					i, c, p.ColumnTypes[c], serial.ColumnTypes[c])
			}
		}
		for r := range serial.CellEntities {
			for c := range serial.CellEntities[r] {
				if p.CellEntities[r][c] != serial.CellEntities[r][c] {
					t.Errorf("table %d cell (%d,%d): parallel %v != serial %v",
						i, r, c, p.CellEntities[r][c], serial.CellEntities[r][c])
				}
			}
		}
	}
}

// TestServiceAnnotateCorpusOverlapping: a service's workers share one
// candidate memo. Over tables that repeat each other's cells — each table,
// a window of its rows and its rows reversed — a four-worker
// AnnotateCorpus returns exactly what a one-worker service annotating one
// table at a time does, timings aside. Run under -race in CI.
func TestServiceAnnotateCorpusOverlapping(t *testing.T) {
	w := testWorld(t)
	var tables []*table.Table
	for _, tab := range corpusTables(w, 8) {
		window, reversed := tab.Clone(), tab.Clone()
		window.ID, reversed.ID = tab.ID+"/window", tab.ID+"/reversed"
		window.Cells = window.Cells[len(window.Cells)/3:]
		slices.Reverse(reversed.Cells)
		tables = append(tables, tab, window, reversed)
	}
	ctx := context.Background()
	untimed := func(ann *webtable.Annotation) *webtable.Annotation {
		ann.Diag.CandidateGen, ann.Diag.GraphBuild, ann.Diag.Inference = 0, 0, 0
		return ann
	}
	serialSvc, err := webtable.NewService(w.Public, webtable.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer serialSvc.Close()
	svc, err := webtable.NewService(w.Public, webtable.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	parallel, err := svc.AnnotateCorpus(ctx, tables)
	if err != nil {
		t.Fatal(err)
	}
	for i, tab := range tables {
		serial, err := serialSvc.AnnotateTable(ctx, tab)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := untimed(parallel[i]), untimed(serial); !reflect.DeepEqual(got, want) {
			t.Errorf("table %s: four workers annotate %+v, one worker %+v", tab.ID, got, want)
		}
	}
}

// TestServiceConcurrentCalls hammers one service from many goroutines
// mixing single-table and corpus calls (meaningful under -race: shared
// lemma index + sharded feature cache).
func TestServiceConcurrentCalls(t *testing.T) {
	w := testWorld(t)
	tables := corpusTables(w, 8)
	svc, err := webtable.NewService(w.Public, webtable.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				if _, err := svc.AnnotateCorpus(ctx, tables); err != nil {
					errs <- err
				}
				return
			}
			for _, tab := range tables {
				if _, err := svc.AnnotateTable(ctx, tab, webtable.WithMethod(webtable.MethodSimple)); err != nil {
					errs <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent call: %v", err)
	}
}

// TestServiceAnnotateCorpusCancelled asserts that an already-cancelled
// context aborts before any annotation is produced.
func TestServiceAnnotateCorpusCancelled(t *testing.T) {
	w := testWorld(t)
	tables := corpusTables(w, 6)
	svc, err := webtable.NewService(w.Public, webtable.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	anns, err := svc.AnnotateCorpus(ctx, tables)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, a := range anns {
		if a != nil {
			t.Errorf("table %d annotated despite pre-cancelled context", i)
		}
	}
}

// TestServiceAnnotateCorpusDeadline asserts that a deadline expiring
// mid-corpus aborts the fan-out: the call returns DeadlineExceeded and at
// least one table is left unannotated.
func TestServiceAnnotateCorpusDeadline(t *testing.T) {
	w := testWorld(t)
	// Large enough that 1ms cannot possibly cover it.
	tables := corpusTables(w, 150)
	svc, err := webtable.NewService(w.Public, webtable.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	anns, err := svc.AnnotateCorpus(ctx, tables)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if len(anns) != len(tables) {
		t.Fatalf("got %d slots, want %d", len(anns), len(tables))
	}
	missing := 0
	for _, a := range anns {
		if a == nil {
			missing++
		}
	}
	if missing == 0 {
		t.Error("deadline expired but every table was annotated")
	}
}

// TestServiceStructuredErrors covers the invalid-input paths that used to
// be silent catalog.None fallbacks.
func TestServiceStructuredErrors(t *testing.T) {
	if _, err := webtable.NewService(nil); !errors.Is(err, webtable.ErrNilCatalog) {
		t.Errorf("nil catalog: err = %v", err)
	}

	w := testWorld(t)
	svc, err := webtable.NewService(w.Public, webtable.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if _, err := svc.AnnotateTable(ctx, nil); !errors.Is(err, webtable.ErrNilTable) {
		t.Errorf("nil table: err = %v", err)
	}
	if _, err := webtable.NewService(w.Public, webtable.WithWorkers(0)); !errors.Is(err, webtable.ErrInvalidOption) {
		t.Errorf("zero workers: err = %v", err)
	}

	// A corpus containing a nil table fails that slot only, reported as a
	// CorpusError with the index attached.
	tables := corpusTables(w, 3)
	tables[1] = nil
	anns, err := svc.AnnotateCorpus(ctx, tables)
	var ce *webtable.CorpusError
	if !errors.As(err, &ce) {
		t.Fatalf("nil corpus entry: err = %v, want CorpusError", err)
	}
	if len(ce.Failures) != 1 || ce.Failures[0].Index != 1 {
		t.Fatalf("failures = %+v, want one at index 1", ce.Failures)
	}
	if !errors.Is(err, webtable.ErrNilTable) {
		t.Errorf("CorpusError does not unwrap to ErrNilTable: %v", err)
	}
	if anns[0] == nil || anns[2] == nil {
		t.Error("healthy tables not annotated alongside the failure")
	}

	// Search before BuildIndex.
	if _, err := svc.Search(ctx, webtable.SearchRequest{}); !errors.Is(err, webtable.ErrNoIndex) {
		t.Errorf("search without index: err = %v", err)
	}
	if _, err := svc.SearchBatch(ctx, []webtable.SearchRequest{{}}); !errors.Is(err, webtable.ErrNoIndex) {
		t.Errorf("batch without index: err = %v", err)
	}

	// Unknown names resolve to structured errors, not silent None.
	if _, err := svc.ResolveQuery("nonesuch", "Film", "Director", "x"); !errors.Is(err, webtable.ErrUnknownName) {
		t.Errorf("unknown relation: err = %v", err)
	}

	// An invalid query (missing relation in TypeRel mode) is rejected.
	if _, err := svc.BuildIndex(ctx, corpusTables(w, 2)); err != nil {
		t.Fatalf("build index: %v", err)
	}
	_, err = svc.Search(ctx, webtable.SearchRequest{
		Mode:  webtable.SearchTypeRel,
		Query: webtable.SearchQuery{Relation: webtable.None, T1Text: "a", T2Text: "b"},
	})
	var qe *webtable.QueryError
	if !errors.As(err, &qe) || !errors.Is(err, webtable.ErrInvalidQuery) {
		t.Errorf("invalid TypeRel query: err = %v, want QueryError/ErrInvalidQuery", err)
	}
	// Baseline mode instead requires the surface forms.
	_, err = svc.Search(ctx, webtable.SearchRequest{Mode: webtable.SearchBaseline})
	if !errors.Is(err, webtable.ErrInvalidQuery) {
		t.Errorf("baseline query without text: err = %v, want ErrInvalidQuery", err)
	}
}

// TestServiceRejectsRaggedTables: a hand-built table whose rows differ
// in length used to panic inside candidate generation (an index out of
// range), and inside a worker goroutine when it came through
// AnnotateCorpus or BuildIndex, which ended the process. Every method
// now returns table.ErrRagged, and an empty table table.ErrEmpty; corpus
// calls report them per table in a *CorpusError, as AddTables does.
func TestServiceRejectsRaggedTables(t *testing.T) {
	w := testWorld(t)
	svc, err := webtable.NewService(w.Public, webtable.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	ragged := func() *webtable.Table {
		return &webtable.Table{
			ID:      "ragged",
			Headers: []string{"Film", "Director"},
			Cells:   [][]string{{"Alien", "Ridley Scott"}, {"Heat"}},
		}
	}
	for _, m := range []webtable.Method{webtable.MethodCollective, webtable.MethodSimple, webtable.MethodLCA, webtable.MethodMajority} {
		if _, err := svc.AnnotateTable(ctx, ragged(), webtable.WithMethod(m)); !errors.Is(err, table.ErrRagged) {
			t.Errorf("%v: ragged table: err = %v, want ErrRagged", m, err)
		}
		if _, err := svc.AnnotateTable(ctx, &webtable.Table{ID: "empty"}, webtable.WithMethod(m)); !errors.Is(err, table.ErrEmpty) {
			t.Errorf("%v: empty table: err = %v, want ErrEmpty", m, err)
		}
	}

	tables := corpusTables(w, 3)
	tables[1] = ragged()
	anns, err := svc.AnnotateCorpus(ctx, tables)
	var ce *webtable.CorpusError
	if !errors.As(err, &ce) || len(ce.Failures) != 1 || ce.Failures[0].Index != 1 || !errors.Is(err, table.ErrRagged) {
		t.Fatalf("AnnotateCorpus: err = %v, want one ErrRagged failure at index 1", err)
	}
	if anns[0] == nil || anns[1] != nil || anns[2] == nil {
		t.Errorf("AnnotateCorpus: annotations %v, want the two healthy tables annotated", anns)
	}
	if _, err := svc.BuildIndex(ctx, tables); !errors.As(err, &ce) || !errors.Is(err, table.ErrRagged) {
		t.Errorf("BuildIndex: err = %v, want a CorpusError wrapping ErrRagged", err)
	}
	if _, ok := svc.CorpusStats(); ok {
		t.Error("BuildIndex built a corpus from a batch with a ragged table")
	}
}

// TestValidateQueryMatrix exercises every QueryError field/mode
// combination the request validator can emit: missing surface forms in
// Baseline mode, missing type IDs in Type mode, missing relation + type
// IDs in TypeRel mode, and a negative page size in any mode.
func TestValidateQueryMatrix(t *testing.T) {
	w := testWorld(t)
	svc, err := webtable.NewService(w.Public, webtable.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := svc.BuildIndex(ctx, corpusTables(w, 2)); err != nil {
		t.Fatalf("build index: %v", err)
	}

	film, ok := w.Public.TypeByName("Film")
	if !ok {
		t.Fatal("no Film type")
	}
	directed, ok := w.Public.RelationByName("directed")
	if !ok {
		t.Fatal("no directed relation")
	}

	cases := []struct {
		name    string
		req     webtable.SearchRequest
		field   string
		wantErr error
	}{
		{"baseline/missing-t1-text", webtable.SearchRequest{
			Mode:  webtable.SearchBaseline,
			Query: webtable.SearchQuery{T2Text: "director"},
		}, "t1_text", nil},
		{"baseline/missing-t2-text", webtable.SearchRequest{
			Mode:  webtable.SearchBaseline,
			Query: webtable.SearchQuery{T1Text: "film"},
		}, "t2_text", nil},
		{"type/missing-t1", webtable.SearchRequest{
			Mode:  webtable.SearchType,
			Query: webtable.SearchQuery{T1: webtable.None, T2: film},
		}, "t1", nil},
		{"type/missing-t2", webtable.SearchRequest{
			Mode:  webtable.SearchType,
			Query: webtable.SearchQuery{T1: film, T2: webtable.None},
		}, "t2", nil},
		{"typerel/missing-relation", webtable.SearchRequest{
			Mode:  webtable.SearchTypeRel,
			Query: webtable.SearchQuery{Relation: webtable.None, T1: film, T2: film},
		}, "relation", nil},
		{"typerel/missing-t1", webtable.SearchRequest{
			Mode:  webtable.SearchTypeRel,
			Query: webtable.SearchQuery{Relation: directed, T1: webtable.None, T2: film},
		}, "t1", nil},
		{"typerel/missing-t2", webtable.SearchRequest{
			Mode:  webtable.SearchTypeRel,
			Query: webtable.SearchQuery{Relation: directed, T1: film, T2: webtable.None},
		}, "t2", nil},
		{"baseline/missing-e2-text", webtable.SearchRequest{
			Mode:  webtable.SearchBaseline,
			Query: webtable.SearchQuery{T1Text: "film", T2Text: "director"},
		}, "e2_text", nil},
		{"type/missing-probe", webtable.SearchRequest{
			Mode:  webtable.SearchType,
			Query: webtable.SearchQuery{T1: film, T2: film, E2: webtable.None},
		}, "e2", nil},
		{"typerel/missing-probe", webtable.SearchRequest{
			Mode:  webtable.SearchTypeRel,
			Query: webtable.SearchQuery{Relation: directed, T1: film, T2: film, E2: webtable.None},
		}, "e2", nil},
		{"negative-page-size", webtable.SearchRequest{
			Mode:     webtable.SearchBaseline,
			Query:    webtable.SearchQuery{T1Text: "film", T2Text: "director"},
			PageSize: -1,
		}, "page_size", webtable.ErrInvalidPageSize},
		{"out-of-range-mode", webtable.SearchRequest{
			Mode:  webtable.SearchMode(7),
			Query: webtable.SearchQuery{T1Text: "film", T2Text: "director"},
		}, "mode", webtable.ErrInvalidMode},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := svc.Search(ctx, tc.req)
			var qe *webtable.QueryError
			if !errors.As(err, &qe) {
				t.Fatalf("err = %v, want *QueryError", err)
			}
			if qe.Field != tc.field {
				t.Errorf("field = %q, want %q", qe.Field, tc.field)
			}
			want := tc.wantErr
			if want == nil {
				want = webtable.ErrInvalidQuery
			}
			if !errors.Is(err, want) {
				t.Errorf("err = %v, want %v", err, want)
			}
		})
	}

	// A corrupted cursor is rejected with ErrInvalidCursor.
	_, err = svc.Search(ctx, webtable.SearchRequest{
		Mode:   webtable.SearchBaseline,
		Query:  webtable.SearchQuery{T1Text: "film", T2Text: "director", E2Text: "someone"},
		Cursor: "!!!not-a-cursor!!!",
	})
	if !errors.Is(err, webtable.ErrInvalidCursor) {
		t.Errorf("bad cursor: err = %v, want ErrInvalidCursor", err)
	}
}

// TestResolveQueryErrorPaths covers each unresolvable-name field of
// ResolveQuery, plus the documented non-error: an out-of-catalog E2
// falls back to text matching with E2 = None.
func TestResolveQueryErrorPaths(t *testing.T) {
	w := testWorld(t)
	svc, err := webtable.NewService(w.Public, webtable.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name               string
		rel, t1, t2, field string
	}{
		{"unknown-relation", "nonesuch", "Film", "Director", "relation"},
		{"unknown-t1", "directed", "Nonesuch", "Director", "t1"},
		{"unknown-t2", "directed", "Film", "Nonesuch", "t2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := svc.ResolveQuery(tc.rel, tc.t1, tc.t2, "whoever")
			var qe *webtable.QueryError
			if !errors.As(err, &qe) {
				t.Fatalf("err = %v, want *QueryError", err)
			}
			if qe.Field != tc.field {
				t.Errorf("field = %q, want %q", qe.Field, tc.field)
			}
			if !errors.Is(err, webtable.ErrUnknownName) {
				t.Errorf("err = %v, want ErrUnknownName", err)
			}
		})
	}

	// An empty name is not an unknown one: it resolves to None, and
	// Search then reports the field as missing (ErrInvalidQuery) — the
	// field POST /v1/search's 400 names for the same request.
	ctx := context.Background()
	if _, err := svc.BuildIndex(ctx, corpusTables(w, 6), webtable.WithMethod(webtable.MethodMajority)); err != nil {
		t.Fatal(err)
	}
	h := server.New(svc, server.WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))).Handler()
	for _, tc := range []struct{ rel, t1, t2, e2, field string }{
		{"", "Film", "Director", "whoever", "relation"},
		{"directed", "", "Director", "whoever", "t1"},
		{"directed", "Film", "", "whoever", "t2"},
		{"directed", "Film", "Director", "", "e2"},
	} {
		q, err := svc.ResolveQuery(tc.rel, tc.t1, tc.t2, tc.e2)
		if err != nil {
			t.Errorf("empty %s: ResolveQuery err = %v, want nil", tc.field, err)
			continue
		}
		if (tc.rel == "" && q.Relation != webtable.None) || (tc.t1 == "" && q.T1 != webtable.None) ||
			(tc.t2 == "" && q.T2 != webtable.None) || (tc.e2 == "" && q.E2 != webtable.None) {
			t.Errorf("empty %s resolved to %+v, want None", tc.field, q)
		}
		_, err = svc.Search(ctx, webtable.SearchRequest{Query: q, Mode: webtable.SearchTypeRel})
		var qe *webtable.QueryError
		if !errors.Is(err, webtable.ErrInvalidQuery) || !errors.As(err, &qe) || qe.Field != tc.field {
			t.Errorf("empty %s: Search err = %v, want ErrInvalidQuery on field %q", tc.field, err, tc.field)
		}
		body, err := json.Marshal(server.SearchRequest{Relation: tc.rel, T1: tc.t1, T2: tc.t2, E2: tc.e2})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body)))
		var er server.ErrorResponse
		if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &er) != nil ||
			er.Error.Code != "invalid_query" || er.Error.Field != tc.field {
			t.Errorf("empty %s: POST /v1/search = %d %s, want 400 invalid_query on field %q",
				tc.field, rec.Code, rec.Body.String(), tc.field)
		}
	}

	// Unknown E2 is NOT an error (§5: the probe entity may be outside the
	// catalog); it resolves to None with the surface form preserved.
	q, err := svc.ResolveQuery("directed", "Film", "Director", "Nobody In Particular")
	if err != nil {
		t.Fatalf("unknown e2: err = %v, want nil", err)
	}
	if q.E2 != webtable.None {
		t.Errorf("unknown e2 resolved to %v, want None", q.E2)
	}
	if q.E2Text != "Nobody In Particular" {
		t.Errorf("e2 text = %q", q.E2Text)
	}

	// A known E2 resolves to its catalog ID. The workload names come from
	// the complete world; pick one the degraded public catalog retains.
	known := ""
	for _, wq := range w.SearchWorkload([]string{"directed"}, 10, 7) {
		name := w.True.EntityName(wq.E2)
		if _, ok := w.Public.EntityByName(name); ok {
			known = name
			break
		}
	}
	if known == "" {
		t.Skip("no workload probe entity present in the public catalog")
	}
	q, err = svc.ResolveQuery("directed", "Film", "Director", known)
	if err != nil {
		t.Fatalf("known e2: %v", err)
	}
	if q.E2 == webtable.None {
		t.Errorf("known e2 %q resolved to None", known)
	}
}

// TestServiceSearchPagination pages through a ranking and checks the
// concatenation of pages is exactly the full ranking, page sizes are
// honored, and the totals agree.
func TestServiceSearchPagination(t *testing.T) {
	w := testWorld(t)
	tables := corpusTables(w, 30)
	svc, err := webtable.NewService(w.Public, webtable.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := svc.BuildIndex(ctx, tables); err != nil {
		t.Fatalf("build index: %v", err)
	}

	workload := w.SearchWorkload([]string{"directed", "actedIn"}, 2, 7)
	for _, wq := range workload {
		for _, mode := range []webtable.SearchMode{webtable.SearchType, webtable.SearchTypeRel} {
			full, err := svc.Search(ctx, w.Request(wq, mode, 0))
			if err != nil {
				t.Fatalf("full search: %v", err)
			}
			if full.NextCursor != "" {
				t.Errorf("full ranking left a next cursor")
			}
			if full.Total != len(full.Answers) {
				t.Errorf("full: total %d != %d answers", full.Total, len(full.Answers))
			}

			var paged []webtable.SearchAnswer
			pages := 0
			for res, err := range svc.SearchAll(ctx, w.Request(wq, mode, 2)) {
				if err != nil {
					t.Fatalf("page: %v", err)
				}
				pages++
				if len(res.Answers) > 2 {
					t.Fatalf("page of %d answers, want <= 2", len(res.Answers))
				}
				if res.Total != full.Total {
					t.Errorf("page total %d != full total %d", res.Total, full.Total)
				}
				paged = append(paged, res.Answers...)
				if pages > full.Total+1 {
					t.Fatal("runaway pagination")
				}
			}
			if len(paged) != len(full.Answers) {
				t.Fatalf("paged %d answers, full %d", len(paged), len(full.Answers))
			}
			for i := range paged {
				if paged[i].Text != full.Answers[i].Text ||
					paged[i].Entity != full.Answers[i].Entity ||
					paged[i].Score != full.Answers[i].Score ||
					paged[i].Support != full.Answers[i].Support {
					t.Fatalf("page order diverges at %d: %+v != %+v", i, paged[i], full.Answers[i])
				}
			}
		}
	}
}

// TestServiceSearchBatch checks the batch fan-out returns the same
// results as sequential Search calls and aggregates per-request failures
// without dropping the healthy ones.
func TestServiceSearchBatch(t *testing.T) {
	w := testWorld(t)
	tables := corpusTables(w, 20)
	svc, err := webtable.NewService(w.Public, webtable.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := svc.BuildIndex(ctx, tables); err != nil {
		t.Fatalf("build index: %v", err)
	}

	workload := w.SearchWorkload([]string{"directed", "wrote"}, 2, 7)
	var reqs []webtable.SearchRequest
	for _, wq := range workload {
		reqs = append(reqs, w.Request(wq, webtable.SearchTypeRel, 5))
	}
	batch, err := svc.SearchBatch(ctx, reqs)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(batch) != len(reqs) {
		t.Fatalf("batch returned %d results for %d requests", len(batch), len(reqs))
	}
	for i, req := range reqs {
		single, err := svc.Search(ctx, req)
		if err != nil {
			t.Fatalf("single %d: %v", i, err)
		}
		if batch[i] == nil {
			t.Fatalf("request %d: nil batch result", i)
		}
		if batch[i].Total != single.Total || len(batch[i].Answers) != len(single.Answers) {
			t.Fatalf("request %d: batch (%d/%d) != single (%d/%d)",
				i, batch[i].Total, len(batch[i].Answers), single.Total, len(single.Answers))
		}
		for j := range single.Answers {
			if batch[i].Answers[j] != single.Answers[j] {
				t.Fatalf("request %d answer %d differs", i, j)
			}
		}
	}

	// One poisoned request: the rest still complete, the failure is
	// located by index.
	bad := append([]webtable.SearchRequest{}, reqs...)
	bad[1] = webtable.SearchRequest{ // relation left unset
		Mode:  webtable.SearchTypeRel,
		Query: webtable.SearchQuery{Relation: webtable.None},
	}
	res, err := svc.SearchBatch(ctx, bad)
	var be *webtable.BatchError
	if !errors.As(err, &be) {
		t.Fatalf("poisoned batch: err = %v, want *BatchError", err)
	}
	if len(be.Failures) != 1 || be.Failures[0].Index != 1 {
		t.Fatalf("failures = %+v, want one at index 1", be.Failures)
	}
	if !errors.Is(err, webtable.ErrInvalidQuery) {
		t.Errorf("BatchError does not unwrap to ErrInvalidQuery: %v", err)
	}
	if res[0] == nil || res[2] == nil {
		t.Error("healthy requests not answered alongside the failure")
	}
	if res[1] != nil {
		t.Error("failed request has a result")
	}

	// Pre-cancelled context aborts the fan-out with the context error.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := svc.SearchBatch(cctx, reqs); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled batch: err = %v, want context.Canceled", err)
	}
}

// TestServiceSearchEndToEnd runs annotate → index → search through the
// Service and checks the ground-truth subject surfaces in TypeRel mode.
func TestServiceSearchEndToEnd(t *testing.T) {
	w := testWorld(t)
	tables := corpusTables(w, 30)
	svc, err := webtable.NewService(w.Public, webtable.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := svc.BuildIndex(ctx, tables); err != nil {
		t.Fatalf("build index: %v", err)
	}
	if stats, ok := svc.CorpusStats(); !ok || stats.Tables != len(tables) {
		t.Fatalf("index not retained: stats %+v ok=%v, want %d tables", stats, ok, len(tables))
	}

	workload := w.SearchWorkload([]string{"directed"}, 3, 7)
	if len(workload) == 0 {
		t.Fatal("empty workload")
	}
	ri, _ := w.Rel("directed")
	found := 0
	for _, wq := range workload {
		q := webtable.SearchQuery{
			Relation:     wq.Relation,
			T1:           wq.T1,
			T2:           wq.T2,
			E2:           wq.E2,
			RelationText: ri.ContextWords[0],
			T1Text:       w.True.TypeName(wq.T1),
			T2Text:       w.True.TypeName(wq.T2),
			E2Text:       wq.E2Name,
		}
		res, err := svc.Search(ctx, webtable.SearchRequest{
			Query: q, Mode: webtable.SearchTypeRel, PageSize: 5,
		})
		if err != nil {
			t.Fatalf("search: %v", err)
		}
		want := make(map[string]bool)
		for _, e1 := range wq.WantE1 {
			want[w.True.EntityName(e1)] = true
		}
		for _, a := range res.Answers {
			if want[a.Text] {
				found++
				break
			}
		}
	}
	if found == 0 {
		t.Error("no query surfaced a ground-truth subject in TypeRel mode")
	}
}

// TestServicePerCallOverrides checks that WithMethod changes the call
// without changing the service's default method.
func TestServicePerCallOverrides(t *testing.T) {
	w := testWorld(t)
	tables := corpusTables(w, 2)
	svc, err := webtable.NewService(w.Public, webtable.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	normal, err := svc.AnnotateTable(ctx, tables[0])
	if err != nil {
		t.Fatal(err)
	}
	if normal.Diag.Iterations < 1 {
		t.Errorf("default call: %d iterations", normal.Diag.Iterations)
	}

	// Method override: LCA sets no relation annotations.
	lca, err := svc.AnnotateTable(ctx, tables[0], webtable.WithMethod(webtable.MethodLCA))
	if err != nil {
		t.Fatal(err)
	}
	if len(lca.Relations) != 0 {
		t.Errorf("LCA produced %d relation annotations", len(lca.Relations))
	}
}
