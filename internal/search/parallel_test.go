package search

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/searchidx"
	"repro/internal/table"
)

// eagerParallelism is WithParallelism without the engine's small-plan
// rule (minParallelRows): these fixtures are a few hundred rows, and the
// tests below are about what the parallel machinery does to them.
func eagerParallelism(n int) EngineOption {
	return func(e *Engine) {
		WithParallelism(n)(e)
		e.serialBelow = 0
	}
}

// --- shardCuts unit tests ---

func TestShardCutsEvenSplit(t *testing.T) {
	got := shardCuts(nil, 100, 4)
	want := []int{0, 25, 50, 75, 100}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cuts = %v, want %v", got, want)
	}
}

func TestShardCutsClampsToPairs(t *testing.T) {
	got := shardCuts(nil, 3, 8)
	want := []int{0, 1, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cuts = %v, want %v", got, want)
	}
	if got := shardCuts(nil, 1, 8); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("single pair: cuts = %v", got)
	}
}

// --- serial ≡ parallel equivalence (engine level) ---

// variantFixture builds a corpus whose answers are text clusters with
// several raw spellings spread over many tables, so parallel shards
// split clusters, surface-form counts, and explanation sources across
// workers.
func variantFixture(t testing.TB, nTables, rowsPerTable int) (*searchidx.Index, Query) {
	t.Helper()
	c, tables, anns, q := variantCorpus(t, nTables, rowsPerTable)
	return searchidx.New(c, tables, anns), q
}

// variantCorpus is variantFixture's raw material — catalog, tables and
// annotations — for callers that index contiguous table ranges
// separately.
func variantCorpus(t testing.TB, nTables, rowsPerTable int) (*catalog.Catalog, []*table.Table, []*core.Annotation, Query) {
	t.Helper()
	c := catalog.New()
	film, err := c.AddType("Film", "movie")
	if err != nil {
		t.Fatal(err)
	}
	director, err := c.AddType("Director", "director")
	if err != nil {
		t.Fatal(err)
	}
	directed, err := c.AddRelation("directed", film, director, catalog.ManyToOne)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := c.AddEntity("Solo Auteur", nil, director)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	spell := func(i int) string {
		// A handful of answer clusters, each with casing variants whose
		// dominant form only emerges across tables.
		base := fmt.Sprintf("Film Cluster %d", i%9)
		if i%4 == 0 {
			return "  " + base + "  "
		}
		if i%7 == 0 {
			return "FILM CLUSTER " + fmt.Sprint(i%9)
		}
		return base
	}
	var tables []*table.Table
	var anns []*core.Annotation
	for ti := 0; ti < nTables; ti++ {
		tab := &table.Table{
			ID:      fmt.Sprintf("t%d", ti),
			Context: "films directed by people",
			Headers: []string{"Film", "Director"},
		}
		ann := &core.Annotation{
			ColumnTypes: []catalog.TypeID{film, director},
			Relations: []core.RelationAnnotation{{
				Col1: 0, Col2: 1, Relation: directed, Forward: true,
			}},
		}
		for r := 0; r < rowsPerTable; r++ {
			tab.Cells = append(tab.Cells, []string{spell(ti*rowsPerTable + r), "Solo Auteur"})
			ann.CellEntities = append(ann.CellEntities, []catalog.EntityID{catalog.None, d1})
		}
		tables = append(tables, tab)
		anns = append(anns, ann)
	}
	return c, tables, anns, Query{
		Relation: directed, T1: film, T2: director, E2: d1,
		RelationText: "directed", T1Text: "Film movie", T2Text: "Director person",
		E2Text: "Solo Auteur",
	}
}

// TestParallelMatchesSerial is the tentpole equivalence property at the
// engine level: for every mode, page size, cursor chain and explanation,
// a parallel engine returns exactly what the serial engine returns —
// scores, order, totals, cursors and provenance included.
func TestParallelMatchesSerial(t *testing.T) {
	ix, q := variantFixture(t, 24, 7)
	serial := NewEngineOver(ix)
	ctx := context.Background()
	for _, par := range []int{2, 3, 16} {
		parallel := NewEngineOver(ix, eagerParallelism(par))
		if parallel.Parallelism() != par {
			t.Fatalf("parallelism = %d, want %d", parallel.Parallelism(), par)
		}
		for _, mode := range []Mode{Baseline, Type, TypeRel} {
			for _, pageSize := range []int{0, 1, 4, 100} {
				cursor := ""
				for page := 0; page < 30; page++ {
					req := Request{Query: q, Mode: mode, PageSize: pageSize, Cursor: cursor, Explain: true}
					want, err := serial.Execute(ctx, req)
					if err != nil {
						t.Fatal(err)
					}
					got, err := parallel.Execute(ctx, req)
					if err != nil {
						t.Fatal(err)
					}
					// Stats timings are wall clock; equivalence is asserted on the
					// result with Stats stripped and on the deterministic counters.
					gotStats, wantStats := got.Stats, want.Stats
					got.Stats, want.Stats = nil, nil
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("par=%d %v pageSize=%d page=%d:\n got  %+v\n want %+v",
							par, mode, pageSize, page, got, want)
					}
					if gotStats.CandidatePairs != wantStats.CandidatePairs ||
						gotStats.PairsMatched != wantStats.PairsMatched ||
						gotStats.RowsScanned != wantStats.RowsScanned ||
						gotStats.AnswersBeforeTopK != wantStats.AnswersBeforeTopK ||
						gotStats.SegmentsVisited != wantStats.SegmentsVisited ||
						gotStats.TombstonesSkipped != wantStats.TombstonesSkipped {
						t.Fatalf("par=%d %v pageSize=%d page=%d: parallel counters diverge from serial:\n got  %+v\n want %+v",
							par, mode, pageSize, page, *gotStats, *wantStats)
					}
					cursor = want.NextCursor
					if cursor == "" {
						break
					}
				}
			}
		}
	}
}

// TestParallelExplainTruncation splits one high-support answer across
// shards: the merged explanation must keep the first MaxExplainSources
// sources in corpus order and count the remainder, exactly like the
// serial pass.
func TestParallelExplainTruncation(t *testing.T) {
	// 40 tables × 3 rows of the same answer = 120 sources, far past the cap.
	ix, q := func() (*searchidx.Index, Query) {
		c := catalog.New()
		film, _ := c.AddType("Film", "movie")
		director, _ := c.AddType("Director", "director")
		directed, _ := c.AddRelation("directed", film, director, catalog.ManyToOne)
		d1, _ := c.AddEntity("Busy Director", nil, director)
		if err := c.Freeze(); err != nil {
			t.Fatal(err)
		}
		var tables []*table.Table
		var anns []*core.Annotation
		for ti := 0; ti < 40; ti++ {
			tab := &table.Table{ID: fmt.Sprintf("rep%d", ti), Headers: []string{"Film", "Director"}}
			ann := &core.Annotation{
				ColumnTypes: []catalog.TypeID{film, director},
				Relations:   []core.RelationAnnotation{{Col1: 0, Col2: 1, Relation: directed, Forward: true}},
			}
			for r := 0; r < 3; r++ {
				tab.Cells = append(tab.Cells, []string{"Same Film", "Busy Director"})
				ann.CellEntities = append(ann.CellEntities, []catalog.EntityID{catalog.None, d1})
			}
			tables = append(tables, tab)
			anns = append(anns, ann)
		}
		return searchidx.New(c, tables, anns), Query{
			Relation: directed, T1: film, T2: director, E2: d1, E2Text: "Busy Director",
		}
	}()
	ctx := context.Background()
	req := Request{Query: q, Mode: TypeRel, Explain: true}
	want, err := NewEngineOver(ix).Execute(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewEngineOver(ix, eagerParallelism(8)).Execute(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	got.Stats, want.Stats = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("truncated explanations diverge:\n got  %+v\n want %+v",
			got.Answers[0].Explanation, want.Answers[0].Explanation)
	}
	ex := got.Answers[0].Explanation
	if len(ex.Sources) != MaxExplainSources || ex.Truncated != 120-MaxExplainSources {
		t.Fatalf("sources=%d truncated=%d, want %d/%d",
			len(ex.Sources), ex.Truncated, MaxExplainSources, 120-MaxExplainSources)
	}
	// Prefix property: sources are the corpus-order first cap entries.
	for i, src := range ex.Sources {
		if want := i / 3; src.Table != want {
			t.Fatalf("source %d from table %d, want %d (corpus order)", i, src.Table, want)
		}
	}
}

// --- cancellation inside the row loops ---

// countdownCtx reports Canceled after a fixed number of Err() polls —
// a deterministic stand-in for a cancellation landing mid-scan.
type countdownCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return c.Context.Err()
}

// hugeTableFixture is one candidate pair over one table with rows rows:
// the adversarial case for cancellation latency, because pair-level
// polling alone would not observe ctx until the whole table is scanned.
func hugeTableFixture(t testing.TB, rows int) (*Engine, Query) {
	t.Helper()
	c := catalog.New()
	film, _ := c.AddType("Film", "movie")
	director, _ := c.AddType("Director", "director")
	directed, _ := c.AddRelation("directed", film, director, catalog.ManyToOne)
	d1, _ := c.AddEntity("Lone Director", nil, director)
	if err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	tab := &table.Table{ID: "huge", Context: "films directed by one person", Headers: []string{"Film", "Director"}}
	ann := &core.Annotation{
		ColumnTypes: []catalog.TypeID{film, director},
		Relations:   []core.RelationAnnotation{{Col1: 0, Col2: 1, Relation: directed, Forward: true}},
	}
	for r := 0; r < rows; r++ {
		tab.Cells = append(tab.Cells, []string{fmt.Sprintf("Film %07d", r), "Lone Director"})
		ann.CellEntities = append(ann.CellEntities, []catalog.EntityID{catalog.None, d1})
	}
	ix := searchidx.New(c, []*table.Table{tab}, []*core.Annotation{ann})
	return NewEngineOver(ix), Query{
		Relation: directed, T1: film, T2: director, E2: d1,
		RelationText: "directed", T1Text: "Film", T2Text: "Director", E2Text: "Lone Director",
	}
}

// TestRowLoopCancellation is the satellite regression test: with a
// single table far larger than rowCheckInterval, a cancellation landing
// after the scan has started (simulated by countdownCtx: the pair-level
// poll passes, then a row-level poll fires) must abort the scan — before
// this fix ctx was only polled between pairs, so one huge table delayed
// cancellation until its full scan finished.
func TestRowLoopCancellation(t *testing.T) {
	e, q := hugeTableFixture(t, 8*rowCheckInterval)
	for _, mode := range []Mode{Baseline, TypeRel} {
		ctx := &countdownCtx{Context: context.Background(), after: 2}
		_, err := e.Execute(ctx, Request{Query: q, Mode: mode})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want context.Canceled from a mid-table poll", mode, err)
		}
		// The scan must have stopped at a row-interval poll, not run the
		// table to completion: every row costs at most one poll, so a full
		// scan would need far more than the handful a prompt abort uses.
		if polls := ctx.calls.Load(); polls > 16 {
			t.Fatalf("%v: %d ctx polls before abort; scan did not stop promptly", mode, polls)
		}
	}
}

// TestPreCancelledLargeTable covers the trivial half of the satellite:
// an already-dead context returns before any row is visited, serial and
// parallel alike.
func TestPreCancelledLargeTable(t *testing.T) {
	e, q := hugeTableFixture(t, 4*rowCheckInterval)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range []int{1, 4} {
		eng := NewEngineOver(e.c, eagerParallelism(par))
		if _, err := eng.Execute(ctx, Request{Query: q, Mode: TypeRel}); !errors.Is(err, context.Canceled) {
			t.Fatalf("par=%d: err = %v, want context.Canceled", par, err)
		}
	}
}

// TestParallelCancellationMidScan drives the sharded path with a
// countdown context: workers must stop and Execute must surface the
// cancellation.
func TestParallelCancellationMidScan(t *testing.T) {
	ix, q := variantFixture(t, 32, 5)
	eng := NewEngineOver(ix, eagerParallelism(4))
	ctx := &countdownCtx{Context: context.Background(), after: 3}
	if _, err := eng.Execute(ctx, Request{Query: q, Mode: TypeRel}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// --- benchmarks ---

// parallelBenchFixture builds a one-relation corpus with nAnswers
// distinct text-cluster answers of the given support (rows per answer),
// so the scan stage does nAnswers*support row matches before selection.
func parallelBenchFixture(tb testing.TB, nAnswers, support int) (*searchidx.Index, Query) {
	return sparseBenchFixture(tb, nAnswers, support, 0)
}

// sparseBenchFixture is parallelBenchFixture with filler rows after every
// matching row that name another, annotated director: rows the scan
// settles with one entity compare, as it does most rows of a real corpus.
func sparseBenchFixture(tb testing.TB, nAnswers, support, filler int) (*searchidx.Index, Query) {
	tb.Helper()
	c := catalog.New()
	film, _ := c.AddType("Film", "movie")
	director, _ := c.AddType("Director", "director")
	directed, _ := c.AddRelation("directed", film, director, catalog.ManyToOne)
	d1, _ := c.AddEntity("Prolific Director", nil, director)
	d2, _ := c.AddEntity("Somebody Else", nil, director)
	if err := c.Freeze(); err != nil {
		tb.Fatal(err)
	}
	const rowsPerTable = 100
	var (
		tables []*table.Table
		anns   []*core.Annotation
		tab    *table.Table
		ann    *core.Annotation
	)
	flush := func() {
		if tab != nil {
			tables = append(tables, tab)
			anns = append(anns, ann)
			tab, ann = nil, nil
		}
	}
	row := 0
	for i := 0; i < nAnswers; i++ {
		for s := 0; s < support; s++ {
			if tab == nil {
				tab = &table.Table{
					ID:      fmt.Sprintf("t%d", len(tables)),
					Context: "films and their directors",
					Headers: []string{"Film", "Director"},
				}
				ann = &core.Annotation{
					ColumnTypes: []catalog.TypeID{film, director},
					Relations: []core.RelationAnnotation{{
						Col1: 0, Col2: 1, Relation: directed, Forward: true,
					}},
				}
			}
			tab.Cells = append(tab.Cells, []string{fmt.Sprintf("Film %06d", i), "Prolific Director"})
			ann.CellEntities = append(ann.CellEntities, []catalog.EntityID{catalog.None, catalog.None})
			for f := 0; f < filler; f++ {
				tab.Cells = append(tab.Cells, []string{fmt.Sprintf("Film %06d", i), "Somebody Else"})
				ann.CellEntities = append(ann.CellEntities, []catalog.EntityID{catalog.None, d2})
			}
			if row += 1 + filler; row >= rowsPerTable {
				row = 0
				flush()
			}
		}
	}
	flush()
	return searchidx.New(c, tables, anns), Query{
		Relation: directed, T1: film, T2: director, E2: d1,
		RelationText: "directors", T1Text: "Film", T2Text: "Director",
		E2Text: "Prolific Director",
	}
}

// BenchmarkSearchParallel contrasts the serial scan against the sharded
// worker pool (top-10 page of a TypeRel query): it is where
// minParallelRows is read off. Two shapes of corpus, each over a range of
// sizes: dense, where every row the plan visits is a hit (500 to 60 000
// rows — the collectors do most of the work), and sparse, where one row
// in 64 is (16 000 to a million rows, the other 63 settled by an entity
// compare as most rows of a real corpus are — the scan does). The
// parallel engines are eager — they cut and start goroutines whatever
// the plan's size — so that each size shows what parallelism costs or
// buys there; results are byte-identical either way
// (TestParallelMatchesSerial). par=4 is always benchmarked so the sharded
// machinery is exercised even when GOMAXPROCS is 1 (where it measures
// pure sharding overhead).
func BenchmarkSearchParallel(b *testing.B) {
	ctx := context.Background()
	pars := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		pars = append(pars, p)
	}
	for _, shape := range []struct{ nAnswers, filler int }{
		{100, 0}, {400, 0}, {1600, 0}, {6400, 0}, {12000, 0},
		{50, 63}, {200, 63}, {800, 63}, {3200, 63},
	} {
		ix, q := sparseBenchFixture(b, shape.nAnswers, 5, shape.filler)
		for _, par := range pars {
			eng := NewEngineOver(ix, eagerParallelism(par))
			b.Run(fmt.Sprintf("rows=%d/answers=%d/par=%d", shape.nAnswers*5*(1+shape.filler), shape.nAnswers, par), func(b *testing.B) {
				b.ReportAllocs()
				var total int
				for i := 0; i < b.N; i++ {
					res, err := eng.Execute(ctx, Request{Query: q, Mode: TypeRel, PageSize: 10})
					if err != nil {
						b.Fatal(err)
					}
					total = res.Total
				}
				if total != shape.nAnswers {
					b.Fatalf("total = %d, want %d", total, shape.nAnswers)
				}
			})
		}
	}
}

// BenchmarkSelectPageDominantForm guards the satellite fix: rank-key
// construction reads the memoized dominant surface form instead of
// rescanning every cluster's variants map, so selection cost is O(n),
// independent of variant counts. Regressing to the O(n·variants) rescan
// shows up as a large per-op jump here.
func BenchmarkSelectPageDominantForm(b *testing.B) {
	const clusters, variants = 5000, 40
	cs := clusterSink{}
	for i := 0; i < clusters; i++ {
		c := &cluster{key: fmt.Sprintf("t:answer %d", i), entity: catalog.None}
		for v := 0; v < variants; v++ {
			c.score += 0.5
			c.support++
			c.noteRawN(fmt.Sprintf("Answer %d v%d", i, v), 1)
		}
		cs[c.key] = c
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, _ := selectPage(cs, 10, nil)
		if res.Total != clusters {
			b.Fatal("bad total")
		}
	}
}
