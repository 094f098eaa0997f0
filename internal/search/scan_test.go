package search

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/table"
)

// variantFixture builds a corpus whose answers are text clusters with
// several raw spellings spread over many tables, so a cluster's hits,
// surface-form counts and explanation sources come from many candidate
// pairs (and, cut into table ranges, from several shards).
func variantFixture(t testing.TB, nTables, rowsPerTable int) (Corpus, Query) {
	t.Helper()
	c, tables, anns, q := variantCorpus(t, nTables, rowsPerTable)
	return oneSegment(t, c, tables, anns), q
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

// TestParallelExplainTruncation spreads one high-support answer over
// many tables: the explanation must keep the first MaxExplainSources
// sources in corpus order and count the remainder exactly.
func TestParallelExplainTruncation(t *testing.T) {
	// 40 tables × 3 rows of the same answer = 120 sources, far past the cap.
	corpus, q := func() (Corpus, Query) {
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
		return oneSegment(t, c, tables, anns), Query{
			Relation: directed, T1: film, T2: director, E2: d1, E2Text: "Busy Director",
		}
	}()
	ctx := context.Background()
	req := Request{Query: q, Mode: TypeRel, Explain: true}
	got, err := NewEngine(corpus).Execute(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) != 1 {
		t.Fatalf("answers = %d, want 1", len(got.Answers))
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
	return NewEngine(oneSegment(t, c, []*table.Table{tab}, []*core.Annotation{ann})), Query{
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
// an already-dead context returns before any row is visited.
func TestPreCancelledLargeTable(t *testing.T) {
	e, q := hugeTableFixture(t, 4*rowCheckInterval)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Execute(ctx, Request{Query: q, Mode: TypeRel}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
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
