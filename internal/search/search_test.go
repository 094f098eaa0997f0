package search

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/searchidx"
	"repro/internal/table"
)

// fixture: two tables — one "directed" table, one "actedIn" table — both
// pairing films with people, so type-only search confuses them and
// relation annotations disambiguate.
type fx struct {
	cat             *catalog.Catalog
	film, person    catalog.TypeID
	director, actor catalog.TypeID
	f1, f2, d1, a1  catalog.EntityID
	directed, acted catalog.RelationID
	ix              *searchidx.Index
}

func build(t testing.TB) *fx {
	t.Helper()
	c := catalog.New()
	f := &fx{cat: c}
	mt := func(n string, ls ...string) catalog.TypeID {
		id, err := c.AddType(n, ls...)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	f.film = mt("Film", "movie")
	f.person = mt("Person")
	f.director = mt("Director", "director")
	f.actor = mt("Actor", "actor")
	if err := c.AddSubtype(f.director, f.person); err != nil {
		t.Fatal(err)
	}
	if err := c.AddSubtype(f.actor, f.person); err != nil {
		t.Fatal(err)
	}
	me := func(n string, ty ...catalog.TypeID) catalog.EntityID {
		id, err := c.AddEntity(n, nil, ty...)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	f.f1 = me("Star Voyage", f.film)
	f.f2 = me("Night Harbor", f.film)
	f.d1 = me("Dana Helm", f.director)
	f.a1 = me("Arlo Vance", f.actor)
	var err error
	f.directed, err = c.AddRelation("directed", f.film, f.director, catalog.ManyToOne)
	if err != nil {
		t.Fatal(err)
	}
	f.acted, err = c.AddRelation("actedIn", f.film, f.actor, catalog.ManyToMany)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddTuple(f.directed, f.f1, f.d1); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTuple(f.acted, f.f2, f.a1); err != nil {
		t.Fatal(err)
	}
	if err := c.Freeze(); err != nil {
		t.Fatal(err)
	}

	dirTable := &table.Table{
		ID:      "dir",
		Context: "films and their directors",
		Headers: []string{"Movie", "Director"},
		Cells: [][]string{
			{"Star Voyage", "Dana Helm"},
			{"Night Harbor", "Dana Helm"}, // she also directed this one (not in catalog)
		},
	}
	actTable := &table.Table{
		ID:      "act",
		Context: "films and their cast",
		Headers: []string{"Movie", "Actor"},
		Cells: [][]string{
			{"Night Harbor", "Arlo Vance"},
			{"Star Voyage", "Dana Helm"}, // the director also acted
		},
	}
	tables := []*table.Table{dirTable, actTable}

	// Hand-build annotations (the search layer is independent of the
	// annotator; core tests cover annotation quality).
	mkAnn := func(tab *table.Table, colT []catalog.TypeID, ents [][]catalog.EntityID, rel catalog.RelationID) *core.Annotation {
		return &core.Annotation{
			TableID:      tab.ID,
			ColumnTypes:  colT,
			CellEntities: ents,
			Relations: []core.RelationAnnotation{{
				Col1: 0, Col2: 1, Relation: rel, Forward: true,
			}},
		}
	}
	anns := []*core.Annotation{
		mkAnn(dirTable,
			[]catalog.TypeID{f.film, f.director},
			[][]catalog.EntityID{{f.f1, f.d1}, {f.f2, f.d1}},
			f.directed),
		mkAnn(actTable,
			[]catalog.TypeID{f.film, f.actor},
			[][]catalog.EntityID{{f.f2, f.a1}, {f.f1, f.d1}},
			f.acted),
	}
	f.ix = searchidx.New(c, tables, anns)
	return f
}

func (f *fx) query() Query {
	return Query{
		Relation:     f.directed,
		T1:           f.film,
		T2:           f.director,
		E2:           f.d1,
		RelationText: "films directed by",
		T1Text:       "Movie",
		T2Text:       "Director",
		E2Text:       "Dana Helm",
	}
}

// run answers q in the given mode and returns the full ranking.
func run(t testing.TB, e *Engine, q Query, mode Mode) []Answer {
	t.Helper()
	res, err := e.Execute(context.Background(), Request{Query: q, Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	return res.Answers
}

// texts projects the ranked answer texts, the form the MAP evaluation
// consumes.
func texts(answers []Answer) []string {
	out := make([]string, len(answers))
	for i, a := range answers {
		out[i] = a.Text
	}
	return out
}

func TestTypeRelFindsOnlyDirectedTable(t *testing.T) {
	f := build(t)
	e := NewEngine(f.ix)
	answers := run(t, e, f.query(), TypeRel)
	if len(answers) != 2 {
		t.Fatalf("answers = %v", answers)
	}
	// Both films from the directed table; NOT "Star Voyage" from the
	// acted table row (that row is actedIn evidence).
	for _, a := range answers {
		if a.Entity == catalog.None {
			t.Errorf("unannotated cluster leaked: %+v", a)
		}
	}
}

func TestTypeModeIncludesConfusion(t *testing.T) {
	f := build(t)
	e := NewEngine(f.ix)
	// Type-only: the actedIn table also has (film, person-subtype)
	// columns... its T2 is Actor which is NOT ⊆ Director, so it only
	// qualifies through the directed table; but query for T2=Person pulls
	// both tables in.
	q := f.query()
	q.T2 = f.person
	typeAnswers := run(t, e, q, Type)
	relAnswers := run(t, e, q, TypeRel)
	if len(typeAnswers) < len(relAnswers) {
		t.Errorf("type-only (%d) returned fewer than type+rel (%d)", len(typeAnswers), len(relAnswers))
	}
}

func TestBaselineStringMatching(t *testing.T) {
	f := build(t)
	e := NewEngine(f.ix)
	answers := run(t, e, f.query(), Baseline)
	if len(answers) == 0 {
		t.Fatal("baseline found nothing despite matching headers and context")
	}
	// Baseline answers are raw strings, never entity-aggregated.
	for _, a := range answers {
		if a.Entity != catalog.None {
			t.Errorf("baseline produced entity answers: %+v", a)
		}
	}
}

func TestBaselineMissesAliasedHeaders(t *testing.T) {
	f := build(t)
	e := NewEngine(f.ix)
	q := f.query()
	q.T1Text = "Feature Presentation" // no header token overlap
	if answers := run(t, e, q, Baseline); len(answers) != 0 {
		t.Errorf("baseline matched without header overlap: %v", answers)
	}
	// The annotated modes don't care about surface forms.
	if answers := run(t, e, q, TypeRel); len(answers) == 0 {
		t.Error("type+rel should be immune to header wording")
	}
}

func TestE2TextFallback(t *testing.T) {
	f := build(t)
	e := NewEngine(f.ix)
	q := f.query()
	q.E2 = catalog.None // E2 not in catalog: fall back to text matching
	answers := run(t, e, q, TypeRel)
	if len(answers) == 0 {
		t.Fatal("text fallback found nothing")
	}
}

func TestStringsProjection(t *testing.T) {
	f := build(t)
	e := NewEngine(f.ix)
	ranked := texts(run(t, e, f.query(), TypeRel))
	if len(ranked) == 0 {
		t.Fatal("no ranked strings")
	}
	seen := map[string]bool{}
	for _, s := range ranked {
		if s == "" {
			t.Error("empty answer string")
		}
		if seen[s] {
			t.Errorf("duplicate answer %q", s)
		}
		seen[s] = true
	}
}

func TestRankingDeterministic(t *testing.T) {
	f := build(t)
	e := NewEngine(f.ix)
	a := texts(run(t, e, f.query(), TypeRel))
	b := texts(run(t, e, f.query(), TypeRel))
	if len(a) != len(b) {
		t.Fatal("nondeterministic count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic order")
		}
	}
}

func TestModeString(t *testing.T) {
	if Baseline.String() != "Baseline" || Type.String() != "Type" || TypeRel.String() != "Type+Rel" {
		t.Error("mode strings wrong")
	}
}

// bigFixture builds a corpus with many distinct answers to one query:
// nFilms films all directed by the same director, spread over several
// tables, with surface-form variants of some film names so dominant-form
// selection is observable.
func bigFixture(t testing.TB, nFilms int) (*Engine, Query) {
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

	const rowsPerTable = 7
	var tables []*table.Table
	var anns []*core.Annotation
	for start := 0; start < nFilms; start += rowsPerTable {
		tab := &table.Table{
			ID:      "t",
			Context: "films directed by people",
			Headers: []string{"Film", "Director"},
		}
		ann := &core.Annotation{
			ColumnTypes: []catalog.TypeID{film, director},
			Relations: []core.RelationAnnotation{{
				Col1: 0, Col2: 1, Relation: directed, Forward: true,
			}},
		}
		for i := start; i < start+rowsPerTable && i < nFilms; i++ {
			// Films are NOT catalog entities: answers cluster by
			// normalized text, exercising the dominant-form logic.
			tab.Cells = append(tab.Cells, []string{clusterName(i), "Solo Auteur"})
			ann.CellEntities = append(ann.CellEntities, []catalog.EntityID{catalog.None, d1})
		}
		tables = append(tables, tab)
		anns = append(anns, ann)
	}
	ix := searchidx.New(c, tables, anns)
	return NewEngine(ix), Query{
		Relation: directed, T1: film, T2: director, E2: d1,
		RelationText: "directed", T1Text: "Film", T2Text: "Director",
		E2Text: "Solo Auteur",
	}
}

func clusterName(i int) string {
	return "Film Number " + string(rune('A'+i%26)) + " " + string(rune('a'+(i/26)%26))
}

func TestExecutePaginationMatchesFullRanking(t *testing.T) {
	e, q := bigFixture(t, 23)
	ctx := context.Background()
	// Baseline exercises the string path, whose candidate pairs come from
	// token-map-ordered header postings and must still paginate exactly;
	// multi-token surface forms make that ordering observable.
	q.T1Text = "film movie"
	q.T2Text = "director person"
	for _, mode := range []Mode{Baseline, TypeRel} {
		full, err := e.Execute(ctx, Request{Query: q, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if full.Total != 23 || len(full.Answers) != 23 {
			t.Fatalf("%v: full: total=%d answers=%d, want 23", mode, full.Total, len(full.Answers))
		}
		if full.NextCursor != "" {
			t.Errorf("%v: full ranking left a next cursor", mode)
		}

		for _, pageSize := range []int{1, 3, 10, 23, 100} {
			var paged []Answer
			cursor := ""
			for pages := 0; ; pages++ {
				if pages > 30 {
					t.Fatalf("%v pageSize %d: runaway pagination", mode, pageSize)
				}
				res, err := e.Execute(ctx, Request{Query: q, Mode: mode, PageSize: pageSize, Cursor: cursor})
				if err != nil {
					t.Fatal(err)
				}
				if res.Total != full.Total {
					t.Fatalf("%v: page total %d != %d", mode, res.Total, full.Total)
				}
				if len(res.Answers) > pageSize {
					t.Fatalf("%v: page of %d answers, want <= %d", mode, len(res.Answers), pageSize)
				}
				paged = append(paged, res.Answers...)
				cursor = res.NextCursor
				if cursor == "" {
					break
				}
			}
			if len(paged) != len(full.Answers) {
				t.Fatalf("%v pageSize %d: paged %d answers, full %d", mode, pageSize, len(paged), len(full.Answers))
			}
			for i := range paged {
				if paged[i] != full.Answers[i] {
					t.Fatalf("%v pageSize %d: rank %d diverges: %+v != %+v",
						mode, pageSize, i, paged[i], full.Answers[i])
				}
			}
		}
	}
}

func TestExecuteTopKBounded(t *testing.T) {
	e, q := bigFixture(t, 23)
	res, err := e.Execute(context.Background(), Request{Query: q, Mode: TypeRel, PageSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 5 {
		t.Fatalf("answers = %d, want 5", len(res.Answers))
	}
	if res.Total != 23 {
		t.Fatalf("total = %d, want 23", res.Total)
	}
	if res.NextCursor == "" {
		t.Fatal("no next cursor despite 18 remaining answers")
	}
	for i := 1; i < len(res.Answers); i++ {
		prev, cur := res.Answers[i-1], res.Answers[i]
		if cur.Score > prev.Score {
			t.Fatalf("ranking not descending at %d", i)
		}
	}
}

// forgedCursors are well-encoded cursors no execution can have minted:
// a NaN score (before this was rejected it compared false against every
// rank key both ways and returned a silently empty page), a negative
// support, and a key that is not a cluster key.
func forgedCursors() map[string]string {
	return map[string]string{
		"NaN score":        encodeCursor(rankKey{score: math.NaN(), support: 1, text: "x", key: "t:x"}),
		"negative support": encodeCursor(rankKey{score: 1, support: -1, text: "x", key: "t:x"}),
		"foreign key":      encodeCursor(rankKey{score: 1, support: 1, text: "x", key: "x"}),
	}
}

func TestExecuteInvalidCursor(t *testing.T) {
	e, q := bigFixture(t, 5)
	cursors := forgedCursors()
	cursors["bad base64"], cursors["not JSON"] = "%%%", "bm90LWpzb24"
	for name, cursor := range cursors {
		res, err := e.Execute(context.Background(), Request{Query: q, Mode: TypeRel, Cursor: cursor})
		if !errors.Is(err, ErrInvalidCursor) {
			t.Errorf("%s: (%+v, %v), want ErrInvalidCursor", name, res, err)
		}
	}
}

func TestExecuteNegativePageSize(t *testing.T) {
	e, q := bigFixture(t, 5)
	if _, err := e.Execute(context.Background(), Request{Query: q, Mode: TypeRel, PageSize: -3}); err == nil {
		t.Fatal("negative page size accepted")
	}
}

func TestExecuteExplain(t *testing.T) {
	f := build(t)
	e := NewEngine(f.ix)
	res, err := e.Execute(context.Background(), Request{Query: f.query(), Mode: TypeRel, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers")
	}
	for _, a := range res.Answers {
		if a.Explanation == nil {
			t.Fatalf("answer %q: nil explanation", a.Text)
		}
		if got := len(a.Explanation.Sources) + a.Explanation.Truncated; got != a.Support {
			t.Errorf("answer %q: %d sources+truncated, support %d", a.Text, got, a.Support)
		}
		for _, src := range a.Explanation.Sources {
			if src.Table != 0 { // only the directed table qualifies
				t.Errorf("answer %q: source from table %d", a.Text, src.Table)
			}
			if src.Score <= 0 {
				t.Errorf("answer %q: non-positive source score", a.Text)
			}
		}
	}

	// Without Explain, answers carry no provenance.
	res, err = e.Execute(context.Background(), Request{Query: f.query(), Mode: TypeRel})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Answers {
		if a.Explanation != nil {
			t.Errorf("answer %q: explanation without Explain", a.Text)
		}
	}
}

func TestExplainSourceCap(t *testing.T) {
	// Build a table where one answer has more contributing rows than the
	// explanation cap.
	c := catalog.New()
	film, _ := c.AddType("Film", "movie")
	director, _ := c.AddType("Director", "director")
	directed, _ := c.AddRelation("directed", film, director, catalog.ManyToOne)
	d1, _ := c.AddEntity("Busy Director", nil, director)
	if err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	tab := &table.Table{ID: "rep", Headers: []string{"Film", "Director"}}
	ann := &core.Annotation{
		ColumnTypes: []catalog.TypeID{film, director},
		Relations:   []core.RelationAnnotation{{Col1: 0, Col2: 1, Relation: directed, Forward: true}},
	}
	n := MaxExplainSources + 9
	for i := 0; i < n; i++ {
		tab.Cells = append(tab.Cells, []string{"Same Film", "Busy Director"})
		ann.CellEntities = append(ann.CellEntities, []catalog.EntityID{catalog.None, d1})
	}
	eng := NewEngine(searchidx.New(c, []*table.Table{tab}, []*core.Annotation{ann}))
	res, err := eng.Execute(context.Background(), Request{
		Query: Query{Relation: directed, T1: film, T2: director, E2: d1, E2Text: "Busy Director"},
		Mode:  TypeRel, Explain: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 {
		t.Fatalf("answers = %d, want 1", len(res.Answers))
	}
	a := res.Answers[0]
	if a.Support != n {
		t.Fatalf("support = %d, want %d", a.Support, n)
	}
	if len(a.Explanation.Sources) != MaxExplainSources {
		t.Fatalf("sources = %d, want cap %d", len(a.Explanation.Sources), MaxExplainSources)
	}
	if a.Explanation.Truncated != n-MaxExplainSources {
		t.Fatalf("truncated = %d, want %d", a.Explanation.Truncated, n-MaxExplainSources)
	}
}

// TestDominantSurfaceForm checks the satellite fix: Answer.Text is the
// highest-support surface form within a text cluster, not the first seen.
func TestDominantSurfaceForm(t *testing.T) {
	c := catalog.New()
	film, _ := c.AddType("Film", "movie")
	director, _ := c.AddType("Director", "director")
	directed, _ := c.AddRelation("directed", film, director, catalog.ManyToOne)
	d1, _ := c.AddEntity("Dana Helm", nil, director)
	if err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	// Three spellings of one normalized cluster; "Night Harbor" (plain)
	// appears twice, the shouty variant once.
	tab := &table.Table{
		ID: "v", Context: "films directed by people",
		Headers: []string{"Film", "Director"},
		Cells: [][]string{
			{"NIGHT HARBOR", "Dana Helm"},
			{"Night Harbor", "Dana Helm"},
			{"Night Harbor", "Dana Helm"},
		},
	}
	ann := &core.Annotation{
		ColumnTypes: []catalog.TypeID{film, director},
		CellEntities: [][]catalog.EntityID{
			{catalog.None, d1}, {catalog.None, d1}, {catalog.None, d1},
		},
		Relations: []core.RelationAnnotation{{Col1: 0, Col2: 1, Relation: directed, Forward: true}},
	}
	eng := NewEngine(searchidx.New(c, []*table.Table{tab}, []*core.Annotation{ann}))
	q := Query{
		Relation: directed, T1: film, T2: director, E2: d1,
		RelationText: "directed", T1Text: "Film", T2Text: "Director", E2Text: "Dana Helm",
	}
	for _, mode := range []Mode{Baseline, TypeRel} {
		answers := run(t, eng, q, mode)
		if len(answers) != 1 {
			t.Fatalf("%v: answers = %+v, want one cluster", mode, answers)
		}
		if answers[0].Text != "Night Harbor" {
			t.Errorf("%v: text = %q, want dominant form %q", mode, answers[0].Text, "Night Harbor")
		}
		if answers[0].Support != 3 {
			t.Errorf("%v: support = %d, want 3", mode, answers[0].Support)
		}
	}
}

func TestExecuteCancelled(t *testing.T) {
	e, q := bigFixture(t, 23)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Execute(ctx, Request{Query: q, Mode: TypeRel}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestIndexLookups(t *testing.T) {
	f := build(t)
	// One oriented instance of the relation, its column types baked in.
	rr := f.ix.RelationPairs(f.directed)
	if len(rr) != 1 || rr[0].Table != 0 || rr[0].SubjType != f.film || rr[0].ObjType != f.director {
		t.Errorf("directed instances = %v", rr)
	}
	// Both tables pair a film column with a person-subtype column.
	if got := f.ix.TypedPairsOf(f.film); len(got) != 2 || got[1].ObjType != f.actor {
		t.Errorf("typed pairs of Film = %v", got)
	}
	// d1 annotates three cells of the object columns.
	n := 0
	for ti := 0; ti < f.ix.Len(); ti++ {
		_, ents := f.ix.Column(ti, 1)
		for _, e := range ents {
			if e == f.d1 {
				n++
			}
		}
	}
	if n != 3 {
		t.Errorf("cells of d1 = %d, want 3", n)
	}
	if _, ents := f.ix.Column(0, 0); ents[0] != f.f1 {
		t.Errorf("entity of (0,0,0) = %v", ents[0])
	}
}
