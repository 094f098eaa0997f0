package searchidx

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/table"
	"repro/internal/text"
)

func buildIndex(t testing.TB) (*Index, *catalog.Catalog) {
	t.Helper()
	c := catalog.New()
	film, err := c.AddType("Film", "movie")
	if err != nil {
		t.Fatal(err)
	}
	action, err := c.AddType("ActionFilm")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddSubtype(action, film); err != nil {
		t.Fatal(err)
	}
	e1, err := c.AddEntity("Star Voyage", nil, action)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Freeze(); err != nil {
		t.Fatal(err)
	}

	tab := &table.Table{
		ID:      "t0",
		Context: "a list of great films",
		Headers: []string{"Movie", "Year"},
		Cells: [][]string{
			{"Star Voyage", "1987"},
			{"Night Harbor", "1991"},
		},
	}
	ann := &core.Annotation{
		TableID:     "t0",
		ColumnTypes: []catalog.TypeID{action, catalog.None},
		CellEntities: [][]catalog.EntityID{
			{e1, catalog.None},
			{catalog.None, catalog.None},
		},
	}
	return build(t, c, []*table.Table{tab}, []*core.Annotation{ann}), c
}

// headerCols and contextTables probe the baseline posting lists.
func headerCols(ix *Index, q string) []ColKey {
	p := NewProbe(q)
	var buf []ColKey
	return ix.HeaderMatches(&p, &buf)
}

func contextTables(ix *Index, q string) []int32 {
	p := NewProbe(q)
	var cc ContextCursor
	ix.ContextMatches(&p, &cc)
	var out []int32
	for t := 0; t < ix.Len(); t++ {
		if cc.Contains(int32(t)) {
			out = append(out, int32(t))
		}
	}
	return out
}

// verdict compiles q against the segment and looks up one cell.
func verdict(ix *Index, q string, table, row, col int) float64 {
	p := NewProbe(q)
	m := ix.Compile(&p, catalog.None)
	return m.Lookup(ix.Column(table, col)[row])
}

func TestHeaderContextCellPostings(t *testing.T) {
	ix, _ := buildIndex(t)
	if refs := headerCols(ix, "movie titles"); len(refs) != 1 || refs[0].Table() != 0 || refs[0].Col() != 0 {
		t.Errorf("HeaderMatches = %v", refs)
	}
	if refs := headerCols(ix, "nothing relevant"); len(refs) != 0 {
		t.Errorf("spurious header match: %v", refs)
	}
	if tables := contextTables(ix, "great films"); len(tables) != 1 {
		t.Errorf("ContextMatches = %v", tables)
	}
	// A token reaches the texts that contain it — and only those.
	if got := verdict(ix, "voyage", 0, 0, 0); got != 0.5 {
		t.Errorf(`"voyage" against "Star Voyage" = %v, want 0.5`, got)
	}
	if got := verdict(ix, "voyage", 0, 1, 0); got != 0 {
		t.Errorf(`"voyage" against "Night Harbor" = %v, want 0`, got)
	}
	// Duplicate tokens must not duplicate postings.
	if got := verdict(ix, "voyage voyage star", 0, 0, 0); got != 1 {
		t.Errorf(`"voyage voyage star" against "Star Voyage" = %v, want 1`, got)
	}
}

// TestUnionOfPostings: a probe with several posted tokens gets the
// ascending, duplicate-free union of their lists; one posted token gets
// its list as it is.
func TestUnionOfPostings(t *testing.T) {
	c := catalog.New()
	if err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	tabs := []*table.Table{
		{ID: "a", Context: "films of note", Headers: []string{"Film title", "Year"}, Cells: [][]string{{"x", "y"}}},
		{ID: "b", Context: "notable directors", Headers: []string{"Director", "Best film"}, Cells: [][]string{{"x", "y"}}},
		{ID: "c", Context: "films and directors", Headers: []string{"Title", "Film"}, Cells: [][]string{{"x", "y"}}},
	}
	ix := build(t, c, tabs, nil)
	key := func(table, col int) ColKey { return ColKey(table)<<32 | ColKey(col) }
	if got, want := headerCols(ix, "film title"), []ColKey{key(0, 0), key(1, 1), key(2, 0), key(2, 1)}; !slices.Equal(got, want) {
		t.Errorf("HeaderMatches(film title) = %v, want %v", got, want)
	}
	if got, want := headerCols(ix, "year of the director"), []ColKey{key(0, 1), key(1, 0)}; !slices.Equal(got, want) {
		t.Errorf("HeaderMatches(year of the director) = %v, want %v", got, want)
	}
	if got, want := contextTables(ix, "directors films notable"), []int32{0, 1, 2}; !slices.Equal(got, want) {
		t.Errorf("ContextMatches = %v, want %v", got, want)
	}
	if got, want := contextTables(ix, "notable zebra"), []int32{1}; !slices.Equal(got, want) {
		t.Errorf("ContextMatches(single posted token) = %v, want %v", got, want)
	}
}

// TestEntityAndTypeAt: a column reads back its cells' entity
// annotations, None where a cell has none, and an untyped column takes
// no part in the typed-pair posting lists.
func TestEntityAndTypeAt(t *testing.T) {
	ix, c := buildIndex(t)
	e1, _ := c.EntityByName("Star Voyage")
	ids := ix.Column(0, 0)
	if len(ids) != 2 || ix.Entity(ids[0]) != e1 || ix.Entity(ids[1]) != catalog.None {
		t.Errorf("column 0 entities = %v %v, want [%v None]", ix.Entity(ids[0]), ix.Entity(ids[1]), e1)
	}
	if ids := ix.Column(0, 1); ix.Entity(ids[0]) != catalog.None || ix.Entity(ids[1]) != catalog.None {
		t.Errorf("unannotated column entities = %v %v", ix.Entity(ids[0]), ix.Entity(ids[1]))
	}
	// Only column 0 is typed, so no ordered pair of typed columns exists.
	if got := ix.SubjectTypes(); len(got) != 0 {
		t.Errorf("SubjectTypes = %v, want none", got)
	}
}

// buildRelIndex builds a two-column table annotated with a reversed
// relation instance, so orientation in the posting lists is observable.
func buildRelIndex(t testing.TB) (*Index, *catalog.Catalog) {
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
	d1, err := c.AddEntity("Dana Helm", nil, director)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := c.AddEntity("Star Voyage", nil, film)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddTuple(directed, f1, d1); err != nil {
		t.Fatal(err)
	}
	if err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	// Director column first: the relation instance runs Col1=1 (film,
	// subject) → Col2=0... expressed as Col1:0, Col2:1, Forward:false,
	// i.e. the annotated pair is (director col, film col) reversed.
	tab := &table.Table{
		ID:      "rev",
		Headers: []string{"Director", "Movie"},
		Cells:   [][]string{{"Dana Helm", "Star  Voyage!"}},
	}
	ann := &core.Annotation{
		TableID:     "rev",
		ColumnTypes: []catalog.TypeID{director, film},
		CellEntities: [][]catalog.EntityID{
			{d1, f1},
		},
		Relations: []core.RelationAnnotation{{
			Col1: 0, Col2: 1, Relation: directed, Forward: false,
		}},
	}
	return build(t, c, []*table.Table{tab}, []*core.Annotation{ann}), c
}

func TestRelationPairsOrientedAndTyped(t *testing.T) {
	ix, c := buildRelIndex(t)
	directed, _ := c.RelationByName("directed")
	film, _ := c.TypeByName("Film")
	director, _ := c.TypeByName("Director")

	pairs := ix.RelationPairs(directed)
	if len(pairs) != 1 {
		t.Fatalf("RelationPairs = %v", pairs)
	}
	p := pairs[0]
	// Forward:false means the subject (film) lives in column 1.
	if p.SubjCol != 1 || p.ObjCol != 0 {
		t.Errorf("orientation = subj %d obj %d, want subj 1 obj 0", p.SubjCol, p.ObjCol)
	}
	if p.SubjType != film || p.ObjType != director {
		t.Errorf("baked types = %v/%v, want Film/Director", p.SubjType, p.ObjType)
	}
	if got := ix.RelationPairs(directed + 99); got != nil {
		t.Errorf("unknown relation pairs = %v", got)
	}
}

func TestTypedPairsEnumeratesOrderedPairs(t *testing.T) {
	ix, c := buildRelIndex(t)
	film, _ := c.TypeByName("Film")
	director, _ := c.TypeByName("Director")
	if got, want := ix.SubjectTypes(), []catalog.TypeID{film, director}; !slices.Equal(got, want) {
		t.Fatalf("SubjectTypes = %v, want %v", got, want)
	}
	// Subject-type-scoped retrieval: each key sees only its orientation.
	filmPairs := ix.TypedPairsOf(film)
	if len(filmPairs) != 1 || filmPairs[0].SubjType != film || filmPairs[0].ObjType != director {
		t.Fatalf("TypedPairsOf(Film) = %v", filmPairs)
	}
	dirPairs := ix.TypedPairsOf(director)
	if len(dirPairs) != 1 || dirPairs[0].SubjType != director || dirPairs[0].ObjType != film {
		t.Fatalf("TypedPairsOf(Director) = %v", dirPairs)
	}
	for _, p := range append(filmPairs, dirPairs...) {
		if p.SubjCol == p.ObjCol {
			t.Errorf("self-pair: %+v", p)
		}
	}
	if got := ix.TypedPairsOf(film + 99); got != nil {
		t.Errorf("TypedPairsOf(unknown) = %v", got)
	}
}

func TestPrecomputedCells(t *testing.T) {
	ix, c := buildRelIndex(t)
	ids := ix.Column(0, 1)
	// "Star  Voyage!" normalizes with collapsed whitespace and stripped
	// punctuation at build time.
	if got := ix.Spelling(ids[0]); got != "star voyage" {
		t.Errorf("Spelling = %q", got)
	}
	// Two distinct tokens: one shared of two is exactly the threshold.
	if got := verdict(ix, "star", 0, 0, 1); got != 0.5 {
		t.Errorf(`"star" against "Star  Voyage!" = %v, want 0.5`, got)
	}
	f1, _ := c.EntityByName("Star Voyage")
	if e := ix.Entity(ids[0]); e != f1 {
		t.Errorf("entity = %v", e)
	}
}

func TestUnannotatedIndex(t *testing.T) {
	c := catalog.New()
	if _, err := c.AddType("T"); err != nil {
		t.Fatal(err)
	}
	if err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	tab := &table.Table{ID: "x", Cells: [][]string{{"a", "b"}}}
	ix := build(t, c, []*table.Table{tab}, nil)
	if e := ix.Entity(ix.Column(0, 0)[0]); e != catalog.None {
		t.Errorf("entity without annotations = %v", e)
	}
	// Annotation-derived posting lists are empty, precomputed text isn't.
	if got := ix.SubjectTypes(); len(got) != 0 {
		t.Errorf("SubjectTypes without annotations = %v", got)
	}
	if pairs := ix.TypedPairsOf(0); pairs != nil {
		t.Errorf("TypedPairsOf without annotations = %v", pairs)
	}
	if got := verdict(ix, "a", 0, 0, 0); got != 1 {
		t.Errorf(`"a" against "a" = %v, want 1`, got)
	}
	if got := ix.Spelling(ix.Column(0, 1)[0]); got != "b" {
		t.Errorf("Spelling = %q", got)
	}
}

// TestColumnMajorLayout: every cell of every column reads back the
// spelling, text and entity the row-major inputs gave it, across tables
// of different shapes, an unannotated table in the middle and annotation
// grids narrower than their table and longer than it.
func TestColumnMajorLayout(t *testing.T) {
	c := catalog.New()
	T, err := c.AddType("T")
	if err != nil {
		t.Fatal(err)
	}
	var es []catalog.EntityID
	for i := 0; i < 6; i++ {
		e, err := c.AddEntity(fmt.Sprint("entity ", i), nil, T)
		if err != nil {
			t.Fatal(err)
		}
		es = append(es, e)
	}
	if err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	tabs := []*table.Table{
		{ID: "a", Cells: [][]string{{"A 0 0", "a 0 1", "a-0-2"}, {"a 1 0", "", "a 1 2"}}},
		{ID: "b", Cells: [][]string{{"b 0 0"}, {"b 1 0"}, {"a 0 0"}}},
		{ID: "c", Cells: [][]string{{"c 0 0", "!!"}}},
	}
	anns := []*core.Annotation{
		{ColumnTypes: []catalog.TypeID{T, catalog.None}, CellEntities: [][]catalog.EntityID{{es[0], es[1]}, {es[3], catalog.None}}}, // one column short
		nil,
		{ColumnTypes: []catalog.TypeID{catalog.None, T}, CellEntities: [][]catalog.EntityID{{catalog.None, es[4]}, {es[5], es[5]}}}, // one row too many
	}
	ix := build(t, c, tabs, anns)
	for ti, tab := range tabs {
		for col := 0; col < tab.Cols(); col++ {
			ids := ix.Column(ti, col)
			if len(ids) != tab.Rows() {
				t.Fatalf("table %d column %d: %d cells for %d rows", ti, col, len(ids), tab.Rows())
			}
			for r, id := range ids {
				if got, want := ix.Surface(ti, r, col), tab.Cell(r, col); got != want {
					t.Errorf("table %d cell (%d,%d): surface %q, want %q", ti, r, col, got, want)
				}
				if got, want := ix.Spelling(id), text.Normalize(tab.Cell(r, col)); got != want {
					t.Errorf("table %d cell (%d,%d): spelling %q, want %q", ti, r, col, got, want)
				}
				want := catalog.EntityID(catalog.None)
				if ann := anns[ti]; ann != nil && r < len(ann.CellEntities) && col < len(ann.CellEntities[r]) {
					want = ann.CellEntities[r][col]
				}
				if got := ix.Entity(id); got != want {
					t.Errorf("table %d cell (%d,%d): entity %v, want %v", ti, r, col, got, want)
				}
			}
		}
	}
	// Spellings of one text share its ID across tables.
	a, b := ix.Column(0, 0), ix.Column(1, 0)
	if a[0] == b[2] || ix.raws[ix.pair(a[0]).raw].text != ix.raws[ix.pair(b[2]).raw].text {
		t.Errorf(`"A 0 0" and "a 0 0" are spellings %d and %d of texts %d and %d`, a[0], b[2], ix.raws[a[0]].text, ix.raws[b[2]].text)
	}
}

// TestResidentBytesArithmetic pins ResidentBytes on a corpus small enough
// to count by hand: two tables — one 2×2 with headers, a context and an
// annotation shaped like it, one 1×1 with neither — holding five cells,
// three spellings ("Alpha", "Bob", "alpha") of two texts of one token
// each; "Bob" is annotated in its first cell and not in its second, so
// the cells hold four (spelling, entity) IDs, one of them an extra and
// one annotated. Every figure is a count times an element size.
func TestResidentBytesArithmetic(t *testing.T) {
	c := catalog.New()
	film, _ := c.AddType("Film")
	director, _ := c.AddType("Director")
	directed, _ := c.AddRelation("directed", film, director, catalog.ManyToOne)
	bob, _ := c.AddEntity("Bob", nil, director)
	if err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	ix := build(t, c, []*table.Table{
		{ID: "a", Context: "films", Headers: []string{"Film", "Director"}, Cells: [][]string{{"Alpha", "Bob"}, {"alpha", "Bob"}}},
		{ID: "b", Cells: [][]string{{"Alpha"}}},
	}, []*core.Annotation{
		{TableID: "a", ColumnTypes: []catalog.TypeID{film, director},
			CellEntities: [][]catalog.EntityID{{catalog.None, bob}, {catalog.None, catalog.None}},
			Relations:    []core.RelationAnnotation{{Col1: 0, Col2: 1, Relation: directed, Forward: true}}},
		nil,
	})
	const (
		u32   = int64(unsafe.Sizeof(uint32(0)))
		str   = int64(unsafe.Sizeof(""))
		slice = int64(unsafe.Sizeof([]uint32(nil)))
		pair  = int64(unsafe.Sizeof(ColumnPair{}))
	)
	want := ResidentBytes{
		// One ID per cell.
		Cells: 5 * u32,
		// "Alpha" "alpha" "Bob" "bob" "alpha" in the blob, three raw and two
		// text entries with a token count each, the texts' cell IDs as
		// three offsets and four IDs, two tokens mapped to IDs, each
		// spelling's first entity and the one extra pair, ("Bob", None).
		Dictionaries: 21 + 3*int64(unsafe.Sizeof(rawSpelling{})) + 2*(int64(unsafe.Sizeof(strRef{}))+u32) + 7*u32 + 2*(str+u32) +
			3*u32 + 2*u32,
		// The token lists as three offsets and two text IDs, and the one
		// annotated ID; "film" and "director" each posting one column;
		// "films" posting one table; one relation pair, and a typed pair
		// under each of the two subject types.
		Postings: 5*u32 + u32 + (str + 4 + slice + 8) + (str + 8 + slice + 8) + (str + 5 + slice + u32) + 3*(u32+slice+pair) + 2*u32,
		// "a" "films" "Film" "Director" "b" "" and the annotation's "a" in
		// the blob; per table its metadata, span and ID-index entry and a
		// fixed annotation record; two header entries, and the
		// annotation's two types and one packed relation in their runs.
		Tables: 20 + 2*(int64(unsafe.Sizeof(tableMeta{}))+int64(unsafe.Sizeof(tableSpan{}))+u32+int64(unsafe.Sizeof(annMeta{}))) +
			2*int64(unsafe.Sizeof(strRef{})) + 2*u32 + int64(unsafe.Sizeof(relMeta{})),
	}
	if got := ix.ResidentBytes(); got != want {
		t.Errorf("ResidentBytes = %+v, want %+v", got, want)
	}
	if a, r, p := unsafe.Sizeof(annMeta{}), unsafe.Sizeof(relMeta{}), unsafe.Sizeof(cellPair{}); a > 36 || r > 16 || p > 8 {
		t.Errorf("an annotation record takes %d bytes, a relation %d and an extra cell ID %d, budget 36, 16 and 8", a, r, p)
	}
}
