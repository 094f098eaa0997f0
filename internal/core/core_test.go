package core

import (
	"context"
	"testing"

	"repro/internal/catalog"
	"repro/internal/feature"
	"repro/internal/table"
)

// figure1World reproduces the paper's Figure 1 setting: a Title/Author
// table whose cells are ambiguous in isolation ("Uncle Albert..." titles
// contain the token "Albert"; "A. Einstein" could be the physicist or a
// distractor) but resolvable collectively through the wrote(Person, Book)
// relation.
type figure1World struct {
	cat *catalog.Catalog

	book, childBook, person, writer, physicist, film catalog.TypeID

	einstein, einsteinStreet, stannard              catalog.EntityID
	relativity, uncleAlbertTime, quantumQuest, doxi catalog.EntityID

	wrote catalog.RelationID
}

func buildFigure1World(t testing.TB) *figure1World {
	t.Helper()
	c := catalog.New()
	w := &figure1World{cat: c}

	mustT := func(name string, lemmas ...string) catalog.TypeID {
		id, err := c.AddType(name, lemmas...)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	w.book = mustT("Book", "books", "title")
	w.childBook = mustT("ChildrensBook", "childrens book")
	w.person = mustT("Person", "people", "author")
	w.writer = mustT("Writer", "writers")
	w.physicist = mustT("Physicist", "physicists")
	w.film = mustT("Film", "movie", "title")

	sub := func(a, b catalog.TypeID) {
		if err := c.AddSubtype(a, b); err != nil {
			t.Fatal(err)
		}
	}
	sub(w.childBook, w.book)
	sub(w.writer, w.person)
	sub(w.physicist, w.person)

	mustE := func(name string, lemmas []string, types ...catalog.TypeID) catalog.EntityID {
		id, err := c.AddEntity(name, lemmas, types...)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	w.einstein = mustE("Albert Einstein", []string{"A. Einstein", "Einstein"}, w.physicist, w.writer)
	// A distractor sharing the Einstein tokens but not a person.
	w.einsteinStreet = mustE("Einstein Street", []string{"Einstein St"}, w.film)
	w.stannard = mustE("Russell Stannard", []string{"R. Stannard", "Stannard"}, w.writer)
	w.relativity = mustE("Relativity: The Special and the General Theory", []string{"Relativity"}, w.book)
	w.uncleAlbertTime = mustE("The Time and Space of Uncle Albert", nil, w.childBook)
	w.quantumQuest = mustE("Uncle Albert and the Quantum Quest", nil, w.childBook)
	w.doxi = mustE("Uncle Petros and the Goldbach Conjecture", nil, w.book)

	var err error
	w.wrote, err = c.AddRelation("wrote", w.person, w.book, ManyToManyCard())
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range [][2]catalog.EntityID{
		{w.einstein, w.relativity},
		{w.stannard, w.uncleAlbertTime},
		{w.stannard, w.quantumQuest},
	} {
		if err := c.AddTuple(w.wrote, tp[0], tp[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	return w
}

// ManyToManyCard avoids importing the constant everywhere in tests.
func ManyToManyCard() catalog.Cardinality { return catalog.ManyToMany }

func figure1Table() *table.Table {
	return &table.Table{
		ID:      "fig1",
		Context: "books and their authors",
		Headers: []string{"Title", "written by"},
		Cells: [][]string{
			{"Uncle Albert and the Quantum Quest", "Russell Stannard"},
			{"Relativity: The Special and the General Theory", "A. Einstein"},
			{"The Time and Space of Uncle Albert", "Stannard"},
		},
	}
}

func newTestAnnotator(t testing.TB, w *figure1World) *Annotator {
	t.Helper()
	return New(w.cat, feature.DefaultWeights(), DefaultConfig())
}

func TestCollectiveAnnotatesFigure1(t *testing.T) {
	w := buildFigure1World(t)
	a := newTestAnnotator(t, w)
	ann := a.AnnotateCollective(figure1Table())

	// Column types: col 0 should be a Book type (Book or ChildrensBook),
	// col 1 a Person type.
	if got := ann.ColumnTypes[0]; !w.cat.IsSubtype(got, w.book) {
		t.Errorf("col 0 type = %s, want a Book subtype", w.cat.TypeName(got))
	}
	if got := ann.ColumnTypes[1]; !w.cat.IsSubtype(got, w.person) {
		t.Errorf("col 1 type = %s, want a Person subtype", w.cat.TypeName(got))
	}

	// Cell entities.
	wantCells := map[[2]int]catalog.EntityID{
		{0, 0}: w.quantumQuest,
		{1, 0}: w.relativity,
		{2, 0}: w.uncleAlbertTime,
		{0, 1}: w.stannard,
		{1, 1}: w.einstein,
		{2, 1}: w.stannard,
	}
	for pos, want := range wantCells {
		if got := ann.CellEntities[pos[0]][pos[1]]; got != want {
			t.Errorf("cell (%d,%d) = %s, want %s", pos[0], pos[1],
				w.cat.EntityName(got), w.cat.EntityName(want))
		}
	}

	// Relation: wrote between the columns, with col 1 as subject
	// (Forward=false since col order is Title, Author).
	ra, ok := ann.RelationBetween(0, 1)
	if !ok {
		t.Fatal("no relation annotated between columns")
	}
	if ra.Relation != w.wrote {
		t.Errorf("relation = %s, want wrote", w.cat.RelationName(ra.Relation))
	}
	if ra.Forward {
		t.Error("direction: col 0 (books) marked as subject of wrote(Person, Book)")
	}

	if !ann.Diag.Converged {
		t.Errorf("BP did not converge in %d iterations", ann.Diag.Iterations)
	}
	if ann.Diag.Iterations > 5 {
		t.Errorf("BP took %d iterations; paper reports ~3", ann.Diag.Iterations)
	}
}

func TestSimpleInferenceAgreesWithoutRelations(t *testing.T) {
	// A one-column table has no column pairs, so no relation variables
	// and no φ4/φ5: Eq. 1 reduces to Eq. 2, and collective BP must reach
	// the Figure-2 result (the paper notes the schedule "reduces to the
	// direct optimal algorithm").
	w := buildFigure1World(t)
	a := newTestAnnotator(t, w)
	fig1 := figure1Table()
	for c := 0; c < fig1.Cols(); c++ {
		tab := &table.Table{ID: fig1.ID, Context: fig1.Context, Headers: []string{fig1.Header(c)}}
		for _, cell := range fig1.Column(c) {
			tab.Cells = append(tab.Cells, []string{cell})
		}
		collective := a.AnnotateCollective(tab)
		simple := a.AnnotateSimple(tab)

		if collective.ColumnTypes[0] != simple.ColumnTypes[0] {
			t.Errorf("col %d: collective type %s != simple type %s", c,
				w.cat.TypeName(collective.ColumnTypes[0]), w.cat.TypeName(simple.ColumnTypes[0]))
		}
		labeled := 0
		for r := 0; r < tab.Rows(); r++ {
			if collective.CellEntities[r][0] != simple.CellEntities[r][0] {
				t.Errorf("cell (%d,%d): collective %s != simple %s", r, c,
					w.cat.EntityName(collective.CellEntities[r][0]),
					w.cat.EntityName(simple.CellEntities[r][0]))
			}
			if simple.CellEntities[r][0] != catalog.None {
				labeled++
			}
		}
		if labeled == 0 {
			t.Errorf("col %d: no cell labeled; the comparison is vacuous", c)
		}
	}
}

func TestCollectiveBeatsLocalOnAmbiguousCell(t *testing.T) {
	// A table where the title cell "Uncle Albert" is truncated: local
	// matching cannot distinguish the two Uncle Albert books, but the
	// author column ("R. Stannard" on the row of "Quantum Quest") plus
	// the wrote relation can... both books are by Stannard though, so use
	// the Einstein row: cell "Einstein" alone is ambiguous between the
	// physicist and Einstein Street (film); the relation with the
	// Relativity row pins the physicist.
	w := buildFigure1World(t)
	a := newTestAnnotator(t, w)
	tab := &table.Table{
		ID:      "ambig",
		Headers: []string{"written by", "Title"},
		Cells: [][]string{
			{"Einstein", "Relativity"},
			{"Stannard", "Uncle Albert and the Quantum Quest"},
		},
	}
	ann := a.AnnotateCollective(tab)
	if got := ann.CellEntities[0][0]; got != w.einstein {
		t.Errorf("collective: Einstein cell = %s, want Albert Einstein",
			w.cat.EntityName(got))
	}
	ra, ok := ann.RelationBetween(0, 1)
	if !ok || ra.Relation != w.wrote || !ra.Forward {
		t.Errorf("relation = %+v ok=%v, want forward wrote", ra, ok)
	}
}

func TestLCABaseline(t *testing.T) {
	w := buildFigure1World(t)
	// Use a high retrieval floor so candidate sets are clean: with noisy
	// candidates LCA's intersection picks up spurious specific types
	// (that mis-behavior is exercised separately in Figure-6 benches).
	cfg := DefaultConfig()
	cfg.Candidates.MinScore = 0.35
	a := New(w.cat, feature.DefaultWeights(), cfg)
	ann := a.AnnotateLCA(figure1Table())

	// LCA never reports relations.
	if len(ann.Relations) != 0 || len(ann.RelationSets) != 0 {
		t.Errorf("LCA produced relations: %v", ann.Relations)
	}
	// The title column candidates include Book and ChildrensBook
	// entities; common ancestors of all rows must include Book, so the
	// minimal common ancestor should be Book (not ChildrensBook, since
	// Relativity is not a children's book).
	types := ann.ColumnTypeSets[0]
	if len(types) == 0 {
		t.Fatal("LCA reported no type for the title column")
	}
	foundBook := false
	for _, T := range types {
		if T == w.book {
			foundBook = true
		}
		if T == w.childBook {
			t.Error("LCA reported ChildrensBook which does not cover Relativity")
		}
	}
	if !foundBook {
		t.Errorf("LCA types for col 0 = %v, want to include Book", typeNames(w.cat, types))
	}
}

func TestMajorityBaseline(t *testing.T) {
	w := buildFigure1World(t)
	a := newTestAnnotator(t, w)
	ann := a.AnnotateMajority(figure1Table())

	// Majority should find ChildrensBook for col 0 (2 of 3 rows admit
	// it) — the over-specialization the paper describes. It should at
	// least report some Book subtype.
	types := ann.ColumnTypeSets[0]
	if len(types) == 0 {
		t.Fatal("Majority reported no type for the title column")
	}
	ok := false
	for _, T := range types {
		if w.cat.IsSubtype(T, w.book) {
			ok = true
		}
	}
	if !ok {
		t.Errorf("Majority col 0 types = %v, want a Book subtype", typeNames(w.cat, types))
	}
	// Relation voting should recover wrote (2 of 3 rows have tuples...
	// all 3 here).
	if len(ann.Relations) == 0 {
		t.Fatal("Majority found no relation")
	}
	if ann.Relations[0].Relation != w.wrote {
		t.Errorf("Majority relation = %s", w.cat.RelationName(ann.Relations[0].Relation))
	}
}

func TestThresholdSweepMonotonicity(t *testing.T) {
	// Higher thresholds can only shrink (or keep) the set of types that
	// qualify before minimal-filtering; verify the vote logic through the
	// public API: at F=1.0 (LCA) the reported set must cover every row's
	// candidates, which F=0.5 need not.
	w := buildFigure1World(t)
	a := newTestAnnotator(t, w)
	tab := figure1Table()
	lca := a.AnnotateThreshold(tab, 1.0, false)
	maj := a.AnnotateThreshold(tab, 0.5, true)
	if len(lca.ColumnTypeSets[0]) == 0 || len(maj.ColumnTypeSets[0]) == 0 {
		t.Fatal("empty type sets")
	}
	// Every LCA type must be an ancestor (or equal) of some majority type.
	for _, lt := range lca.ColumnTypeSets[0] {
		found := false
		for _, mt := range maj.ColumnTypeSets[0] {
			if w.cat.IsSubtype(mt, lt) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("LCA type %s unrelated to all majority types", w.cat.TypeName(lt))
		}
	}
}

func TestNumericColumnsSkipped(t *testing.T) {
	w := buildFigure1World(t)
	a := newTestAnnotator(t, w)
	tab := &table.Table{
		ID:      "numeric",
		Headers: []string{"Title", "Year"},
		Cells: [][]string{
			{"Relativity", "1916"},
			{"Uncle Albert and the Quantum Quest", "1989"},
		},
	}
	ann := a.AnnotateCollective(tab)
	if ann.ColumnTypes[1] != catalog.None {
		t.Errorf("numeric column got type %s", w.cat.TypeName(ann.ColumnTypes[1]))
	}
	for r := 0; r < tab.Rows(); r++ {
		if ann.CellEntities[r][1] != catalog.None {
			t.Errorf("numeric cell (%d,1) got entity", r)
		}
	}
	// The title column must still be annotated.
	if ann.ColumnTypes[0] == catalog.None {
		t.Error("title column skipped")
	}
}

func TestNAOnUnknownCells(t *testing.T) {
	w := buildFigure1World(t)
	a := newTestAnnotator(t, w)
	tab := &table.Table{
		ID:      "unknown",
		Headers: []string{"Thing", "Other"},
		Cells: [][]string{
			{"zzz qqq xyzzy", "wwww vvvv"},
			{"fnord grault", "plugh corge"},
		},
	}
	ann := a.AnnotateCollective(tab)
	for r := 0; r < tab.Rows(); r++ {
		for c := 0; c < tab.Cols(); c++ {
			if ann.CellEntities[r][c] != catalog.None {
				t.Errorf("nonsense cell (%d,%d) labeled %s", r, c,
					w.cat.EntityName(ann.CellEntities[r][c]))
			}
		}
	}
	for c := 0; c < tab.Cols(); c++ {
		if ann.ColumnTypes[c] != catalog.None {
			t.Errorf("nonsense column %d got type %s", c, w.cat.TypeName(ann.ColumnTypes[c]))
		}
	}
}

// scoreAnnotation evaluates the Eq. 1 objective (in log space) of an
// arbitrary labeling.
func (a *Annotator) scoreAnnotation(cs *candidates, ann *Annotation) float64 {
	ag := a.buildGraph(cs)
	assignment := make([]int, ag.g.NumVars())
	for i := range cs.cols {
		assignment[ag.typeVars[i]] = indexOfType(cs.colTypes[i], ann.ColumnTypes[cs.cols[i]])
		for r := 0; r < cs.tab.Rows(); r++ {
			assignment[ag.cellVars[i][r]] = indexOfEntity(cs.cells[i][r], ann.CellEntities[r][cs.cols[i]])
		}
	}
	for pi, p := range cs.pairs {
		assignment[ag.relVars[pi]] = len(p.rels) // na default
		if ra, ok := ann.RelationBetween(cs.cols[p.i], cs.cols[p.j]); ok {
			for bi, rd := range p.rels {
				if rd.Relation == ra.Relation && rd.Forward == ra.Forward {
					assignment[ag.relVars[pi]] = bi
					break
				}
			}
		}
	}
	return ag.g.Score(assignment)
}

func TestScoreAnnotationConsistent(t *testing.T) {
	// The decoded MAP assignment must score at least as high as the
	// all-na assignment under Eq. 1.
	w := buildFigure1World(t)
	a := newTestAnnotator(t, w)
	tab := figure1Table()
	cs, _ := a.buildCandidates(context.Background(), tab, takeArena())
	ann := a.AnnotateCollective(tab)
	naAnn := newAnnotation(tab)
	if got, na := a.scoreAnnotation(cs, ann), a.scoreAnnotation(cs, naAnn); got < na {
		t.Errorf("MAP score %v < all-na score %v", got, na)
	}
}

func TestRelationBetweenNormalizesOrder(t *testing.T) {
	ann := &Annotation{Relations: []RelationAnnotation{
		{Col1: 0, Col2: 2, Relation: 3, Forward: true},
	}}
	// Stored order: identity.
	ra, ok := ann.RelationBetween(0, 2)
	if !ok || ra.Col1 != 0 || ra.Col2 != 2 || !ra.Forward {
		t.Errorf("stored order: got %+v ok=%v", ra, ok)
	}
	// Reversed query order: columns echo the caller, direction flips, so
	// Forward still means "first argument holds the subjects".
	ra, ok = ann.RelationBetween(2, 0)
	if !ok || ra.Col1 != 2 || ra.Col2 != 0 || ra.Forward {
		t.Errorf("reversed order: got %+v ok=%v, want Col1=2 Col2=0 Forward=false", ra, ok)
	}
	if ra.Relation != 3 {
		t.Errorf("relation = %v, want 3", ra.Relation)
	}
	// The stored annotation itself is untouched.
	if r := ann.Relations[0]; r.Col1 != 0 || r.Col2 != 2 || !r.Forward {
		t.Errorf("stored annotation mutated: %+v", r)
	}
	if _, ok := ann.RelationBetween(0, 1); ok {
		t.Error("found a relation between unrelated columns")
	}
}

func TestEmptyTableHandled(t *testing.T) {
	w := buildFigure1World(t)
	a := newTestAnnotator(t, w)
	tab := &table.Table{ID: "empty", Cells: [][]string{{""}}}
	ann := a.AnnotateCollective(tab)
	if ann.ColumnTypes[0] != catalog.None {
		t.Error("empty table got a type")
	}
}

func typeNames(c *catalog.Catalog, ts []catalog.TypeID) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = c.TypeName(t)
	}
	return out
}
