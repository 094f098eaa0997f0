package search

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/segment"
	"repro/internal/table"
)

// planTriples lists a plan's candidate pairs in schedule order as
// (corpus-global table, subject column, object column).
func planTriples(e *Engine, p *scanPlan) [][3]int {
	out := make([][3]int, len(p.pairs))
	for i, c := range p.pairs {
		out[i] = [3]int{int(e.segs[c.seg].global[c.local]), int(c.subj), int(c.obj)}
	}
	return out
}

// planWorld is a catalog with a two-level subject hierarchy (ActionFilm
// ⊆ Film ⊆ Work ⊇ Novel), an object hierarchy (Director, Actor ⊆
// Person) and three relations, so a Type plan has several replay groups
// and the subtype filter rejects some pairs on each side.
type planWorld struct {
	cat                             *catalog.Catalog
	work, film, action, novel       catalog.TypeID
	person, director, actor, year   catalog.TypeID
	directed, actedIn, wrote        catalog.RelationID
	someDirector, someActor, anyone catalog.EntityID
}

func newPlanWorld(t testing.TB) *planWorld {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	w := &planWorld{cat: catalog.New()}
	c := w.cat
	var err error
	addType := func(name string, lemmas ...string) catalog.TypeID {
		id, err := c.AddType(name, lemmas...)
		must(err)
		return id
	}
	// Declared out of hierarchy order on purpose: type IDs order the Type
	// mode's replay groups, and they should not coincide with depth.
	w.director = addType("Director", "director")
	w.novel = addType("Novel", "book")
	w.work = addType("Work", "work")
	w.actor = addType("Actor", "actor")
	w.action = addType("ActionFilm", "action")
	w.person = addType("Person", "person")
	w.film = addType("Film", "movie")
	w.year = addType("Year", "year")
	must(c.AddSubtype(w.film, w.work))
	must(c.AddSubtype(w.novel, w.work))
	must(c.AddSubtype(w.action, w.film))
	must(c.AddSubtype(w.director, w.person))
	must(c.AddSubtype(w.actor, w.person))
	w.directed, err = c.AddRelation("directed", w.work, w.director, catalog.ManyToOne)
	must(err)
	w.actedIn, err = c.AddRelation("actedIn", w.film, w.actor, catalog.ManyToMany)
	must(err)
	w.wrote, err = c.AddRelation("wrote", w.novel, w.person, catalog.ManyToOne)
	must(err)
	w.someDirector, err = c.AddEntity("Dana Helm", nil, w.director)
	must(err)
	w.someActor, err = c.AddEntity("Arlo Vance", nil, w.actor)
	must(err)
	w.anyone, err = c.AddEntity("Pat Doe", nil, w.person)
	must(err)
	must(c.Freeze())
	return w
}

// table builds corpus table i: two to four columns whose headers, types,
// relation annotations (forward, reversed, between untyped columns,
// several per table) and context cycle at different periods, so that
// consecutive tables differ in every dimension the plan filters on.
// Every sixth table is unannotated.
func (w *planWorld) table(i int) (*table.Table, *core.Annotation) {
	subjTypes := []catalog.TypeID{w.film, w.action, w.novel, w.work, catalog.None}
	subjHeads := []string{"Film", "Movie Title", "Novel", "Work title", "Title of the film", ""}
	objTypes := []catalog.TypeID{w.director, w.actor, w.person, catalog.None}
	objHeads := []string{"Director", "Directed by", "Actor", "Person", "Film director"}
	contexts := []string{
		"films directed by people", "cast and crew", "novels and who wrote them",
		"", "Directed films: a list", "works",
	}
	cols := 2 + i%3
	tab := &table.Table{ID: fmt.Sprintf("p%02d", i), Context: contexts[i%len(contexts)]}
	ann := &core.Annotation{TableID: tab.ID}
	for c := 0; c < cols; c++ {
		switch {
		case c == i%cols: // the subject column moves around
			tab.Headers = append(tab.Headers, subjHeads[i%len(subjHeads)])
			ann.ColumnTypes = append(ann.ColumnTypes, subjTypes[(i/2)%len(subjTypes)])
		case c == 3:
			tab.Headers = append(tab.Headers, "Year of the film")
			ann.ColumnTypes = append(ann.ColumnTypes, w.year)
		default:
			tab.Headers = append(tab.Headers, objHeads[(i+c)%len(objHeads)])
			ann.ColumnTypes = append(ann.ColumnTypes, objTypes[(i+2*c)%len(objTypes)])
		}
	}
	for r := 0; r < 2; r++ {
		row := make([]string, cols)
		ents := make([]catalog.EntityID, cols)
		for c := range row {
			row[c], ents[c] = fmt.Sprintf("cell %d %d %d", i, r, c), catalog.None
		}
		tab.Cells = append(tab.Cells, row)
		ann.CellEntities = append(ann.CellEntities, ents)
	}
	rels := []catalog.RelationID{w.directed, w.actedIn, w.directed, w.wrote}
	subj := i % cols
	for c := 0; c < cols; c++ {
		if c == subj || c == 3 {
			continue
		}
		ra := core.RelationAnnotation{Col1: subj, Col2: c, Relation: rels[(i+c)%len(rels)], Forward: true}
		if (i+c)%3 == 0 {
			ra.Col1, ra.Col2, ra.Forward = c, subj, false
		}
		ann.Relations = append(ann.Relations, ra)
	}
	if i%6 == 5 {
		return tab, nil
	}
	return tab, ann
}

// TestPlanGolden pins the candidate schedule itself — every mode's
// ordered (global table, subject column, object column) list and its
// replay groups — over a five-segment view with tombstones in four of
// the segments. The pages golden only sees the plan through the scores
// it produces; this one fails on a reordered, dropped or duplicated
// pair even when no row of it matches.
func TestPlanGolden(t *testing.T) {
	w := newPlanWorld(t)
	store, err := segment.New(w.cat, segment.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	next := 0
	for _, n := range []int{24, 20, 14, 9, 5} {
		var tables []*table.Table
		var anns []*core.Annotation
		for ; n > 0; n-- {
			tab, ann := w.table(next)
			tables, anns = append(tables, tab), append(anns, ann)
			next++
		}
		if _, err := store.Add(context.Background(), tables, anns); err != nil {
			t.Fatal(err)
		}
	}
	view, err := store.Remove([]string{"p02", "p03", "p23", "p25", "p44", "p45", "p46", "p60", "p71"})
	if err != nil {
		t.Fatal(err)
	}
	if view.Segments() != 5 || view.Tombstones() != 9 {
		t.Fatalf("view has %d segments, %d tombstones; want 5 and 9", view.Segments(), view.Tombstones())
	}

	queries := []struct {
		name string
		q    Query
	}{
		{"work-by-director", Query{
			Relation: w.directed, T1: w.work, T2: w.director, E2: w.someDirector,
			RelationText: "directed films", T1Text: "Film movie title", T2Text: "Director person", E2Text: "Dana Helm",
		}},
		{"film-by-person", Query{
			Relation: w.actedIn, T1: w.film, T2: w.person, E2: w.someActor,
			RelationText: "cast", T1Text: "film", T2Text: "actor", E2Text: "Arlo Vance",
		}},
		{"novel-by-person", Query{
			Relation: w.wrote, T1: w.novel, T2: w.person, E2: catalog.None,
			RelationText: "who wrote novels", T1Text: "Novel work", T2Text: "person", E2Text: "Pat Doe",
		}},
		{"nothing", Query{
			Relation: w.wrote, T1: w.year, T2: w.year, E2: catalog.None,
			RelationText: "zebra", T1Text: "zebra", T2Text: "zebra", E2Text: "zebra",
		}},
	}
	var buf bytes.Buffer
	e := NewEngineOver(view)
	a := takeArena()
	defer a.release()
	for _, qc := range queries {
		for _, mode := range []Mode{Baseline, Type, TypeRel} {
			p := e.plan(context.Background(), Request{Query: qc.q, Mode: mode}, e.newStats(), a)
			fmt.Fprintf(&buf, "== %s mode=%v pairs=%d groups", qc.name, mode, len(p.pairs))
			for _, g := range p.groups {
				fmt.Fprintf(&buf, " %d@%d", g.key, g.start)
			}
			buf.WriteByte('\n')
			for _, tr := range planTriples(e, p) {
				fmt.Fprintf(&buf, "%d %d %d\n", tr[0], tr[1], tr[2])
			}
		}
	}

	path := filepath.Join("testdata", "plan.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run TestPlanGolden -update to create it)", err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("plans diverge from %s at byte %d:\n%s", path, firstDiff(got, want), diffContext(got, want))
	}
}
