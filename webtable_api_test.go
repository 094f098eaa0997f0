package webtable_test

import (
	"context"
	"testing"

	webtable "repro"
)

// TestPublicAPIEndToEnd exercises the facade the way a downstream user
// would: build a catalog, annotate a table, train briefly, search.
func TestPublicAPIEndToEnd(t *testing.T) {
	cat := webtable.NewCatalog()
	book, err := cat.AddType("Book", "novel", "title")
	if err != nil {
		t.Fatal(err)
	}
	writer, err := cat.AddType("Writer", "author")
	if err != nil {
		t.Fatal(err)
	}
	einstein, err := cat.AddEntity("Albert Einstein", []string{"A. Einstein"}, writer)
	if err != nil {
		t.Fatal(err)
	}
	stannard, err := cat.AddEntity("Russell Stannard", nil, writer)
	if err != nil {
		t.Fatal(err)
	}
	relativity, err := cat.AddEntity("Relativity: The Special and the General Theory", nil, book)
	if err != nil {
		t.Fatal(err)
	}
	quest, err := cat.AddEntity("Uncle Albert and the Quantum Quest", nil, book)
	if err != nil {
		t.Fatal(err)
	}
	wrote, err := cat.AddRelation("wrote", writer, book, webtable.OneToMany)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddTuple(wrote, einstein, relativity); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddTuple(wrote, stannard, quest); err != nil {
		t.Fatal(err)
	}
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}

	tab := &webtable.Table{
		ID:      "api",
		Headers: []string{"written by", "Title"},
		Cells: [][]string{
			{"A. Einstein", "Relativity: The Special and the General Theory"},
			{"Russell Stannard", "Uncle Albert and the Quantum Quest"},
		},
	}
	ctx := context.Background()
	svc, err := webtable.NewService(cat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.AnnotateTable(ctx, tab)
	if err != nil {
		t.Fatal(err)
	}
	if res.CellEntities[0][0] != einstein {
		t.Errorf("cell (0,0) = %v", res.CellEntities[0][0])
	}
	if res.ColumnTypes[1] != book {
		t.Errorf("col 1 type = %v", res.ColumnTypes[1])
	}
	if ra, ok := res.RelationBetween(0, 1); !ok || ra.Relation != wrote {
		t.Errorf("relation = %+v ok=%v", ra, ok)
	}

	// Training via the facade.
	gold := webtable.GoldLabels{
		ColumnTypes: map[int]webtable.TypeID{0: writer, 1: book},
		Cells: map[[2]int]webtable.EntityID{
			{0, 0}: einstein, {0, 1}: relativity,
			{1, 0}: stannard, {1, 1}: quest,
		},
	}
	cfg := webtable.DefaultTrainConfig()
	cfg.Epochs = 1
	if _, err := webtable.Train(svc.Annotator(), []webtable.TrainExample{{Table: tab, Gold: gold}}, cfg); err != nil {
		t.Fatalf("train: %v", err)
	}

	// Search via the facade: "who wrote Relativity?" — the §5 query form
	// R(E1 ∈ T1, E2 ∈ T2) with R's schema wrote(Writer, Book), so T1 is
	// the subject (writer) type and E2 the probe book.
	if _, err := svc.BuildIndex(ctx, []*webtable.Table{tab}); err != nil {
		t.Fatal(err)
	}
	page, err := svc.Search(ctx, webtable.SearchRequest{
		Query: webtable.SearchQuery{
			Relation:     wrote,
			T1:           writer,
			T2:           book,
			E2:           relativity,
			RelationText: "wrote",
			T1Text:       "Writer",
			T2Text:       "Book",
			E2Text:       "Relativity: The Special and the General Theory",
		},
		Mode: webtable.SearchTypeRel,
	})
	if err != nil {
		t.Fatal(err)
	}
	answers := page.Answers
	if len(answers) != 1 || answers[0].Entity != einstein {
		t.Fatalf("search answers = %+v", answers)
	}
}

// TestFacadeWorldGeneration checks the worldgen surface.
func TestFacadeWorldGeneration(t *testing.T) {
	spec := webtable.DefaultWorldSpec()
	spec.FilmsPerGenre = 5
	spec.NovelsPerGenre = 5
	spec.PeoplePerRole = 8
	spec.AlbumCount = 6
	spec.CountryCount = 4
	spec.CitiesPerCountry = 2
	spec.LanguageCount = 3
	world, err := webtable.BuildWorld(spec)
	if err != nil {
		t.Fatal(err)
	}
	if world.True.NumEntities() == 0 || world.Public.NumEntities() != world.True.NumEntities() {
		t.Fatalf("world shape: true=%d public=%d", world.True.NumEntities(), world.Public.NumEntities())
	}
	ds := world.WikiManual(0.1)
	if len(ds.Tables) == 0 {
		t.Fatal("no tables")
	}
	for _, lt := range ds.Tables {
		if err := lt.Table.Validate(); err != nil {
			t.Fatalf("invalid generated table: %v", err)
		}
	}
}

// TestFacadeHTMLAndFilter checks the preprocessing surface.
func TestFacadeHTMLAndFilter(t *testing.T) {
	doc := `<table><tr><th>A</th><th>B</th></tr>
	<tr><td>x</td><td>y</td></tr><tr><td>z</td><td>w</td></tr></table>`
	tabs := webtable.ExtractHTML(doc, "p")
	if len(tabs) != 1 {
		t.Fatalf("extracted %d", len(tabs))
	}
	kept, _ := webtable.FilterRelational(tabs)
	if len(kept) != 1 {
		t.Fatalf("kept %d", len(kept))
	}
}
