package webtable_test

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"

	webtable "repro"
	"repro/internal/server"
)

// Build a tiny catalog, annotate one table collectively (entities, column
// types and relations jointly), and print the labels.
func ExampleService_AnnotateTable() {
	// 1. Build a catalog (§3.1): types, entities with lemmas, relations.
	cat := webtable.NewCatalog()
	book := must(cat.AddType("Book", "novel", "title"))
	person := must(cat.AddType("Person", "author"))
	writer := must(cat.AddType("Writer"))
	check(cat.AddSubtype(writer, person))

	einstein := must(cat.AddEntity("Albert Einstein", []string{"A. Einstein", "Einstein"}, writer))
	stannard := must(cat.AddEntity("Russell Stannard", []string{"Stannard"}, writer))
	relativity := must(cat.AddEntity("Relativity: The Special and the General Theory", []string{"Relativity"}, book))
	quantumQuest := must(cat.AddEntity("Uncle Albert and the Quantum Quest", nil, book))

	wrote := must(cat.AddRelation("wrote", person, book, webtable.ManyToMany))
	check(cat.AddTuple(wrote, einstein, relativity))
	check(cat.AddTuple(wrote, stannard, quantumQuest))

	// 2. A web table with ambiguous cells (Figure 1 of the paper).
	tab := &webtable.Table{
		ID:      "quickstart",
		Context: "books and the people who wrote them",
		Headers: []string{"Title", "written by"},
		Cells: [][]string{
			{"Uncle Albert and the Quantum Quest", "Stannard"},
			{"Relativity: The Special and the General Theory", "A. Einstein"},
		},
	}

	// 3. Annotate collectively via the Service, which freezes the catalog
	// and owns the lemma index.
	svc := must(webtable.NewService(cat))
	result := must(svc.AnnotateTable(context.Background(), tab))

	fmt.Println("column types:")
	for c, T := range result.ColumnTypes {
		fmt.Printf("  col %d (%q) -> %s\n", c, tab.Header(c), cat.TypeName(T))
	}
	fmt.Println("cell entities:")
	for r := 0; r < tab.Rows(); r++ {
		for c := 0; c < tab.Cols(); c++ {
			fmt.Printf("  (%d,%d) %-48q -> %s\n", r, c, tab.Cell(r, c), cat.EntityName(result.CellEntities[r][c]))
		}
	}
	fmt.Println("relations:")
	for _, ra := range result.Relations {
		subj := ra.Col1
		if !ra.Forward {
			subj = ra.Col2
		}
		fmt.Printf("  cols (%d,%d) -> %s (col%d is subject)\n", ra.Col1, ra.Col2, cat.RelationName(ra.Relation), subj)
	}
	fmt.Printf("inference: %d BP iterations, converged=%v\n", result.Diag.Iterations, result.Diag.Converged)
	// Output:
	// column types:
	//   col 0 ("Title") -> Book
	//   col 1 ("written by") -> Writer
	// cell entities:
	//   (0,0) "Uncle Albert and the Quantum Quest"             -> Uncle Albert and the Quantum Quest
	//   (0,1) "Stannard"                                       -> Russell Stannard
	//   (1,0) "Relativity: The Special and the General Theory" -> Relativity: The Special and the General Theory
	//   (1,1) "A. Einstein"                                    -> Albert Einstein
	// relations:
	//   cols (0,1) -> wrote (col1 is subject)
	// inference: 2 BP iterations, converged=true
}

// The paper's introductory motivation: "compile a table of footballers
// (soccer players) and clubs they play for" by annotating many noisy web
// tables against a catalog and merging the annotated rows into one
// synthesized table, deduplicated by entity ID rather than by fuzzy
// string matching. "Varga" in the fan-wiki table resolves to Nik Varga,
// not Deni Varga: the club column and the playsFor relation disambiguate
// collectively.
func ExampleService_AnnotateCorpus() {
	cat := webtable.NewCatalog()
	player := must(cat.AddType("Footballer", "footballer", "player", "soccer player"))
	club := must(cat.AddType("FootballClub", "club", "football club", "team"))

	roster := []struct {
		player, club string
		aliases      []string
	}{
		{"Deni Varga", "Real Altona", []string{"D. Varga", "Varga"}},
		{"Luca Moretti", "Real Altona", []string{"L. Moretti", "Moretti"}},
		{"Sefa Yilmaz", "Union Brevik", []string{"S. Yilmaz", "Yilmaz"}},
		{"Ivo Kral", "Union Brevik", []string{"I. Kral", "Kral"}},
		{"Tomas Berg", "Sporting Calda", []string{"T. Berg", "Berg"}},
		{"Nik Varga", "Sporting Calda", []string{"N. Varga", "Varga"}}, // shares surname with Deni
	}
	playsFor := must(cat.AddRelation("playsFor", player, club, webtable.ManyToOne))
	clubs := map[string]webtable.EntityID{}
	for _, r := range roster {
		if _, ok := clubs[r.club]; !ok {
			clubs[r.club] = must(cat.AddEntity(r.club, []string{r.club + " FC"}, club))
		}
		p := must(cat.AddEntity(r.player, r.aliases, player))
		check(cat.AddTuple(playsFor, p, clubs[r.club]))
	}
	check(cat.Freeze())

	// Three noisy "web tables", each a partial, differently-formatted view.
	tables := []*webtable.Table{
		{
			ID: "espn-like", Context: "squad list players and clubs",
			Headers: []string{"Player", "Club"},
			Cells: [][]string{
				{"D. Varga", "Real Altona"},
				{"Moretti", "Real Altona FC"},
				{"S. Yilmaz", "Union Brevik"},
			},
		},
		{
			ID: "fan-wiki", Context: "who plays for which team",
			Headers: []string{"", ""}, // headers missing entirely
			Cells: [][]string{
				{"Ivo Kral", "Union Brevik"},
				{"Tomas Berg", "Sporting Calda"},
				{"Varga", "Sporting Calda"}, // ambiguous surname!
			},
		},
		{
			ID: "stats-page", Context: "football players season stats",
			Headers: []string{"Name", "Team", "Goals"},
			Cells: [][]string{
				{"Deni Varga", "Real Altona", "11"},
				{"Sefa Yilmaz", "Union Brevik", "7"},
				{"N. Varga", "Sporting Calda", "3"},
			},
		},
	}

	// Annotate the whole corpus in one parallel Service call.
	svc := must(webtable.NewService(cat))
	results := must(svc.AnnotateCorpus(context.Background(), tables))

	// Merge annotated (player, club) pairs across tables by entity ID.
	type fact struct{ player, club webtable.EntityID }
	support := map[fact]int{}
	for ti, tab := range tables {
		res := results[ti]
		ra, ok := res.RelationBetween(0, 1)
		if !ok || cat.RelationName(ra.Relation) != "playsFor" {
			fmt.Printf("%s: no playsFor relation found, skipping\n", tab.ID)
			continue
		}
		pCol, cCol := ra.Col1, ra.Col2
		if !ra.Forward {
			pCol, cCol = cCol, pCol
		}
		for r := 0; r < tab.Rows(); r++ {
			p, c := res.CellEntities[r][pCol], res.CellEntities[r][cCol]
			if p != webtable.None && c != webtable.None {
				support[fact{p, c}]++
			}
		}
	}

	fmt.Println("synthesized footballer -> club table (by catalog entity, with row support):")
	facts := slices.Collect(maps.Keys(support))
	slices.SortFunc(facts, func(a, b fact) int {
		return cmp.Or(support[b]-support[a], strings.Compare(cat.EntityName(a.player), cat.EntityName(b.player)))
	})
	for _, f := range facts {
		fmt.Printf("  %-14s -> %-16s (support %d)\n",
			cat.EntityName(f.player), cat.EntityName(f.club), support[f])
	}
	// Output:
	// synthesized footballer -> club table (by catalog entity, with row support):
	//   Deni Varga     -> Real Altona      (support 2)
	//   Nik Varga      -> Sporting Calda   (support 2)
	//   Sefa Yilmaz    -> Union Brevik     (support 2)
	//   Ivo Kral       -> Union Brevik     (support 1)
	//   Luca Moretti   -> Real Altona      (support 1)
	//   Tomas Berg     -> Sporting Calda   (support 1)
}

// demoHTML is a web page with one data table and two that the relational
// screen rejects. internal/table's FuzzExtractHTML seeds from this file.
const demoHTML = `
<html><body>
<h1>Required reading</h1>
<p>A short list of physics books and the people who wrote them.</p>
<table>
  <tr><th>Title</th><th>Author</th></tr>
  <tr><td>Relativity: The Special and the General Theory</td><td>A. Einstein</td></tr>
  <tr><td>Uncle Albert and the Quantum Quest</td><td>Russell Stannard</td></tr>
</table>
<table><tr><td>nav</td><td>home | about | contact and a very long layout cell that is clearly page furniture rather than data</td></tr></table>
<table>
  <tr><td>1</td><td>2</td></tr>
  <tr><td>3</td><td>4</td></tr>
</table>
</body></html>`

// The preprocessing pipeline of §3.2: scan raw HTML for tables, screen
// out formatting markup, and annotate what survives.
func ExampleExtractHTML() {
	extracted := webtable.ExtractHTML(demoHTML, "demo")
	fmt.Printf("extracted %d candidate tables\n", len(extracted))
	kept, rejected := webtable.FilterRelational(extracted)
	fmt.Printf("kept %d relational tables; rejected: %v\n\n", len(kept), rejected)

	// Annotate survivors against a small demo catalog.
	cat := webtable.NewCatalog()
	book := must(cat.AddType("Book", "novel", "title"))
	writer := must(cat.AddType("Writer", "author"))
	einstein := must(cat.AddEntity("Albert Einstein", []string{"A. Einstein"}, writer))
	stannard := must(cat.AddEntity("Russell Stannard", nil, writer))
	relativity := must(cat.AddEntity("Relativity: The Special and the General Theory", nil, book))
	quest := must(cat.AddEntity("Uncle Albert and the Quantum Quest", nil, book))
	wrote := must(cat.AddRelation("wrote", writer, book, webtable.OneToMany))
	check(cat.AddTuple(wrote, einstein, relativity))
	check(cat.AddTuple(wrote, stannard, quest))
	check(cat.Freeze())

	svc := must(webtable.NewService(cat))
	anns := must(svc.AnnotateCorpus(context.Background(), kept))
	for ti, tab := range kept {
		fmt.Printf("table %s (context: %q)\n", tab.ID, tab.Context)
		res := anns[ti]
		for c, T := range res.ColumnTypes {
			if T != webtable.None {
				fmt.Printf("  column %d -> %s\n", c, cat.TypeName(T))
			}
		}
		for r := 0; r < tab.Rows(); r++ {
			for c := 0; c < tab.Cols(); c++ {
				if e := res.CellEntities[r][c]; e != webtable.None {
					fmt.Printf("  cell (%d,%d) -> %s\n", r, c, cat.EntityName(e))
				}
			}
		}
	}
	// Output:
	// extracted 3 candidate tables
	// kept 1 relational tables; rejected: map[all-numeric:1 too-small:1]
	//
	// table demo#0 (context: "Required reading A short list of physics books and the people who wrote them.")
	//   column 0 -> Book
	//   column 1 -> Writer
	//   cell (0,0) -> Relativity: The Special and the General Theory
	//   cell (0,1) -> Albert Einstein
	//   cell (1,0) -> Uncle Albert and the Quantum Quest
	//   cell (1,1) -> Russell Stannard
}

// The §5 search application end to end on a synthetic world: generate a
// web-table corpus, annotate it, index it, and answer one relational
// query through the request/response API: the three modes of Figure 9
// fanned out as one batch, then the Type+Rel ranking streamed page by
// page with per-answer provenance.
func ExampleService_SearchBatch() {
	ctx := context.Background()
	spec := webtable.DefaultWorldSpec()
	spec.FilmsPerGenre = 25
	spec.NovelsPerGenre = 20
	spec.PeoplePerRole = 30
	world := must(webtable.BuildWorld(spec))
	fmt.Printf("world: %v\n", world.True.Stats())

	// A corpus of noisy web tables over every relation, annotated
	// collectively (in parallel) against the degraded public catalog and
	// indexed, all in one Service call.
	var tables []*webtable.Table
	for _, lt := range world.SearchCorpus(80, 99).Tables {
		tables = append(tables, lt.Table)
	}
	svc := must(webtable.NewService(world.Public))
	must(svc.BuildIndex(ctx, tables))

	// Query: films directed by a particular director from the world.
	q := world.SearchWorkload([]string{"directed"}, 1, 7)[0]
	fmt.Printf("\nquery: %s(E1 ∈ %s, %q)\n", q.RelationName, world.True.TypeName(q.T1), q.E2Name)
	var truth []string
	for _, e1 := range q.WantE1 {
		truth = append(truth, fmt.Sprintf("%q", world.True.EntityName(e1)))
	}
	fmt.Printf("ground truth (from the complete world): %s\n", strings.Join(truth, " "))

	// All three Figure-9 modes as one batch, fanned out over the
	// service's worker pool against a consistent index snapshot.
	modes := []webtable.SearchMode{webtable.SearchBaseline, webtable.SearchType, webtable.SearchTypeRel}
	var reqs []webtable.SearchRequest
	for _, mode := range modes {
		reqs = append(reqs, world.Request(q, mode, 5))
	}
	results := must(svc.SearchBatch(ctx, reqs))
	for i, res := range results {
		fmt.Printf("\n-- %s: %d answers (top %d shown)\n", modes[i], res.Total, len(res.Answers))
		for j, a := range res.Answers {
			tag := ""
			if a.Entity != webtable.None {
				tag = " [entity-aggregated]"
			}
			fmt.Printf("   %d. %-36s score=%.2f support=%d%s\n", j+1, a.Text, a.Score, a.Support, tag)
		}
	}

	// Stream the full Type+Rel ranking page by page, with provenance on
	// every answer.
	req := world.Request(q, webtable.SearchTypeRel, 3)
	req.Explain = true
	fmt.Printf("\n-- paging Type+Rel, %d answers per page:\n", req.PageSize)
	page := 0
	for res, err := range svc.SearchAll(ctx, req) {
		check(err)
		page++
		fmt.Printf("   page %d (next cursor: %t)\n", page, res.NextCursor != "")
		for _, a := range res.Answers {
			fmt.Printf("      %-36s score=%.2f  from %d cell(s)\n", a.Text, a.Score, len(a.Explanation.Sources)+a.Explanation.Truncated)
		}
	}
	// Output:
	// world: types=40 entities=680 relations=8 tuples=1002 subtypeEdges=39 instanceOf=874 lemmas=1280 maxDepth=4
	//
	// query: directed(E1 ∈ Film, "Bux Jias")
	// ground truth (from the complete world): "Tousk Feat Koun"
	//
	// -- Baseline: 1 answers (top 1 shown)
	//    1. Tousk Feat Koun                      score=0.50 support=1
	//
	// -- Type: 2 answers (top 2 shown)
	//    1. Tousk Feat Koun                      score=4.50 support=3 [entity-aggregated]
	//    2. Duwim Zind Pramlos                   score=1.50 support=1 [entity-aggregated]
	//
	// -- Type+Rel: 1 answers (top 1 shown)
	//    1. Tousk Feat Koun                      score=4.50 support=3 [entity-aggregated]
	//
	// -- paging Type+Rel, 3 answers per page:
	//    page 1 (next cursor: false)
	//       Tousk Feat Koun                      score=4.50  from 3 cell(s)
}

// The deployment loop of the search application: annotate a corpus once,
// persist it as a snapshot, reconstruct a service from the snapshot
// without re-annotating, and serve it over JSON HTTP (the same stack as
// cmd/tabserved), then query it like a client would with plain net/http.
func ExampleLoadService() {
	ctx := context.Background()
	spec := webtable.DefaultWorldSpec()
	spec.FilmsPerGenre = 20
	spec.NovelsPerGenre = 15
	spec.PeoplePerRole = 25
	world := must(webtable.BuildWorld(spec))

	// 1. Annotate once: build the index the expensive way, in memory.
	var tables []*webtable.Table
	for _, lt := range world.SearchCorpus(40, 99).Tables {
		tables = append(tables, lt.Table)
	}
	svc := must(webtable.NewService(world.Public))
	must(svc.BuildIndex(ctx, tables))
	fmt.Printf("annotated + indexed %d tables\n", len(tables))

	// 2. Persist the annotated corpus as one snapshot.
	var snap bytes.Buffer
	check(svc.SaveSnapshot(ctx, &snap))

	// 3. Serve many: reconstruct a service from the snapshot (no
	// annotation runs) and expose it over HTTP.
	served := must(webtable.LoadService(ctx, &snap))
	fmt.Println("service reloaded from snapshot")
	ts := httptest.NewServer(server.New(served, server.WithLogger(slog.New(slog.DiscardHandler))).Handler())

	// 4. Query it like any HTTP client.
	q := world.SearchWorkload([]string{"directed"}, 1, 7)[0]
	body := must(json.Marshal(map[string]any{
		"relation":  q.RelationName,
		"t1":        world.True.TypeName(q.T1),
		"t2":        world.True.TypeName(q.T2),
		"e2":        q.E2Name,
		"page_size": 5,
		"explain":   true,
	}))
	fmt.Printf("POST /v1/search %s\n", body)
	resp := must(http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(body)))
	var res server.SearchResponse
	check(json.NewDecoder(resp.Body).Decode(&res))
	resp.Body.Close()
	fmt.Printf("%d answers (showing %d):\n", res.Total, len(res.Answers))
	for i, a := range res.Answers {
		fmt.Printf("%2d. %-35s score=%.2f support=%d\n", i+1, a.Text, a.Score, a.Support)
	}

	// 5. Close waits for in-flight requests to finish.
	ts.Close()
	fmt.Println("server drained and stopped")
	// Output:
	// annotated + indexed 40 tables
	// service reloaded from snapshot
	// POST /v1/search {"e2":"Goulel Grunziond","explain":true,"page_size":5,"relation":"directed","t1":"Film","t2":"Director"}
	// 4 answers (showing 4):
	//  1. Ziaszoux Pramlos Saklil Men         score=3.00 support=2
	//  2. Feat Vour Trousbaim                 score=1.50 support=1
	//  3. Hiond Hiaszour Liompex              score=1.50 support=1
	//  4. Meas Riortdort                      score=1.50 support=1
	// server drained and stopped
}

func must[T any](v T, err error) T {
	check(err)
	return v
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
