// Htmlextract: the preprocessing pipeline of §3.2 — scan raw HTML for
// tables, screen out formatting markup, and annotate what survives. Feed
// it any saved web page, or run with no arguments for a built-in demo
// document.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	webtable "repro"
)

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

func main() {
	doc := demoHTML
	src := "demo"
	if len(os.Args) > 1 {
		raw, err := os.ReadFile(os.Args[1])
		if err != nil {
			log.Fatal(err)
		}
		doc, src = string(raw), os.Args[1]
	}

	extracted := webtable.ExtractHTML(doc, src)
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
}

func must[T any](v T, err error) T {
	check(err)
	return v
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
