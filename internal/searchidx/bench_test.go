package searchidx

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/table"
)

// benchCorpus is nTables film/director/year tables of rows rows each:
// film titles mostly distinct, 200 directors repeated throughout (two
// rows in three annotated with their entity, the third left to the text
// matcher under one of three spellings), one relation instance per
// table. The returned query text matches director 7.
func benchCorpus(tb testing.TB, nTables, rows int) (*catalog.Catalog, []*table.Table, []*core.Annotation, catalog.EntityID, string) {
	tb.Helper()
	must := func(err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
	}
	c := catalog.New()
	film, err := c.AddType("Film", "movie")
	must(err)
	director, err := c.AddType("Director", "director")
	must(err)
	directed, err := c.AddRelation("directed", film, director, catalog.ManyToOne)
	must(err)
	dirs := make([]catalog.EntityID, 200)
	for i := range dirs {
		dirs[i], err = c.AddEntity(fmt.Sprintf("Director %d Lastname%d", i, i%37), nil, director)
		must(err)
	}
	must(c.Freeze())
	tables := make([]*table.Table, nTables)
	anns := make([]*core.Annotation, nTables)
	for ti := range tables {
		tab := &table.Table{
			ID:      fmt.Sprintf("b%d", ti),
			Context: "films and the directors who directed them",
			Headers: []string{"Film title", "Director", "Year"},
		}
		ann := &core.Annotation{
			TableID:     tab.ID,
			ColumnTypes: []catalog.TypeID{film, director, catalog.None},
			Relations:   []core.RelationAnnotation{{Col1: 0, Col2: 1, Relation: directed, Forward: true}},
		}
		for r := 0; r < rows; r++ {
			i := ti*rows + r
			d := (i * 7) % len(dirs)
			name, ent := c.EntityName(dirs[d]), dirs[d]
			if i%3 == 2 {
				ent = catalog.None
				name = []string{name, "  " + name + ".", fmt.Sprintf("Lastname%d, Director %d", d%37, d)}[i%9/3]
			}
			tab.Cells = append(tab.Cells, []string{fmt.Sprintf("The Film %d of %d", i%5000, i%11), name, fmt.Sprint(1950 + i%70)})
			ann.CellEntities = append(ann.CellEntities, []catalog.EntityID{catalog.None, ent, catalog.None})
		}
		tables[ti], anns[ti] = tab, ann
	}
	return c, tables, anns, dirs[7], c.EntityName(dirs[7])
}

// BenchmarkBuild indexes 512 annotated 20×3 tables as one segment.
func BenchmarkBuild(b *testing.B) {
	c, tables, anns, _, _ := benchCorpus(b, 512, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildContext(context.Background(), c, tables, anns); err != nil {
			b.Fatal(err)
		}
	}
}
