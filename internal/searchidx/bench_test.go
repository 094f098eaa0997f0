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

// BenchmarkDecodeSegment decodes the persistent form of BenchmarkBuild's
// 512 annotated 20×3 tables back into a compiled index: what a snapshot
// load does per segment once the section is inflated.
func BenchmarkDecodeSegment(b *testing.B) {
	_, tables, anns, _, _ := benchCorpus(b, 512, 20)
	data, err := AppendSegment(nil, tables, anns)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeSegment(context.Background(), data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatchSet resets a two-token probe, as the engine does once per
// request, and compiles it against one 512-table segment: two dictionary
// lookups, a merge of two posting lists and the expansion of the matched
// texts into their spellings. Without the Reset every Compile would
// append to the match sets of all the iterations before it.
func BenchmarkMatchSet(b *testing.B) {
	c, tables, anns, _, name := benchCorpus(b, 512, 20)
	ix := build(b, c, tables, anns)
	p := NewProbe(name)
	if m := ix.Compile(&p, catalog.None); len(m.ids) == 0 {
		b.Fatalf("probe %q matches nothing", name)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Reset(name)
		sinkMatches = ix.Compile(&p, catalog.None)
	}
}

var (
	sinkMatches MatchSet
	sinkHits    []RowHit
)

// scanFixture is one 64k-row table whose object column names a director
// in every row (annotated in two rows of three), with director 7's probe
// compiled by entity with text fallback and by text alone.
func scanFixture(tb testing.TB) (ids []uint32, byEntity, byText MatchSet) {
	c, tables, anns, e2, name := benchCorpus(tb, 1, 1<<16)
	ix := build(tb, c, tables, anns)
	p := NewProbe(name)
	byEntity, byText = ix.Compile(&p, e2), ix.Compile(&p, catalog.None)
	return ix.Column(0, 1), byEntity, byText
}

// BenchmarkScanColumn walks one 64k-row column, by entity with text
// fallback and by text alone; rows/s is the figure of merit.
func BenchmarkScanColumn(b *testing.B) {
	ids, byEntity, byText := scanFixture(b)
	for _, bc := range []struct {
		name string
		m    *MatchSet
	}{{"entity", &byEntity}, {"text", &byText}} {
		b.Run(bc.name, func(b *testing.B) {
			dst := make([]RowHit, 0, len(ids))
			b.ReportAllocs()
			b.SetBytes(int64(len(ids))) // "MB/s" reads as million rows per second
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkHits = ScanColumn(dst[:0], 0, ids, bc.m)
			}
		})
	}
}

// TestScanColumnDoesNotAllocate: given room in dst the kernel allocates
// nothing, whichever way it matches — and it finds the rows the
// reference matcher finds.
func TestScanColumnDoesNotAllocate(t *testing.T) {
	ids, byEntity, byText := scanFixture(t)
	dst := make([]RowHit, 0, len(ids))
	for name, m := range map[string]*MatchSet{"by entity": &byEntity, "by text": &byText} {
		if n := testing.AllocsPerRun(10, func() { sinkHits = ScanColumn(dst[:0], 0, ids, m) }); n != 0 {
			t.Errorf("ScanColumn(%s) allocates %v times per call", name, n)
		}
		if len(sinkHits) == 0 {
			t.Errorf("ScanColumn(%s) found no rows", name)
		}
	}
}
