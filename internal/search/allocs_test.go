package search

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/searchidx"
	"repro/internal/table"
)

// allocsFixture is four tables whose object column names the probe
// director in all 7 rows, then twelve candidate tables of the same shape
// — same headers, context, column types and relation, so every mode
// schedules and scans them — whose otherRows rows name somebody else:
// two rows in three by entity annotation, the third by text alone.
func allocsFixture(t testing.TB, otherRows int) (*Engine, Query) {
	t.Helper()
	c := catalog.New()
	film, _ := c.AddType("Film", "movie")
	director, _ := c.AddType("Director", "director")
	directed, _ := c.AddRelation("directed", film, director, catalog.ManyToOne)
	d1, _ := c.AddEntity("Solo Auteur", nil, director)
	d2, _ := c.AddEntity("Somebody Else", nil, director)
	if err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	var tables []*table.Table
	var anns []*core.Annotation
	for ti := 0; ti < 16; ti++ {
		tab := &table.Table{ID: fmt.Sprint("t", ti), Context: "films directed by people", Headers: []string{"Film", "Director"}}
		ann := &core.Annotation{
			ColumnTypes: []catalog.TypeID{film, director},
			Relations:   []core.RelationAnnotation{{Col1: 0, Col2: 1, Relation: directed, Forward: true}},
		}
		rows, name, ent := 7, "Solo Auteur", d1
		if ti >= 4 {
			rows, name, ent = otherRows, "Somebody Else", d2
		}
		for r := 0; r < rows; r++ {
			e := ent
			if r%3 == 2 {
				e = catalog.None
			}
			tab.Cells = append(tab.Cells, []string{fmt.Sprintf("Film %d of table %d", r%5, ti%3), name})
			ann.CellEntities = append(ann.CellEntities, []catalog.EntityID{catalog.None, e})
		}
		tables, anns = append(tables, tab), append(anns, ann)
	}
	return NewEngine(searchidx.New(c, tables, anns)), Query{
		Relation: directed, T1: film, T2: director, E2: d1,
		RelationText: "directed", T1Text: "Film", T2Text: "Director", E2Text: "Solo Auteur",
	}
}

// TestExecuteAllocsIndependentOfRows: a query allocates for its
// candidate pairs, its matches and its answers — never per visited row.
// Doubling (and octupling) the rows of the tables that do not match
// leaves the allocation count of a TypeRel, a Type and a Baseline
// request where it was — to within the two or three the race detector's
// own bookkeeping adds or drops per run, against the 720 and 5040 more
// rows scanned — and that count stays under maxExecuteAllocs (measured:
// 153, 154 and 164 for this fixture's 16 candidate pairs, 28 hits and 15
// answer clusters — about ten per cluster).
func TestExecuteAllocsIndependentOfRows(t *testing.T) {
	const maxExecuteAllocs = 200
	for _, mode := range []Mode{TypeRel, Type, Baseline} {
		var base float64
		for i, otherRows := range []int{60, 120, 480} {
			e, q := allocsFixture(t, otherRows)
			req := Request{Query: q, Mode: mode, PageSize: 5}
			var rowsScanned int64
			n := testing.AllocsPerRun(20, func() {
				res, err := e.Execute(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				rowsScanned = res.Stats.RowsScanned
			})
			if want := int64(4*7 + 12*otherRows); rowsScanned != want {
				t.Fatalf("%v: scanned %d rows, want %d", mode, rowsScanned, want)
			}
			t.Logf("%v: %d rows scanned, %v allocations", mode, rowsScanned, n)
			if i == 0 {
				base = n
			}
			if math.Abs(n-base) > 4 || n > maxExecuteAllocs {
				t.Errorf("%v: %v allocations at %d rows per non-matching table, %v at 60; bound %d",
					mode, n, otherRows, base, maxExecuteAllocs)
			}
		}
	}
}
