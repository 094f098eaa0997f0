package searchidx

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/table"
)

// scanColumnReference is ScanColumn one row at a time, reading each
// cell's entity and text through the index's accessors and matching the
// text with the reference matcher: no mask, no MatchSet, no shared loop.
func scanColumnReference(ix *Index, base int, ids []uint32, query string, e2 catalog.EntityID) []RowHit {
	var out []RowHit
	for r, id := range ids {
		var ev float64
		switch e := ix.Entity(id); {
		case e2 == catalog.None, e == catalog.None:
			ev = oracleMatch(query, ix.Spelling(id))
		case e == e2:
			ev = 1.5
		}
		if ev > 0 {
			out = append(out, RowHit{Row: int32(base + r), Evidence: ev})
		}
	}
	return out
}

// TestScanColumnMatchesReference holds Compile and the row loop together
// to a one-row-at-a-time reference: same rows, same order, same evidence
// bits. The column of a compiled segment holds every kind of cell the
// two tell apart — the probe's spelling under two entities and under
// none, another spelling of its text under an entity and under none, a
// partly matching text under an entity and under none, a text that does
// not match under an entity and under none — between two runs of as
// many fillers as the mask has bits, so that cell IDs collide with
// matched ones in the mask. The probe is
// compiled with e2 None, an entity in the column and one absent from it;
// windows of 0–17 and 63–65 rows (either side of anything a loop might
// be unrolled or masked by) start at row 0 and at later rows.
func TestScanColumnMatchesReference(t *testing.T) {
	const (
		query                   = "Director Seven"
		inColumn, other, absent = catalog.EntityID(7), catalog.EntityID(8), catalog.EntityID(9)
	)
	kinds := []struct {
		cell string
		ent  catalog.EntityID
	}{
		{query, inColumn}, {query, other}, {query, catalog.None},
		{"director  seven!", catalog.None}, {"director  seven!", inColumn},
		{"Director Seven Jr", catalog.None}, {"Director Seven Jr", other},
		{"Other Person", inColumn}, {"Other Person", catalog.None},
	}
	tab := &table.Table{ID: "t"}
	ann := &core.Annotation{TableID: "t", ColumnTypes: []catalog.TypeID{catalog.None}}
	addRow := func(cell string, e catalog.EntityID) {
		tab.Cells = append(tab.Cells, []string{cell})
		ann.CellEntities = append(ann.CellEntities, []catalog.EntityID{e})
	}
	for round, ent := range []catalog.EntityID{catalog.None, other} {
		for i := range kinds {
			k := kinds[(i+round*4)%len(kinds)]
			addRow(k.cell, k.ent)
		}
		for i := range maskBits {
			addRow(fmt.Sprint("filler ", round, " ", i), ent)
		}
	}
	ix := build(t, catalog.New(), []*table.Table{tab}, []*core.Annotation{ann})
	col := ix.Column(0, 0)
	lengths := []int{63, 64, 65}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	for _, e2 := range []catalog.EntityID{catalog.None, inColumn, absent} {
		p := NewProbe(query)
		m := ix.Compile(&p, e2)
		collided := false
		for _, id := range col {
			collided = collided || (m.mask[id%maskBits/64]>>(id%64)&1 != 0 && m.Lookup(id) == 0)
		}
		if !collided {
			t.Errorf("e2 %d: no cell collides with a match in the mask", e2)
		}
		if want := scanColumnReference(ix, 0, col, query, e2); len(want) == 0 || sameHits(ScanColumn(nil, 0, col, &m), want) != nil {
			t.Errorf("e2 %d: the whole column gives %d reference hits and a different scan", e2, len(want))
		}
		for _, lo := range []int{0, 5, 70} {
			for _, n := range lengths {
				ids := col[lo : lo+n]
				got := ScanColumn(nil, lo, ids, &m)
				want := scanColumnReference(ix, lo, ids, query, e2)
				if err := sameHits(got, want); err != nil {
					t.Fatalf("e2 %d, rows %d–%d: %v\n got  %v\n want %v", e2, lo, lo+n, err, got, want)
				}
			}
		}
	}
}

// sameHits compares two hit lists row for row, evidence by its bits.
func sameHits(got, want []RowHit) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d hits, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Row != want[i].Row || math.Float64bits(got[i].Evidence) != math.Float64bits(want[i].Evidence) {
			return fmt.Errorf("hit %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}
