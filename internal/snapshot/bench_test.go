package snapshot

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/table"
)

// benchSnapshot is 1000 annotated 20×3 film/director/year tables in
// four segments of 250: film titles mostly distinct, 200 directors
// repeated throughout under a few spellings, one relation per table.
func benchSnapshot(tb testing.TB) *Snapshot {
	tb.Helper()
	base := testSnapshot(tb)
	snap := &Snapshot{Catalog: base.Catalog, Generation: 1}
	const perSegment, rows = 250, 20
	for s := 0; s < 4; s++ {
		sg := Segment{ID: uint64(s + 1)}
		for k := 0; k < perSegment; k++ {
			ti := s*perSegment + k
			tab := &table.Table{
				ID:      fmt.Sprintf("b%d", ti),
				Context: "films and the directors who directed them",
				Headers: []string{"Film title", "Director", "Year"},
			}
			ann := &core.Annotation{
				TableID:     tab.ID,
				ColumnTypes: []catalog.TypeID{0, 1, catalog.None},
				Relations:   []core.RelationAnnotation{{Col1: 0, Col2: 1, Relation: 0, Forward: true}},
			}
			for r := 0; r < rows; r++ {
				i := ti*rows + r
				d := (i * 7) % 200
				name, ent := fmt.Sprintf("Director %d Lastname%d", d, d%37), catalog.EntityID(d)
				if i%3 == 2 {
					ent = catalog.None
					name = []string{name, "  " + name + ".", fmt.Sprintf("Lastname%d, Director %d", d%37, d)}[i%9/3]
				}
				tab.Cells = append(tab.Cells, []string{fmt.Sprintf("The Film %d of %d", i%5000, i%11), name, fmt.Sprint(1950 + i%70)})
				ann.CellEntities = append(ann.CellEntities, []catalog.EntityID{catalog.None, ent, catalog.None})
			}
			sg.Tables, sg.Anns = append(sg.Tables, tab), append(sg.Anns, ann)
		}
		snap.Segments = append(snap.Segments, sg)
	}
	return snap
}

// BenchmarkSnapshotSave compiles, compresses and frames the 1000-table
// snapshot.
func BenchmarkSnapshotSave(b *testing.B) {
	snap := benchSnapshot(b)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := Save(&buf, snap); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len())/1000, "B/table")
}

// BenchmarkSnapshotLoad reads the 1000-table snapshot back: checksums,
// inflate, and every segment decoded to its compiled index.
func BenchmarkSnapshotLoad(b *testing.B) {
	raw := saveChecked(b, benchSnapshot(b))
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}
