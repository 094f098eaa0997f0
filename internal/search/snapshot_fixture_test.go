package search

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/snapshot"
	"repro/internal/table"
)

var writeSnapshotFixtures = flag.Bool("write-snapshot-fixtures", false,
	"write ../snapshot/testdata/*.snap with this commit's snapshot.Save (freezes the on-disk reference; run once, before the format changes)")

// TestWriteSnapshotFixtures persists two of the pages.golden corpora the
// way snapshot.Save writes them today, so the files freeze the format
// this commit reads and the live tables of each still answer their
// section of pages.golden:
//
//   - segmented.snap: the partialFixture corpus as a live-corpus manifest
//     at generation 7 — four segments, one of them entirely tombstoned
//     and saved without annotations, tombstoned tables carrying the odd
//     shapes (no headers, empty and non-ASCII cells, an annotation grid
//     smaller than its table, a backward relation, diagnostics, a table
//     without an annotation) and one live table nobody annotated, placed
//     last so no live table's corpus number moves;
//   - flat.snap: the fractionCorpus corpus in the flat shape, with the
//     same unannotated table appended.
func TestWriteSnapshotFixtures(t *testing.T) {
	if !*writeSnapshotFixtures {
		t.Skip("run with -write-snapshot-fixtures to rewrite ../snapshot/testdata/*.snap")
	}
	// No header or context token of plain is a token of any golden query,
	// so no mode ever schedules it.
	plain := &table.Table{
		ID:      "plain",
		Context: "unrelated listing",
		Headers: []string{"Alpha", "Beta"},
		Cells:   [][]string{{"one", "two"}, {"three", ""}},
	}

	c, tables, anns, _ := partialFixture(t, 24, 7)
	film, _ := c.TypeByName("Film")
	director, _ := c.TypeByName("Director")
	directed, _ := c.RelationByName("directed")
	saga, _ := c.EntityByName("Epic Saga")
	anns[9].TableID = "t9"
	anns[9].Diag = core.Diagnostics{
		CandidateGen: 1234567 * time.Nanosecond, GraphBuild: 89 * time.Microsecond, Inference: 3 * time.Millisecond,
		Iterations: 3, Converged: true, NumVars: 17, NumFactors: 29,
	}
	anns[20].Diag = core.Diagnostics{Iterations: 10, NumVars: 2}
	goneA := &table.Table{
		ID:      "gone-a",
		Context: "Œuvres — réalisées par quelqu’un",
		Cells: [][]string{
			{"Épopée  Saga", "", "Solo Auteur"},
			{"epic saga", "1999", "SOLO  AUTEUR"},
			{"  ", "n/a", "solo-auteur"},
		},
	}
	goneAAnn := &core.Annotation{
		TableID:      "gone-a",
		ColumnTypes:  []catalog.TypeID{film, catalog.None, director},
		CellEntities: [][]catalog.EntityID{{saga, catalog.None, catalog.None}, {saga, catalog.None, catalog.None}},
		Relations:    []core.RelationAnnotation{{Col1: 2, Col2: 0, Relation: directed, Forward: false}},
		Diag:         core.Diagnostics{Inference: 42},
	}
	goneB := &table.Table{
		ID:      "gone-b",
		Headers: []string{"Film", "Director"},
		Cells:   [][]string{{"Answer Cluster 0", "Solo Auteur"}},
	}
	goneC := &table.Table{ID: "gone-c", Headers: []string{"Novel", ""}, Cells: [][]string{{"x", "y"}}}
	goneD := &table.Table{ID: "gone-d", Context: "films directed by people", Cells: [][]string{{"z"}}}

	segA := snapshot.Segment{ID: 2, Dead: []int{0, 4}}
	segA.Tables = append(segA.Tables, goneA)
	segA.Anns = append(segA.Anns, goneAAnn)
	segA.Tables = append(segA.Tables, tables[0:3]...)
	segA.Anns = append(segA.Anns, anns[0:3]...)
	segA.Tables = append(segA.Tables, goneB)
	segA.Anns = append(segA.Anns, nil)
	segA.Tables = append(segA.Tables, tables[3:9]...)
	segA.Anns = append(segA.Anns, anns[3:9]...)
	segD := snapshot.Segment{
		ID:     9,
		Tables: append(append([]*table.Table(nil), tables[16:24]...), plain),
		Anns:   append(append([]*core.Annotation(nil), anns[16:24]...), nil),
	}
	segmented := &snapshot.Snapshot{
		Catalog: c.Snapshot(),
		Segments: []snapshot.Segment{
			segA,
			{ID: 5, Tables: tables[9:16], Anns: anns[9:16]},
			{ID: 6, Tables: []*table.Table{goneC, goneD}, Dead: []int{0, 1}},
			segD,
		},
		Generation: 7,
	}

	c, tables, anns, _ = fractionCorpus(t)
	flat := &snapshot.Snapshot{
		Catalog: c.Snapshot(),
		Tables:  append(tables, plain),
		Anns:    append(anns, nil),
	}

	dir := filepath.Join("..", "snapshot", "testdata")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, snap := range map[string]*snapshot.Snapshot{"segmented.snap": segmented, "flat.snap": flat} {
		var buf bytes.Buffer
		if err := snapshot.Save(&buf, snap); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
