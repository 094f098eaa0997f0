package snapshot

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/table"
)

var update = flag.Bool("update", false, "rewrite testdata/snapshot.golden from what Load returns for the frozen fixtures")

// fixtures are the snapshot files frozen under testdata/: written as
// format version 2 at the commit before version 3 (25fdbb6, by
// internal/search's TestWriteSnapshotFixtures, which went with the
// writer), re-saved as version 3 in the commit before the version 1 and
// 2 reader was deleted, and as version 4 by the first version-4 writer,
// each time as Save of what Load returned. snapshot.golden is older than
// all three, less the diagnostics version 4 does not store. Every later
// reader must keep loading them.
//
//   - segmented.snap is the "partial" corpus of internal/search's
//     pages.golden as a live-corpus manifest at generation 7: four
//     segments, one of them entirely tombstoned and saved without
//     annotations; tombstoned tables carrying the odd shapes (no
//     headers, empty and non-ASCII cells, an annotation grid smaller
//     than its table, a backward relation, a table without an
//     annotation); and one live table nobody annotated, placed last so
//     no live table's corpus number moves.
//   - flat.snap is its "fraction" corpus in the flat shape, with the
//     same unannotated table appended.
var fixtures = []string{"segmented.snap", "flat.snap"}

// dumpSnapshot renders everything a Snapshot holds as deterministic
// text: the catalog's portable form, the generation, and per segment
// (or for the flat shape) every table's ID, context, headers and cells
// and every annotation's column types, cell entities and relations, plus
// the dead lists. Nil and empty slices print alike, so the dump states
// content, not representation.
func dumpSnapshot(s *Snapshot) []byte {
	var buf bytes.Buffer
	cat, err := json.Marshal(s.Catalog)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(&buf, "catalog %s\n", cat)
	fmt.Fprintf(&buf, "generation %d\n", s.Generation)
	fmt.Fprintf(&buf, "flat tables=%d annotations=%d\n", len(s.Tables), len(s.Anns))
	dumpTables(&buf, s.Tables, s.Anns)
	for i, sg := range s.Segments {
		fmt.Fprintf(&buf, "segment %d id=%d tables=%d annotations=%d dead=%v\n", i, sg.ID, len(sg.Tables), len(sg.Anns), append([]int{}, sg.Dead...))
		dumpTables(&buf, sg.Tables, sg.Anns)
	}
	return buf.Bytes()
}

func dumpTables(buf *bytes.Buffer, tables []*table.Table, anns []*core.Annotation) {
	for i, t := range tables {
		fmt.Fprintf(buf, "  table %d id=%q context=%q rows=%d cols=%d\n", i, t.ID, t.Context, t.Rows(), t.Cols())
		if t.Headers == nil {
			fmt.Fprintf(buf, "    headers none\n")
		} else {
			fmt.Fprintf(buf, "    headers %q\n", t.Headers)
		}
		for r, row := range t.Cells {
			fmt.Fprintf(buf, "    row %d %q\n", r, row)
		}
		if anns == nil || anns[i] == nil {
			fmt.Fprintf(buf, "    annotation none\n")
			continue
		}
		a := anns[i]
		fmt.Fprintf(buf, "    annotation table_id=%q types=%v rows=%d\n", a.TableID, append([]catalog.TypeID{}, a.ColumnTypes...), len(a.CellEntities))
		for r, row := range a.CellEntities {
			fmt.Fprintf(buf, "      entities %d %v\n", r, row)
		}
		for _, ra := range a.Relations {
			fmt.Fprintf(buf, "      relation %d %d -> %d forward=%v\n", ra.Relation, ra.Col1, ra.Col2, ra.Forward)
		}
	}
}

func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// loadFixture loads one frozen fixture.
func loadFixture(t testing.TB, name string) *Snapshot {
	t.Helper()
	snap, err := Load(bytes.NewReader(readFixture(t, name)))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return snap
}

// TestSnapshotGolden: the frozen fixtures load to exactly the content
// recorded in testdata/snapshot.golden, which the version-2 reader
// wrote. -update is only legitimate when Snapshot gains a field.
func TestSnapshotGolden(t *testing.T) {
	var got bytes.Buffer
	for _, name := range fixtures {
		fmt.Fprintf(&got, "== %s\n%s", name, dumpSnapshot(loadFixture(t, name)))
	}
	path := filepath.Join("testdata", "snapshot.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run TestSnapshotGolden -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("Load of the frozen fixtures diverges from %s:\n%s", path, got.Bytes())
	}
}
