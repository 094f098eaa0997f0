package searchidx_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/searchidx"
	"repro/internal/segment"
	"repro/internal/table"
)

// mergeWorld is a catalog of two types, one relation and a dozen
// entities, and a generator of random tables over it in every shape a
// segment must carry: with and without headers, ID-less contexts, empty
// and non-ASCII cells, spellings that differ only in case or spacing,
// tables nobody annotated, annotation grids smaller and larger than
// their table, backward relations, diagnostics.
type mergeWorld struct {
	cat      *catalog.Catalog
	types    []catalog.TypeID
	relation catalog.RelationID
	entities []catalog.EntityID
	next     int
}

func newMergeWorld(t *testing.T) *mergeWorld {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	w := &mergeWorld{cat: catalog.New()}
	film, err := w.cat.AddType("Film", "movie")
	must(err)
	director, err := w.cat.AddType("Director", "director")
	must(err)
	w.types = []catalog.TypeID{film, director, catalog.None}
	w.relation, err = w.cat.AddRelation("directed", film, director, catalog.ManyToOne)
	must(err)
	for i := 0; i < 12; i++ {
		e, err := w.cat.AddEntity(fmt.Sprintf("Director %d", i), nil, director)
		must(err)
		w.entities = append(w.entities, e)
	}
	must(w.cat.Freeze())
	return w
}

var mergeCells = []string{"", "  ", "Epic Saga", "epic  saga", "EPIC SAGA", "Épopée", "épopée", "Director 3", "director 3.", "Solo Auteur", "solo-auteur", "1999", "n/a", "\xff\xfe"}

func (w *mergeWorld) table(rng *rand.Rand, annotate bool) (*table.Table, *core.Annotation) {
	rows, cols := 1+rng.Intn(5), 1+rng.Intn(4)
	t := &table.Table{ID: fmt.Sprintf("m%d", w.next), Context: []string{"", "films directed by people", "Œuvres — réalisées"}[rng.Intn(3)]}
	w.next++
	if rng.Intn(3) > 0 {
		t.Headers = make([]string, cols)
		for c := range t.Headers {
			t.Headers[c] = []string{"", "Film", "Director", "Film title", "Année"}[rng.Intn(5)]
		}
	}
	for r := 0; r < rows; r++ {
		row := make([]string, cols)
		for c := range row {
			if row[c] = mergeCells[rng.Intn(len(mergeCells))]; rng.Intn(4) == 0 {
				row[c] = fmt.Sprintf("Film %d", rng.Intn(40))
			}
		}
		t.Cells = append(t.Cells, row)
	}
	if !annotate || rng.Intn(5) == 0 {
		return t, nil
	}
	// The annotation's grid is its table's shape four times in five, else
	// a row or a column short or long of it.
	aRows, aCols := rows, cols
	if rng.Intn(5) == 0 {
		aRows, aCols = max(0, rows+rng.Intn(3)-1), max(1, cols+rng.Intn(3)-1)
	}
	a := &core.Annotation{TableID: t.ID, ColumnTypes: make([]catalog.TypeID, aCols), CellEntities: make([][]catalog.EntityID, aRows)}
	for c := range a.ColumnTypes {
		a.ColumnTypes[c] = w.types[rng.Intn(len(w.types))]
	}
	for r := range a.CellEntities {
		a.CellEntities[r] = make([]catalog.EntityID, aCols)
		for c := range a.CellEntities[r] {
			if a.CellEntities[r][c] = catalog.None; rng.Intn(2) == 0 {
				a.CellEntities[r][c] = w.entities[rng.Intn(len(w.entities))]
			}
		}
	}
	for i := rng.Intn(3); i > 0 && aCols > 1; i-- {
		c1 := rng.Intn(aCols)
		a.Relations = append(a.Relations, core.RelationAnnotation{Col1: c1, Col2: (c1 + 1 + rng.Intn(aCols-1)) % aCols, Relation: w.relation, Forward: rng.Intn(2) == 0})
	}
	if rng.Intn(2) == 0 {
		a.Diag = core.Diagnostics{CandidateGen: time.Duration(rng.Intn(1e6)), Inference: time.Duration(rng.Intn(1e9)), Iterations: rng.Intn(9), NumVars: rng.Intn(50), Converged: rng.Intn(2) == 0}
	}
	return t, a
}

// TestMergeEqualsRebuild: however a segment came to be — added, or
// merged out of a run of segments with tombstones by compaction — a
// segment without tombstones equals, field for field, the index
// BuildContext compiles from its tables and annotations: dictionaries
// numbered in the same order, the same cell arrays, the same posting
// lists. Compaction reclaims every tombstone here (any dead table makes
// its segment due for a rewrite), so after each compaction that is every
// segment of the corpus.
func TestMergeEqualsRebuild(t *testing.T) {
	ctx := context.Background()
	w := newMergeWorld(t)
	checked := 0
	check := func(label string, v *segment.View) {
		t.Helper()
		tables, anns := v.Flatten()
		for i := 0; i < v.Segments(); i++ {
			ix, global := v.Segment(i)
			var segTables []*table.Table
			segAnns := []*core.Annotation{}
			annotated := false
			for _, g := range global {
				if g < 0 {
					continue
				}
				segTables = append(segTables, tables[g])
				if anns == nil {
					segAnns = append(segAnns, nil)
					continue
				}
				segAnns = append(segAnns, anns[g])
				annotated = annotated || anns[g] != nil
			}
			if len(segTables) != len(global) {
				continue // tombstoned tables are still in the segment
			}
			want, err := searchidx.BuildContext(ctx, w.cat, segTables, segAnns)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			diff := searchidx.IndexDiff(ix, want)
			if diff != "" && !annotated {
				// A batch added without annotations has no annotation list,
				// a merge of such tables one without an entry.
				if want, err = searchidx.BuildContext(ctx, w.cat, segTables, nil); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				diff = searchidx.IndexDiff(ix, want)
			}
			if diff != "" {
				t.Fatalf("%s: segment %d differs from a build over its %d tables: %s", label, i, len(segTables), diff)
			}
			checked++
		}
	}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st, err := segment.New(w.cat, segment.Config{Policy: segment.CompactionPolicy{MergeFactor: 2, TierBase: 3, MaxDeadFraction: 1e-9}})
		if err != nil {
			t.Fatal(err)
		}
		var live []string
		history := fmt.Sprintf("seed %d:", seed)
		for step := 0; step < 14; step++ {
			switch op := rng.Intn(7); {
			case op < 3 || len(live) == 0:
				n, annotate := 1+rng.Intn(6), rng.Intn(4) > 0
				tables, anns := make([]*table.Table, n), make([]*core.Annotation, n)
				for i := range tables {
					tables[i], anns[i] = w.table(rng, annotate)
					live = append(live, tables[i].ID)
				}
				if !annotate {
					anns = nil
				}
				if _, err := st.Add(ctx, tables, anns); err != nil {
					t.Fatalf("%s add: %v", history, err)
				}
				history += fmt.Sprintf(" add%d", n)
			case op < 6:
				i := rng.Intn(len(live))
				if _, err := st.Remove(live[i : i+1]); err != nil {
					t.Fatalf("%s remove: %v", history, err)
				}
				live = append(live[:i], live[i+1:]...)
				history += " remove"
			default:
				if _, err := st.Compact(ctx); err != nil {
					t.Fatalf("%s compact: %v", history, err)
				}
				history += " compact"
			}
			check(history, st.View())
		}
		v, err := st.Compact(ctx)
		if err != nil {
			t.Fatalf("%s compact: %v", history, err)
		}
		if v.Tombstones() != 0 {
			t.Fatalf("%s: %d tombstones survive a compaction", history, v.Tombstones())
		}
		check(history+" compact", v)
		st.Close()
	}
	if checked < 100 {
		t.Fatalf("only %d segments compared", checked)
	}
	t.Logf("%d segments compared", checked)
}
