package core_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/table"
	"repro/internal/worldgen"
)

var update = flag.Bool("update", false, "rewrite testdata/annotations.golden from the current implementation")

func renderTypes(buf *bytes.Buffer, label string, ts []catalog.TypeID) {
	fmt.Fprintf(buf, "  %s", label)
	for _, ty := range ts {
		fmt.Fprintf(buf, " %d", ty)
	}
	buf.WriteByte('\n')
}

func renderRelations(buf *bytes.Buffer, label string, rs []core.RelationAnnotation) {
	fmt.Fprintf(buf, "  %s", label)
	for _, r := range rs {
		fmt.Fprintf(buf, " %d-%d:%d/%t", r.Col1, r.Col2, r.Relation, r.Forward)
	}
	buf.WriteByte('\n')
}

func renderAnnotation(buf *bytes.Buffer, method string, ann *core.Annotation) {
	d := ann.Diag
	fmt.Fprintf(buf, " %s iters=%d converged=%t vars=%d factors=%d\n", method, d.Iterations, d.Converged, d.NumVars, d.NumFactors)
	renderTypes(buf, "types", ann.ColumnTypes)
	for r, row := range ann.CellEntities {
		fmt.Fprintf(buf, "  row %d", r)
		for _, e := range row {
			fmt.Fprintf(buf, " %d", e)
		}
		buf.WriteByte('\n')
	}
	renderRelations(buf, "relations", ann.Relations)
}

func renderBaseline(buf *bytes.Buffer, method string, ann *core.BaselineAnnotation) {
	renderAnnotation(buf, method, &ann.Annotation)
	for c, ts := range ann.ColumnTypeSets {
		renderTypes(buf, fmt.Sprintf("typeset %d", c), ts)
	}
	renderRelations(buf, "relationset", ann.RelationSets)
}

// TestAnnotationsGolden freezes what the four annotators decide — every
// label, the BP iteration count and convergence flag, and the factor
// graph's size — on the tables candidates.golden (internal/lemmaindex)
// takes its cells from: four clean WikiManual tables and seven noisy
// WebManual tables of the default world, under the default weights.
// Labels are a function of candidate sets, similarity profiles and
// message values, so a change in any low bit that flips an argmax or the
// convergence test shows up here.
func TestAnnotationsGolden(t *testing.T) {
	w, err := worldgen.Build(worldgen.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	a := core.New(w.Public, feature.DefaultWeights(), core.DefaultConfig())
	var tables []*table.Table
	for _, ds := range []worldgen.Dataset{w.WikiManual(0.1), w.WebManual(0.02)} {
		for _, lt := range ds.Tables {
			tables = append(tables, lt.Table)
		}
	}

	var buf bytes.Buffer
	for _, tab := range tables {
		fmt.Fprintf(&buf, "table %s rows=%d cols=%d\n", tab.ID, tab.Rows(), tab.Cols())
		renderAnnotation(&buf, "collective", a.AnnotateCollective(tab))
		renderAnnotation(&buf, "simple", a.AnnotateSimple(tab))
		renderBaseline(&buf, "majority", a.AnnotateMajority(tab))
		renderBaseline(&buf, "lca", a.AnnotateLCA(tab))
	}

	path := filepath.Join("testdata", "annotations.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run TestAnnotationsGolden -update to create it)", err)
	}
	got := buf.Bytes()
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
}
