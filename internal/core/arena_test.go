package core_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/table"
	"repro/internal/text"
	"repro/internal/worldgen"
)

// methods runs every way the package annotates a table, the training
// paths included, and returns what each returned with the timings taken
// out.
func methods(a *core.Annotator, tab *table.Table) []any {
	untimed := func(ann *core.Annotation) *core.Annotation {
		ann.Diag.CandidateGen, ann.Diag.GraphBuild, ann.Diag.Inference = 0, 0, 0
		return ann
	}
	lca, majority := a.AnnotateLCA(tab), a.AnnotateMajority(tab)
	untimed(&lca.Annotation)
	untimed(&majority.Annotation)
	collective := untimed(a.AnnotateCollective(tab))
	gold := core.GoldLabels{ColumnTypes: map[int]catalog.TypeID{}, Cells: map[[2]int]catalog.EntityID{}}
	for c, T := range majority.ColumnTypes {
		gold.ColumnTypes[c] = T
	}
	return []any{collective, untimed(a.AnnotateSimple(tab)), lca, majority,
		a.GoldAnnotation(tab, gold), a.FeatureVector(tab, collective), untimed(a.AnnotateLossAugmented(tab, gold, 0.5))}
}

// TestAnnotateMatchesUnderPoison: with every released arena overwritten
// (SetArenaPoison), every method — run by concurrent workers, each table
// twice over by each worker — returns exactly what an annotator of its
// own returns unpoisoned, so nothing an annotation returns points into
// its arena, and the candidate memo the workers share holds no arena
// memory: its entries are written from poisoned arenas' successors, and
// the second pass reads nothing but entries. Under the race detector a
// surviving alias is also a race with the next annotation.
func TestAnnotateMatchesUnderPoison(t *testing.T) {
	w, err := worldgen.Build(worldgen.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	ref := core.New(w.Public, feature.DefaultWeights(), core.DefaultConfig())
	a := core.NewWithIndex(w.Public, ref.Index(), feature.DefaultWeights(), core.DefaultConfig())
	var tables []*table.Table
	for _, lt := range w.WebManual(0.02).Tables {
		tables = append(tables, lt.Table)
	}
	want := make([][]any, len(tables))
	for i, tab := range tables {
		want[i] = methods(ref, tab)
	}
	defer core.SetArenaPoison(true)()
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range 2 * len(tables) {
				i := (k + g) % len(tables)
				if got := methods(a, tables[i]); !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Errorf("worker %d, table %s: poisoned arenas changed an annotation", g, tables[i].ID)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCandidateMemoBounded: an annotator whose candidate memo is far
// smaller than the distinct cell texts it meets keeps each generation
// within its limit after every table, and annotates every table — twice
// over, so that entries are dropped, copied forward and read back — as an
// annotator with a memo of its own does.
func TestCandidateMemoBounded(t *testing.T) {
	w, err := worldgen.Build(worldgen.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	ref := core.New(w.Public, feature.DefaultWeights(), core.DefaultConfig())
	a := core.NewWithIndex(w.Public, ref.Index(), feature.DefaultWeights(), core.DefaultConfig())
	const limit = 60
	a.SetMemoLimit(limit)
	var tables []*table.Table
	texts := map[string]bool{}
	for _, lt := range w.WebManual(0.02).Tables {
		tables = append(tables, lt.Table)
		for _, row := range lt.Table.Cells {
			for _, cell := range row {
				texts[text.Normalize(cell)] = true
			}
		}
	}
	if len(texts) <= 2*limit {
		t.Fatalf("%d distinct cell texts cannot overflow two generations of %d", len(texts), limit)
	}
	want := make([][]any, len(tables))
	for i, tab := range tables {
		want[i] = methods(ref, tab)
	}
	for pass := 0; pass < 2; pass++ {
		for i, tab := range tables {
			if got := methods(a, tab); !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("pass %d, table %s: a bounded memo changed an annotation", pass, tab.ID)
			}
			if cur, old, n := a.MemoHeld(); n != limit || cur > limit || old > limit {
				t.Fatalf("pass %d, table %s: generations hold %d and %d, limit %d", pass, tab.ID, cur, old, limit)
			}
		}
	}
}

// TestAnnotateAllocationsIndependentOfRows: a collective annotation cuts
// its label spaces, potentials and graph from an arena that, once grown,
// a table of the same shape does not outgrow, so a 40-row table and its
// first 10 rows allocate the same number of objects — the returned
// annotation, the compiled headers, the decoded assignment — up to the
// growth of the returned relation list, which holds one label per column
// pair at most.
func TestAnnotateAllocationsIndependentOfRows(t *testing.T) {
	w, err := worldgen.Build(worldgen.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	a := core.New(w.Public, feature.DefaultWeights(), core.DefaultConfig())
	rel := w.Relations[0]
	long := w.GenerateDataset("rows", 5, 1, 40, 40, worldgen.NoisyProfile(), worldgen.AllGTLayers(), rel.Name).Tables[0].Table
	short := long.Clone()
	short.Cells = short.Cells[:10]
	ctx := context.Background()
	allocs := func(tab *table.Table) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := a.AnnotateCollectiveContext(ctx, tab); err != nil {
				t.Fatal(err)
			}
		})
	}
	allocs(long) // grows the arena and fills the candidate memo
	ten, forty := allocs(short), allocs(long)
	t.Logf("%d columns: %v allocations for 10 rows, %v for 40", long.Cols(), ten, forty)
	if pairs := float64(long.Cols() * (long.Cols() - 1) / 2); forty-ten > pairs || ten-forty > pairs {
		t.Errorf("40 rows allocate %v times, 10 rows %v: want the same up to %v", forty, ten, pairs)
	}
}
