package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/table"
	"repro/internal/worldgen"
)

// noisyTable returns the default world's annotator and the noisy web
// table with the most rows among the golden set's.
func noisyTable(tb testing.TB) (*core.Annotator, *table.Table) {
	tb.Helper()
	w, err := worldgen.Build(worldgen.DefaultSpec())
	if err != nil {
		tb.Fatal(err)
	}
	var tab *table.Table
	for _, lt := range w.WebManual(0.02).Tables {
		if tab == nil || lt.Table.Rows() > tab.Rows() {
			tab = lt.Table
		}
	}
	return core.New(w.Public, feature.DefaultWeights(), core.DefaultConfig()), tab
}

// TestRunScheduleAllocationsIndependentOfIterations: message passing
// allocates its message store once, in InitMessages; sweeps and the
// convergence test reuse it, so thirty iterations cost the allocations of
// one. (A tolerance of 0 is never met: the schedule runs to maxIters.)
func TestRunScheduleAllocationsIndependentOfIterations(t *testing.T) {
	a, tab := noisyTable(t)
	ctx := context.Background()
	cs, err := a.BuildCandidates(ctx, tab)
	if err != nil {
		t.Fatal(err)
	}
	ag := a.BuildGraph(cs)
	allocs := func(maxIters int) float64 {
		return testing.AllocsPerRun(5, func() {
			if iters, converged, err := ag.RunSchedule(ctx, maxIters, 0); iters != maxIters || converged || err != nil {
				t.Fatalf("RunSchedule(%d, 0) = (%d, %t, %v)", maxIters, iters, converged, err)
			}
		})
	}
	one, thirty := allocs(1), allocs(30)
	if one != thirty || one > 4 {
		t.Errorf("runSchedule allocates %v times for 1 iteration and %v for 30, want the same and at most 4", one, thirty)
	}
}

// BenchmarkBuildGraph measures potential construction for one noisy web
// table: φ1–φ5 tables from the candidates' compiled profiles, the
// column's φ3 scores and the frozen catalog's lookups.
func BenchmarkBuildGraph(b *testing.B) {
	a, tab := noisyTable(b)
	cs, err := a.BuildCandidates(context.Background(), tab)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.BuildGraph(cs)
	}
}
