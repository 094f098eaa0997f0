package core

import (
	"context"

	"repro/internal/table"
)

// The stages of a collective annotation, for the benchmarks and
// allocation guards of package core_test: they need worldgen's tables,
// and worldgen imports this package.

type (
	Candidates = candidates
	AnnotGraph = annotGraph
)

// BuildCandidates works in an arena of its own, never released.
func (a *Annotator) BuildCandidates(ctx context.Context, t *table.Table) (*Candidates, error) {
	return a.buildCandidates(ctx, t, takeArena())
}

func (a *Annotator) BuildGraph(cs *Candidates) *AnnotGraph { return a.buildGraph(cs) }

func (ag *AnnotGraph) RunSchedule(ctx context.Context, maxIters int, tol float64) (int, bool, error) {
	return ag.runSchedule(ctx, maxIters, tol)
}

// SetMemoLimit gives the annotator an empty candidate memo whose
// generations hold at most n, so that a test can overflow it.
func (a *Annotator) SetMemoLimit(n int) { a.memo = &candidateMemo{limit: n} }

// MemoHeld recounts, from what each generation of the candidate memo
// holds — its slab of candidates, its entries and their keys — what each
// costs against the limit, and returns the limit.
func (a *Annotator) MemoHeld() (cur, old, limit int) {
	m := a.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	cost := func(g *memoGen) int {
		n := len(g.cands)
		for key := range g.at {
			n += 1 + len(key)/candidateBytes
		}
		return n
	}
	return cost(&m.cur), cost(&m.old), m.limit
}

// SetArenaPoison makes every released arena be overwritten with garbage
// before it is parked, until the returned function restores the previous
// setting: anything an annotation returned that still points into its
// arena then shows up as a wrong label, and under the race detector as a
// race with the next annotation.
func SetArenaPoison(on bool) (restore func()) {
	was := arenas.poison.Swap(on)
	return func() { arenas.poison.Store(was) }
}
