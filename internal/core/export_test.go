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

func (a *Annotator) BuildCandidates(ctx context.Context, t *table.Table) (*Candidates, error) {
	return a.buildCandidates(ctx, t)
}

func (a *Annotator) BuildGraph(cs *Candidates) *AnnotGraph { return a.buildGraph(cs) }

func (ag *AnnotGraph) RunSchedule(ctx context.Context, maxIters int, tol float64) (int, bool, error) {
	return ag.runSchedule(ctx, maxIters, tol)
}
