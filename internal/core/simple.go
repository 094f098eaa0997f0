package core

import (
	"context"
	"time"

	"repro/internal/catalog"
	"repro/internal/table"
)

// AnnotateSimple runs the polynomial special case of §4.4.1 (Figure 2):
// relation variables and φ4/φ5 are excluded, so each column's type is
// settled independently, and given the type each cell's entity follows
// independently:
//
//	A_T = φ2(c,T) + Σ_r max_E [ φ1(r,c,E) + φ3(T,E) ]   (log space)
//	t*_c = argmax_T A_T
func (a *Annotator) AnnotateSimple(t *table.Table) *Annotation {
	ann, _ := a.AnnotateSimpleContext(context.Background(), t)
	return ann
}

// AnnotateSimpleContext is AnnotateSimple with cancellation: the context
// is checked before every row of candidate generation and between column
// type hypotheses. On cancellation it returns the annotation as labeled
// so far (all-na while candidates were still being generated) together
// with the context's error.
func (a *Annotator) AnnotateSimpleContext(ctx context.Context, t *table.Table) (*Annotation, error) {
	ann := newAnnotation(t)
	if err := ctx.Err(); err != nil {
		return ann, err
	}

	ar := takeArena()
	defer ar.release()
	start := time.Now()
	cs, err := a.buildCandidates(ctx, t, ar)
	if err != nil {
		return ann, err
	}
	candTime := time.Since(start)

	start = time.Now()
	for i, c := range cs.cols {
		if err := ctx.Err(); err != nil {
			return ann, err
		}
		bestType, bestScore, bestCells := catalog.TypeID(catalog.None), 0.0, a.bestCellsGivenType(cs, i, catalog.None)
		// The na option scores Σ_r max(0, max_E φ1): type absent, cells
		// may still be labeled on text evidence alone.
		for _, r := range bestCells {
			bestScore += r.score
		}
		for _, T := range cs.colTypes[i] {
			// Each hypothesis rescans every row of the column.
			if err := ctx.Err(); err != nil {
				return ann, err
			}
			aT := a.ext.LogPhi2(&a.w, &cs.headers[i], T)
			cells := a.bestCellsGivenType(cs, i, T)
			for _, rc := range cells {
				aT += rc.score
			}
			if aT > bestScore {
				bestType, bestScore, bestCells = T, aT, cells
			}
		}
		ann.ColumnTypes[c] = bestType
		for r, rc := range bestCells {
			ann.CellEntities[r][c] = rc.entity
		}
	}
	inferTime := time.Since(start)
	ann.Diag = Diagnostics{
		CandidateGen: candTime,
		Inference:    inferTime,
		Iterations:   1,
		Converged:    true,
	}
	return ann, nil
}

type cellChoice struct {
	entity catalog.EntityID // None for na
	score  float64
}

// bestCellsGivenType computes, per row, max over E (and na) of
// φ1 + φ3(T,E) — line 6 of Figure 2. T = None evaluates the na column
// hypothesis (φ3 never fires).
func (a *Annotator) bestCellsGivenType(cs *candidates, i int, T catalog.TypeID) []cellChoice {
	out := make([]cellChoice, cs.tab.Rows())
	phi3 := a.phi3Given(cs, i, T)
	for r := range out {
		best := cellChoice{entity: catalog.None, score: 0} // na baseline
		for _, cand := range cs.cells[i][r] {
			s := a.logPhi1(cand)
			if T != catalog.None {
				s += phi3(cand.Entity)
			}
			if s > best.score {
				best = cellChoice{entity: cand.Entity, score: s}
			}
		}
		out[r] = best
	}
	return out
}
