package core

import (
	"context"
	"sort"

	"repro/internal/catalog"
	"repro/internal/feature"
	"repro/internal/lemmaindex"
	"repro/internal/table"
)

// candidates holds the per-table label spaces of §4.3: E_rc per cell, T_c
// per column, B_cc′ per column pair, before the na option is appended.
type candidates struct {
	tab *table.Table
	// cols are the annotatable column indices (non-numeric, non-empty).
	cols []int
	// cells[i][r] are the entity candidates for cell (r, cols[i]).
	cells [][][]lemmaindex.Candidate
	// colTypes[i] is T_c for column cols[i].
	colTypes [][]catalog.TypeID
	// pairs are column pairs with at least one candidate relation.
	pairs []relPair
}

type relPair struct {
	i, j int // indices into cols (i < j)
	rels []feature.RelDir
}

// buildCandidates runs candidate generation for one table. It is the
// stage whose cost grows with the row count, so it polls ctx before every
// row's probe (tens of µs) and before every column pair's relation scan,
// and returns the context's error instead of a partial label space.
func (a *Annotator) buildCandidates(ctx context.Context, t *table.Table) (*candidates, error) {
	cs := &candidates{tab: t}
	// 1. Annotatable columns.
	for c := 0; c < t.Cols(); c++ {
		if t.ColumnNumericFraction(c) > a.cfg.NumericSkipFraction {
			continue
		}
		cs.cols = append(cs.cols, c)
	}
	// 2. Cell entity candidates.
	cs.cells = make([][][]lemmaindex.Candidate, len(cs.cols))
	for i, c := range cs.cols {
		cs.cells[i] = make([][]lemmaindex.Candidate, t.Rows())
		for r := 0; r < t.Rows(); r++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			cs.cells[i][r] = a.ix.CandidateEntities(t.Cell(r, c))
		}
	}
	// 3. Column type space: union over candidate entities of T(E).
	cs.colTypes = make([][]catalog.TypeID, len(cs.cols))
	for i := range cs.cols {
		cs.colTypes[i] = a.columnTypeSpace(cs, i)
	}
	// 4. Relation space per column pair.
	for i := 0; i < len(cs.cols); i++ {
		for j := i + 1; j < len(cs.cols); j++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			rels := a.relationSpace(cs, i, j)
			if len(rels) > 0 {
				cs.pairs = append(cs.pairs, relPair{i: i, j: j, rels: rels})
			}
		}
	}
	return cs, nil
}

// columnTypeSpace computes T_c = ∪_{E∈E_rc} T(E), optionally capped to
// the best MaxTypesPerColumn types under a cheap pre-score (header
// similarity + summed compatibility over candidate cells).
func (a *Annotator) columnTypeSpace(cs *candidates, i int) []catalog.TypeID {
	seen := make(map[catalog.TypeID]struct{})
	var types []catalog.TypeID
	for r := range cs.cells[i] {
		for _, cand := range cs.cells[i][r] {
			for _, t := range a.cat.TypeAncestorsOf(cand.Entity) {
				if _, dup := seen[t]; !dup {
					seen[t] = struct{}{}
					types = append(types, t)
				}
			}
		}
	}
	limit := a.cfg.MaxTypesPerColumn
	if limit <= 0 || len(types) <= limit {
		sort.Slice(types, func(x, y int) bool { return types[x] < types[y] })
		return types
	}
	header := cs.tab.Header(cs.cols[i])
	score := make(map[catalog.TypeID]float64, len(types))
	for _, t := range types {
		s := a.ext.LogPhi2(&a.w, header, t)
		for r := range cs.cells[i] {
			best := 0.0
			for _, cand := range cs.cells[i][r] {
				if v := a.ext.LogPhi3(&a.w, t, cand.Entity); v > best {
					best = v
				}
			}
			s += best
		}
		score[t] = s
	}
	sort.Slice(types, func(x, y int) bool {
		if score[types[x]] != score[types[y]] {
			return score[types[x]] > score[types[y]]
		}
		return types[x] < types[y]
	})
	types = types[:limit]
	sort.Slice(types, func(x, y int) bool { return types[x] < types[y] })
	return types
}

// relationSpace computes B_cc′ = ∪_r {B : B(E,E′) exists, E ∈ E_rc,
// E′ ∈ E_rc′} in both directions (§4.3).
func (a *Annotator) relationSpace(cs *candidates, i, j int) []feature.RelDir {
	seen := make(map[feature.RelDir]struct{})
	var rels []feature.RelDir
	for r := range cs.cells[i] {
		for _, ci := range cs.cells[i][r] {
			for _, cj := range cs.cells[j][r] {
				for _, rd := range a.cat.RelationsBetween(ci.Entity, cj.Entity) {
					k := feature.RelDir{Relation: rd.Relation, Forward: rd.Forward}
					if _, dup := seen[k]; !dup {
						seen[k] = struct{}{}
						rels = append(rels, k)
					}
				}
			}
		}
	}
	sort.Slice(rels, func(x, y int) bool {
		if rels[x].Relation != rels[y].Relation {
			return rels[x].Relation < rels[y].Relation
		}
		return rels[x].Forward && !rels[y].Forward
	})
	return rels
}

// pairFor returns the relPair joining column indices (i, j), if any.
func (cs *candidates) pairFor(i, j int) (relPair, bool) {
	for _, p := range cs.pairs {
		if p.i == i && p.j == j {
			return p, true
		}
	}
	return relPair{}, false
}
