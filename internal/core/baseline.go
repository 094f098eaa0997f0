package core

import (
	"context"
	"sort"
	"time"

	"repro/internal/catalog"
	"repro/internal/table"
)

// BaselineAnnotation extends Annotation with the multi-type column
// predictions the baselines emit (the paper evaluates them with F1, so a
// baseline may report several types per column).
type BaselineAnnotation struct {
	Annotation
	// ColumnTypeSets[c] holds every type reported for column c.
	ColumnTypeSets [][]catalog.TypeID
	// RelationSets holds every relation reported per column pair.
	RelationSets []RelationAnnotation
}

// AnnotateLCA implements the least-common-ancestor baseline (§4.5.1):
// a column's types are the minimal elements of ∩_r ∪_{E∈E_rc} T(E); cell
// entities then follow the Figure-2 local rule restricted to the reported
// types. LCA produces no relation labels (Figure 6 reports "-").
//
// A cell with no candidates admits no type, so one unresolvable cell
// leaves its column na (see voteColumnTypes).
func (a *Annotator) AnnotateLCA(t *table.Table) *BaselineAnnotation {
	return a.annotateVoting(t, 1.0, false)
}

// AnnotateMajority implements the Majority baseline (§4.5.2) at threshold
// F=0.5: a type is reported for a column when more than F of the rows
// admit it; entity assignment is purely local (max φ1 per cell,
// independent of the column type); relations are voted per row.
func (a *Annotator) AnnotateMajority(t *table.Table) *BaselineAnnotation {
	return a.annotateVoting(t, 0.5, true)
}

// AnnotateThreshold generalizes both baselines: fraction=1.0 is LCA,
// fraction=0.5 is Majority; the paper also sweeps 0.6 (§6.1.1). localCells
// selects Majority-style per-cell entity assignment; otherwise entities
// are chosen given the best reported type.
func (a *Annotator) AnnotateThreshold(t *table.Table, fraction float64, localCells bool) *BaselineAnnotation {
	return a.annotateVoting(t, fraction, localCells)
}

func (a *Annotator) annotateVoting(t *table.Table, fraction float64, localCells bool) *BaselineAnnotation {
	ann := &BaselineAnnotation{Annotation: *newAnnotation(t)}
	ann.ColumnTypeSets = make([][]catalog.TypeID, t.Cols())

	ar := takeArena()
	defer ar.release()
	start := time.Now()
	cs, _ := a.buildCandidates(context.Background(), t, ar)
	candTime := time.Since(start)

	start = time.Now()
	for i, c := range cs.cols {
		types := a.voteColumnTypes(cs, i, fraction)
		ann.ColumnTypeSets[c] = types
		// Single best type for the 0/1-style consumers: the most
		// specific reported type (largest specificity), tie-break lowest.
		if len(types) > 0 {
			best := types[0]
			for _, T := range types[1:] {
				if a.cat.Specificity(T) > a.cat.Specificity(best) {
					best = T
				}
			}
			ann.ColumnTypes[c] = best
		}
		// Entity assignment.
		if localCells {
			for r := 0; r < t.Rows(); r++ {
				bestE, bestS := catalog.EntityID(catalog.None), 0.0
				for _, cand := range cs.cells[i][r] {
					if s := a.logPhi1(cand); s > bestS {
						bestE, bestS = cand.Entity, s
					}
				}
				ann.CellEntities[r][c] = bestE
			}
		} else {
			cells := a.bestCellsGivenType(cs, i, ann.ColumnTypes[c])
			for r, rc := range cells {
				ann.CellEntities[r][c] = rc.entity
			}
		}
	}
	if localCells {
		// Relation voting (Majority only; LCA reports none).
		for _, p := range cs.pairs {
			a.voteRelations(cs, p, fraction, ann)
		}
	}
	ann.Diag = Diagnostics{CandidateGen: candTime, Inference: time.Since(start), Iterations: 1, Converged: true}
	return ann
}

// voteColumnTypes computes the type vote of §4.5.2: vote(T) = |{r : T ∈
// ∪_{E∈E_rc} T(E)}|, keeps types with vote > fraction·rows, and reduces
// the survivors to their minimal (most specific) elements — at fraction
// 1.0 this is exactly the LCA construction of §4.5.1. Following the
// paper's formula literally, a cell with no candidates contributes an
// empty union: at F=1.0 one unresolvable cell empties the intersection,
// the brittleness §6.1.1 attributes to LCA.
func (a *Annotator) voteColumnTypes(cs *candidates, i int, fraction float64) []catalog.TypeID {
	votes := make(map[catalog.TypeID]int)
	voting := 0
	for r := range cs.cells[i] {
		voting++
		if len(cs.cells[i][r]) == 0 {
			continue // empty union: votes for nothing
		}
		rowTypes := make(map[catalog.TypeID]struct{})
		for _, cand := range cs.cells[i][r] {
			anc, _ := a.cat.TypeDistances(cand.Entity)
			for _, T := range anc {
				rowTypes[T] = struct{}{}
			}
		}
		for T := range rowTypes {
			votes[T]++
		}
	}
	if voting == 0 {
		return nil
	}
	need := fraction * float64(voting)
	var qualified []catalog.TypeID
	for T, v := range votes {
		fv := float64(v)
		// "more than a threshold F% vote"; at F=1.0 require all rows.
		if fv >= need && (fraction < 1.0 || v == voting) {
			qualified = append(qualified, T)
		}
	}
	// TypeID order, not map order: qualified feeds the reported type
	// sets, which must be reproducible run to run.
	sort.Slice(qualified, func(i, j int) bool { return qualified[i] < qualified[j] })
	// Minimal elements only (drop any type with a qualified descendant).
	var minimal []catalog.TypeID
	for _, T := range qualified {
		isMin := true
		for _, U := range qualified {
			if U != T && a.cat.IsSubtype(U, T) {
				isMin = false
				break
			}
		}
		if isMin {
			minimal = append(minimal, T)
		}
	}
	sort.Slice(minimal, func(x, y int) bool { return minimal[x] < minimal[y] })
	return minimal
}

// voteRelations tallies, per candidate relation, the number of rows where
// some candidate entity pair realizes it, and reports relations above the
// fraction threshold (best vote first for the single-label slot). The
// denominator is the number of rows supporting *any* relation — the seed
// tuple store covers only a fraction of world facts, so an absolute
// threshold over all rows would reject everything.
func (a *Annotator) voteRelations(cs *candidates, p relPair, fraction float64, ann *BaselineAnnotation) {
	votes := make(map[int]int, len(p.rels))
	rows := 0
	for r := range cs.cells[p.i] {
		ci, cj := cs.cells[p.i][r], cs.cells[p.j][r]
		if len(ci) == 0 || len(cj) == 0 {
			continue
		}
		supported := false
		for bi, rd := range p.rels {
			found := false
			for _, ce := range ci {
				for _, cf := range cj {
					s, o := ce.Entity, cf.Entity
					if !rd.Forward {
						s, o = o, s
					}
					if a.cat.HasTuple(rd.Relation, s, o) {
						found = true
						break
					}
				}
				if found {
					break
				}
			}
			if found {
				votes[bi]++
				supported = true
			}
		}
		if supported {
			rows++
		}
	}
	if rows == 0 {
		return
	}
	bestBi, bestVotes := -1, 0
	// Candidate-index order, not map order: RelationSets is part of the
	// reported annotation and must be reproducible run to run.
	bis := make([]int, 0, len(votes))
	for bi := range votes {
		bis = append(bis, bi)
	}
	sort.Ints(bis)
	for _, bi := range bis {
		v := votes[bi]
		if float64(v) < fraction*float64(rows) {
			continue
		}
		ann.RelationSets = append(ann.RelationSets, RelationAnnotation{
			Col1: cs.cols[p.i], Col2: cs.cols[p.j],
			Relation: p.rels[bi].Relation, Forward: p.rels[bi].Forward,
		})
		if v > bestVotes || (v == bestVotes && bi < bestBi) {
			bestBi, bestVotes = bi, v
		}
	}
	if bestBi >= 0 {
		ann.Relations = append(ann.Relations, RelationAnnotation{
			Col1: cs.cols[p.i], Col2: cs.cols[p.j],
			Relation: p.rels[bestBi].Relation, Forward: p.rels[bestBi].Forward,
		})
	}
}
