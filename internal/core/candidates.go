package core

import (
	"cmp"
	"context"
	"slices"

	"repro/internal/catalog"
	"repro/internal/feature"
	"repro/internal/lemmaindex"
	"repro/internal/table"
	"repro/internal/text"
)

// candidates holds the per-table label spaces of §4.3: E_rc per cell, T_c
// per column, B_cc′ per column pair, before the na option is appended.
// It lives in, and is cut from, the annotation's arena.
type candidates struct {
	ar  *arena
	tab *table.Table
	// cols are the annotatable column indices (non-numeric, non-empty).
	cols []int
	// headers[i] is the header of column cols[i], compiled once for all
	// the types it is compared with.
	headers []lemmaindex.Query
	// cells[i][r] are the entity candidates for cell (r, cols[i]).
	cells [][][]lemmaindex.Candidate
	// colTypes[i] is T_c for column cols[i].
	colTypes [][]catalog.TypeID
	// phi3[i] is log φ3 between colTypes[i] and the candidates of cells[i].
	phi3 []phi3Table
	// pairs are column pairs with at least one candidate relation.
	pairs []relPair
}

// phi3Table holds log φ3(T, E) for one column: every type of its type
// space against every distinct candidate entity of its cells, one row per
// direct-type set (catalog.TypeSignature), through which alone φ3 reads
// an entity. A pair is scored once per table, however many entities share
// the set, cells propose them and passes — the type pre-score, the
// potential tables, the Figure-2 special case — read the score.
type phi3Table struct {
	ents  []catalog.EntityID // distinct candidate entities, ascending
	rowOf []int32            // rowOf[k] is the row of ents[k]'s signature
	width int                // number of types
	vals  []float64          // vals[row*width+ti] = log φ3(types[ti], entities of that row)
}

// row returns e's scores, one per type of the column's type space in
// order. e must be a candidate of the column.
func (p *phi3Table) row(e catalog.EntityID) []float64 {
	k, _ := slices.BinarySearch(p.ents, e)
	r := int(p.rowOf[k])
	return p.vals[r*p.width : (r+1)*p.width]
}

// phi3Given returns log φ3(T, ·) over the candidates of column cols[i]:
// read from the column's table when T is in its type space, computed
// when it is not (the baselines vote over every ancestor, so they may
// settle on a type the maxTypesPerColumn cap dropped).
func (a *Annotator) phi3Given(cs *candidates, i int, T catalog.TypeID) func(catalog.EntityID) float64 {
	if ti, ok := slices.BinarySearch(cs.colTypes[i], T); ok {
		tab := &cs.phi3[i]
		return func(e catalog.EntityID) float64 { return tab.row(e)[ti] }
	}
	return func(e catalog.EntityID) float64 { return a.ext.LogPhi3(&a.w, T, e) }
}

type relPair struct {
	i, j int // indices into cols (i < j)
	rels []feature.RelDir
}

// buildCandidates runs candidate generation for one table in ar. It is
// the stage whose cost grows with the row count, so it polls ctx before
// every row's probe (tens of µs) and before every column pair's relation
// scan, and returns the context's error instead of a partial label space.
// A cell's candidates come from the annotator's memo when a cell with the
// same normalised text was probed before.
func (a *Annotator) buildCandidates(ctx context.Context, t *table.Table, ar *arena) (*candidates, error) {
	cs := &ar.cs
	*cs = candidates{ar: ar, tab: t, cols: cs.cols[:0], headers: cs.headers[:0], cells: cs.cells[:0],
		colTypes: cs.colTypes[:0], phi3: cs.phi3[:0], pairs: cs.pairs[:0]}
	ar.cands, ar.cells, ar.ents, ar.rowOf, ar.types, ar.vals = ar.cands[:0], ar.cells[:0], ar.ents[:0], ar.rowOf[:0], ar.types[:0], ar.vals[:0]
	ar.rels = ar.rels[:0]
	// 1. Annotatable columns.
	for c := 0; c < t.Cols(); c++ {
		if t.ColumnNumericFraction(c) > numericSkipFraction {
			continue
		}
		cs.cols = append(cs.cols, c)
		cs.headers = slices.Grow(cs.headers, 1)[:len(cs.headers)+1] // reuses the Query parked there
		a.ix.Compile(&cs.headers[len(cs.headers)-1], t.Header(c))
	}
	// 2. Cell entity candidates, memoised or probed into the arena's slab.
	var hits, misses uint64
	defer func() { memoTotal.With("hit").Add(hits); memoTotal.With("miss").Add(misses) }()
	for _, c := range cs.cols {
		row0 := len(ar.cells)
		for r := 0; r < t.Rows(); r++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			start := len(ar.cands)
			ar.key = text.AppendNormalized(ar.key[:0], t.Cell(r, c))
			var hit bool
			if ar.cands, hit = a.memo.appendCandidates(ar.cands, ar.key); hit {
				hits++
			} else {
				ar.cands = a.ix.AppendCandidates(ar.cands, t.Cell(r, c), &ar.probe)
				a.memo.insert(ar.key, ar.cands[start:])
				misses++
			}
			ar.cells = append(ar.cells, since(ar.cands, start))
		}
		cs.cells = append(cs.cells, since(ar.cells, row0))
	}
	// 3. Column type space: union over candidate entities of T(E).
	for i := range cs.cols {
		types, phi3 := a.columnTypeSpace(cs, i)
		cs.colTypes, cs.phi3 = append(cs.colTypes, types), append(cs.phi3, phi3)
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

// columnTypeSpace computes T_c = ∪_{E∈E_rc} T(E), capped to the best
// maxTypesPerColumn types under a cheap pre-score (header
// similarity + summed compatibility over candidate cells), together with
// the column's φ3 table over the types it returns, cut from the arena.
func (a *Annotator) columnTypeSpace(cs *candidates, i int) ([]catalog.TypeID, phi3Table) {
	ar := cs.ar
	e0, r0, t0 := len(ar.ents), len(ar.rowOf), len(ar.types)
	for r := range cs.cells[i] {
		for _, cand := range cs.cells[i][r] {
			ar.ents = append(ar.ents, cand.Entity)
		}
	}
	slices.Sort(ar.ents[e0:])
	ar.ents = ar.ents[:e0+len(slices.Compact(ar.ents[e0:]))]
	ents := since(ar.ents, e0)
	// One representative entity per signature, in order of first sight.
	reps := ar.reps[:0]
	clear(ar.sigs)
	for _, e := range ents {
		sig := a.cat.TypeSignature(e)
		r, ok := ar.sigs[sig]
		if !ok {
			r = int32(len(reps))
			ar.sigs[sig] = r
			reps = append(reps, e)
		}
		ar.rowOf = append(ar.rowOf, r)
	}
	ar.reps = reps
	for _, e := range reps {
		anc, _ := a.cat.TypeDistances(e)
		ar.types = append(ar.types, anc...)
	}
	slices.Sort(ar.types[t0:])
	ar.types = ar.types[:t0+len(slices.Compact(ar.types[t0:]))]
	types := since(ar.types, t0)

	tab := phi3Table{ents: ents, rowOf: since(ar.rowOf, r0), width: len(types), vals: take(&ar.vals, len(reps)*len(types))}
	for row, e := range reps {
		a.ext.FillPhi3(&a.w, e, types, tab.vals[row*tab.width:(row+1)*tab.width])
	}
	if len(types) <= maxTypesPerColumn {
		return types, tab
	}

	score := make([]float64, len(types))
	for ti, t := range types {
		s := a.ext.LogPhi2(&a.w, &cs.headers[i], t)
		for r := range cs.cells[i] {
			best := 0.0
			for _, cand := range cs.cells[i][r] {
				if v := tab.row(cand.Entity)[ti]; v > best {
					best = v
				}
			}
			s += best
		}
		score[ti] = s
	}
	keep := make([]int, len(types)) // positions in types, best first
	for ti := range keep {
		keep[ti] = ti
	}
	slices.SortFunc(keep, func(x, y int) int {
		return cmp.Or(cmp.Compare(score[y], score[x]), cmp.Compare(x, y))
	})
	keep = keep[:maxTypesPerColumn]
	slices.Sort(keep)
	kept := phi3Table{ents: ents, rowOf: tab.rowOf, width: maxTypesPerColumn, vals: take(&ar.vals, len(reps)*maxTypesPerColumn)}
	keptTypes := take(&ar.types, maxTypesPerColumn)
	for k, ti := range keep {
		keptTypes[k] = types[ti]
		for row := range reps {
			kept.vals[row*maxTypesPerColumn+k] = tab.vals[row*tab.width+ti]
		}
	}
	return keptTypes, kept
}

// relationSpace computes B_cc′ = ∪_r {B : B(E,E′) exists, E ∈ E_rc,
// E′ ∈ E_rc′} in both directions (§4.3), cut from the arena: every
// relation found, sorted by relation and then forward first, compacted.
func (a *Annotator) relationSpace(cs *candidates, i, j int) []feature.RelDir {
	ar := cs.ar
	r0 := len(ar.rels)
	for r := range cs.cells[i] {
		for _, ci := range cs.cells[i][r] {
			for _, cj := range cs.cells[j][r] {
				for _, rd := range a.cat.RelationsBetween(ci.Entity, cj.Entity) {
					ar.rels = append(ar.rels, feature.RelDir{Relation: rd.Relation, Forward: rd.Forward})
				}
			}
		}
	}
	slices.SortFunc(ar.rels[r0:], func(x, y feature.RelDir) int {
		if x.Relation != y.Relation || x.Forward == y.Forward {
			return cmp.Compare(x.Relation, y.Relation)
		}
		if x.Forward {
			return -1
		}
		return 1
	})
	ar.rels = ar.rels[:r0+len(slices.Compact(ar.rels[r0:]))]
	return since(ar.rels, r0)
}
