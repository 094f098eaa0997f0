package core

import (
	"context"

	"repro/internal/catalog"
	"repro/internal/factorgraph"
	"repro/internal/feature"
	"repro/internal/lemmaindex"
	"repro/internal/table"
)

// GoldLabels carries ground-truth annotations in the annotator's own
// vocabulary, used for training (§4.3) and loss-augmented decoding. Any
// layer may be partially populated.
type GoldLabels struct {
	// ColumnTypes maps column index -> gold type.
	ColumnTypes map[int]catalog.TypeID
	// Cells maps [row, col] -> gold entity.
	Cells map[[2]int]catalog.EntityID
	// Relations lists gold relation labels.
	Relations []RelationAnnotation
}

// GoldAnnotation projects gold labels into the annotator's candidate
// spaces for a table: labels whose value was not retrieved as a candidate
// are clamped to na (they are unreachable for any decoder, so training
// should not chase them). The returned annotation is suitable for
// FeatureVector.
func (a *Annotator) GoldAnnotation(t *table.Table, gold GoldLabels) *Annotation {
	ar := takeArena()
	defer ar.release()
	cs, _ := a.buildCandidates(context.Background(), t, ar)
	return a.goldFromCandidates(cs, gold)
}

func (a *Annotator) goldFromCandidates(cs *candidates, gold GoldLabels) *Annotation {
	ann := newAnnotation(cs.tab)
	for i, c := range cs.cols {
		if T, ok := gold.ColumnTypes[c]; ok {
			if idx := indexOfType(cs.colTypes[i], T); idx < len(cs.colTypes[i]) {
				ann.ColumnTypes[c] = T
			}
		}
		for r := 0; r < cs.tab.Rows(); r++ {
			if e, ok := gold.Cells[[2]int{r, c}]; ok {
				if idx := indexOfEntity(cs.cells[i][r], e); idx < len(cs.cells[i][r]) {
					ann.CellEntities[r][c] = e
				}
			}
		}
	}
	for _, g := range gold.Relations {
		if p, ok := cs.pairForCols(g.Col1, g.Col2); ok {
			for _, rd := range p.rels {
				gf := g.Forward
				if cs.cols[p.i] != g.Col1 { // pair stored in the other order
					gf = !gf
				}
				if rd.Relation == g.Relation && rd.Forward == gf {
					ann.Relations = append(ann.Relations, RelationAnnotation{
						Col1: cs.cols[p.i], Col2: cs.cols[p.j],
						Relation: g.Relation, Forward: gf,
					})
					break
				}
			}
		}
	}
	return ann
}

// pairForCols finds the relPair joining two table column indices in
// either order.
func (cs *candidates) pairForCols(c1, c2 int) (relPair, bool) {
	for _, p := range cs.pairs {
		a, b := cs.cols[p.i], cs.cols[p.j]
		if (a == c1 && b == c2) || (a == c2 && b == c1) {
			return p, true
		}
	}
	return relPair{}, false
}

// FeatureVector computes Φ(x, y): the flattened (feature.TotalDim) sum of
// every feature vector fired by annotation y on table t. The model score
// of y is exactly dot(weights, Φ) — the log of objective (1).
func (a *Annotator) FeatureVector(t *table.Table, ann *Annotation) []float64 {
	ar := takeArena()
	defer ar.release()
	cs, _ := a.buildCandidates(context.Background(), t, ar)
	return a.featureVector(cs, ann)
}

func (a *Annotator) featureVector(cs *candidates, ann *Annotation) []float64 {
	phi := make([]float64, feature.TotalDim)
	o1 := 0
	o2 := feature.F1Dim
	o3 := o2 + feature.F2Dim
	o4 := o3 + feature.F3Dim
	o5 := o4 + feature.F4Dim

	for i, c := range cs.cols {
		T := ann.ColumnTypes[c]
		if T != catalog.None {
			f2 := a.ext.F2(&cs.headers[i], T)
			addTo(phi[o2:o3], f2[:])
		}
		for r := 0; r < cs.tab.Rows(); r++ {
			e := ann.CellEntities[r][c]
			if e == catalog.None {
				continue
			}
			prof, found := profileOf(cs.cells[i][r], e)
			if !found {
				prof = a.ix.ProfileFor(e, cs.tab.Cell(r, c))
			}
			f1 := feature.F1(prof)
			addTo(phi[o1:o2], f1[:])
			if T != catalog.None {
				f3 := a.ext.F3(T, e)
				addTo(phi[o3:o4], f3[:])
			}
		}
	}
	for _, p := range cs.pairs {
		c1, c2 := cs.cols[p.i], cs.cols[p.j]
		ra, ok := ann.RelationBetween(c1, c2)
		if !ok {
			continue
		}
		rd := feature.RelDir{Relation: ra.Relation, Forward: ra.Forward}
		t1, t2 := ann.ColumnTypes[c1], ann.ColumnTypes[c2]
		if t1 != catalog.None && t2 != catalog.None {
			f4 := a.ext.F4(rd, t1, t2)
			addTo(phi[o4:o5], f4[:])
		}
		for r := 0; r < cs.tab.Rows(); r++ {
			e1, e2 := ann.CellEntities[r][c1], ann.CellEntities[r][c2]
			if e1 == catalog.None || e2 == catalog.None {
				continue
			}
			f5 := a.ext.F5(rd, e1, e2)
			addTo(phi[o5:], f5[:])
		}
	}
	return phi
}

// AnnotateLossAugmented decodes argmax_y [ w·Φ(x,y) + loss(y, gold) ],
// where loss is the Hamming loss over entity, type and relation variables
// scaled by lossWeight — the separation oracle of margin-rescaled
// structured SVM training [Tsochantaridis et al. 2005].
func (a *Annotator) AnnotateLossAugmented(t *table.Table, gold GoldLabels, lossWeight float64) *Annotation {
	ann := newAnnotation(t)
	ar := takeArena()
	defer ar.release()
	cs, _ := a.buildCandidates(context.Background(), t, ar)
	ag := a.buildGraph(cs)

	// Add +lossWeight to every label except the gold one, per variable.
	for i, c := range cs.cols {
		goldTi := len(cs.colTypes[i]) // na by default
		if T, ok := gold.ColumnTypes[c]; ok {
			goldTi = indexOfType(cs.colTypes[i], T)
		}
		ag.addLossUnary(ag.typeVars[i], goldTi, lossWeight)
		for r := 0; r < cs.tab.Rows(); r++ {
			goldEi := len(cs.cells[i][r])
			if e, ok := gold.Cells[[2]int{r, c}]; ok {
				goldEi = indexOfEntity(cs.cells[i][r], e)
			}
			ag.addLossUnary(ag.cellVars[i][r], goldEi, lossWeight)
		}
	}
	for pi, p := range cs.pairs {
		goldBi := len(p.rels)
		for _, g := range gold.Relations {
			a1, b1 := cs.cols[p.i], cs.cols[p.j]
			if (g.Col1 == a1 && g.Col2 == b1) || (g.Col1 == b1 && g.Col2 == a1) {
				gf := g.Forward
				if g.Col1 != a1 {
					gf = !gf
				}
				for bi, rd := range p.rels {
					if rd.Relation == g.Relation && rd.Forward == gf {
						goldBi = bi
					}
				}
			}
		}
		ag.addLossUnary(ag.relVars[pi], goldBi, lossWeight)
	}

	iters, conv, _ := ag.runSchedule(context.Background(), maxIters, tol)
	ag.decode(ann)
	ann.Diag.Iterations, ann.Diag.Converged = iters, conv
	return ann
}

// addLossUnary attaches a unary factor that is lossWeight everywhere but
// at goldIdx, implementing the Hamming-loss augmentation.
func (ag *annotGraph) addLossUnary(v factorgraph.VarID, goldIdx int, lossWeight float64) {
	d := ag.g.Domain(v)
	pot := make([]float64, d)
	for x := range pot {
		if x != goldIdx {
			pot[x] = lossWeight
		}
	}
	ag.unaries = append(ag.unaries, ag.g.AddUnary("loss", v, pot))
}

func profileOf(cands []lemmaindex.Candidate, e catalog.EntityID) (lemmaindex.SimilarityProfile, bool) {
	for _, c := range cands {
		if c.Entity == e {
			return c.Sim, true
		}
	}
	return lemmaindex.SimilarityProfile{}, false
}

func addTo(dst, src []float64) {
	for i := range src {
		dst[i] += src[i]
	}
}
