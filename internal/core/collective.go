package core

import (
	"context"
	"time"

	"repro/internal/catalog"
	"repro/internal/factorgraph"
	"repro/internal/feature"
	"repro/internal/lemmaindex"
	"repro/internal/obs"
	"repro/internal/table"
)

// annotGraph carries the variable layout of one table's factor graph so
// the decoded assignment can be mapped back to catalog IDs.
type annotGraph struct {
	g  *factorgraph.Graph
	cs *candidates

	typeVars []factorgraph.VarID   // per cols index
	cellVars [][]factorgraph.VarID // [cols index][row]
	relVars  []factorgraph.VarID   // per pairs index

	phi3 []factorgraph.FactorID
	phi4 []factorgraph.FactorID
	phi5 []factorgraph.FactorID
	// unary factors (φ1, φ2) listed for the initial sweep.
	unaries []factorgraph.FactorID
}

// buildGraph constructs the factor graph of Figure 10 for one table in the
// arena cs was cut from, over the graph and potentials any earlier
// buildGraph there left. The last domain index of every variable is the
// na label; all potentials involving na are 0 in log space ("no feature
// is fired if label na is involved").
func (a *Annotator) buildGraph(cs *candidates) *annotGraph {
	ar := cs.ar
	ar.g.Reset()
	ag := &ar.ag
	*ag = annotGraph{g: &ar.g, cs: cs, typeVars: ag.typeVars[:0], cellVars: ag.cellVars[:0], relVars: ag.relVars[:0],
		phi3: ag.phi3[:0], phi4: ag.phi4[:0], phi5: ag.phi5[:0], unaries: ag.unaries[:0]}
	g := ag.g
	// Every potential table is cut from one slab.
	ar.pots = ar.pots[:0]
	cut := func(n int) []float64 { return take(&ar.pots, n) }

	// Variables.
	ar.vars = ar.vars[:0]
	for i := range cs.cols {
		ag.typeVars = append(ag.typeVars, g.AddVariable("t", len(cs.colTypes[i])+1))
		v0 := len(ar.vars)
		for r := 0; r < cs.tab.Rows(); r++ {
			ar.vars = append(ar.vars, g.AddVariable("e", len(cs.cells[i][r])+1))
		}
		ag.cellVars = append(ag.cellVars, since(ar.vars, v0))
	}
	for _, p := range cs.pairs {
		ag.relVars = append(ag.relVars, g.AddVariable("b", len(p.rels)+1))
	}

	// φ2 unary on types; φ1 unary on cells.
	for i := range cs.cols {
		pot := cut(len(cs.colTypes[i]) + 1)
		for ti, T := range cs.colTypes[i] {
			pot[ti] = a.ext.LogPhi2(&a.w, &cs.headers[i], T)
		}
		ag.unaries = append(ag.unaries, g.AddUnary("phi2", ag.typeVars[i], pot))
		for r := 0; r < cs.tab.Rows(); r++ {
			cands := cs.cells[i][r]
			cpot := cut(len(cands) + 1)
			for ei, cand := range cands {
				cpot[ei] = a.logPhi1(cand)
			}
			ag.unaries = append(ag.unaries, g.AddUnary("phi1", ag.cellVars[i][r], cpot))
		}
	}

	// φ3 pairwise (t_c, e_rc) per cell.
	for i := range cs.cols {
		nT := len(cs.colTypes[i]) + 1
		for r := 0; r < cs.tab.Rows(); r++ {
			cands := cs.cells[i][r]
			nE := len(cands) + 1
			pot := cut(nT * nE)
			for ei, cand := range cands {
				for ti, v := range cs.phi3[i].row(cand.Entity) {
					pot[ti*nE+ei] = v
				}
			}
			ag.phi3 = append(ag.phi3, g.AddFactor("phi3",
				[]factorgraph.VarID{ag.typeVars[i], ag.cellVars[i][r]}, pot))
		}
	}

	// φ4 ternary (b_cc′, t_c, t_c′) per pair; φ5 ternary per pair per row.
	for pi, p := range cs.pairs {
		nB := len(p.rels) + 1
		nTi := len(cs.colTypes[p.i]) + 1
		nTj := len(cs.colTypes[p.j]) + 1
		pot := cut(nB * nTi * nTj)
		for bi, rd := range p.rels {
			a.ext.FillPhi4(&a.w, rd, cs.colTypes[p.i], cs.colTypes[p.j], pot[bi*nTi*nTj:])
		}
		ag.phi4 = append(ag.phi4, g.AddFactor("phi4",
			[]factorgraph.VarID{ag.relVars[pi], ag.typeVars[p.i], ag.typeVars[p.j]}, pot))

		for r := 0; r < cs.tab.Rows(); r++ {
			ci, cj := cs.cells[p.i][r], cs.cells[p.j][r]
			nEi, nEj := len(ci)+1, len(cj)+1
			rpot := cut(nB * nEi * nEj)
			ar.viol = ar.viol[:0]
			a.ext.FillPhi5(&a.w, p.rels, ci, cj, take(&ar.viol, len(cj)), rpot)
			ag.phi5 = append(ag.phi5, g.AddFactor("phi5",
				[]factorgraph.VarID{ag.relVars[pi], ag.cellVars[p.i][r], ag.cellVars[p.j][r]}, rpot))
		}
	}
	return ag
}

// runSchedule executes the Appendix-D message schedule: unaries once, then
// per iteration (1) entities→φ3→types and back, (2) entities→φ5→relations
// and back, (3) types→φ4→relations and back, until convergence. The
// context is checked between factor-family sweeps so cancellation aborts
// mid-iteration rather than only between tables.
func (ag *annotGraph) runSchedule(ctx context.Context, maxIters int, tol float64) (iters int, converged bool, err error) {
	g := ag.g
	g.InitMessages()
	defer func() {
		walked, skipped := g.Walks()
		bpWalks.With("walked").Add(uint64(walked))
		bpWalks.With("skipped").Add(uint64(skipped))
	}()
	for _, f := range ag.unaries {
		g.SweepFactor(f)
	}
	g.MessageChange()
	for iters = 1; iters <= maxIters; iters++ {
		if err := ctx.Err(); err != nil {
			return iters, false, err
		}
		for _, f := range ag.phi3 {
			g.SweepFactor(f)
		}
		if err := ctx.Err(); err != nil {
			return iters, false, err
		}
		for _, f := range ag.phi5 {
			g.SweepFactor(f)
		}
		if err := ctx.Err(); err != nil {
			return iters, false, err
		}
		for _, f := range ag.phi4 {
			g.SweepFactor(f)
		}
		if g.MessageChange() < tol {
			return iters, true, nil
		}
	}
	return maxIters, false, nil
}

// decode maps the MAP assignment back to catalog labels.
func (ag *annotGraph) decode(ann *Annotation) {
	assignment := ag.g.MAPAssignment()
	cs := ag.cs
	for i, c := range cs.cols {
		ti := assignment[ag.typeVars[i]]
		if ti < len(cs.colTypes[i]) {
			ann.ColumnTypes[c] = cs.colTypes[i][ti]
		}
		for r := 0; r < cs.tab.Rows(); r++ {
			ei := assignment[ag.cellVars[i][r]]
			if ei < len(cs.cells[i][r]) {
				ann.CellEntities[r][c] = cs.cells[i][r][ei].Entity
			}
		}
	}
	for pi, p := range cs.pairs {
		bi := assignment[ag.relVars[pi]]
		if bi < len(p.rels) {
			ann.Relations = append(ann.Relations, RelationAnnotation{
				Col1:     cs.cols[p.i],
				Col2:     cs.cols[p.j],
				Relation: p.rels[bi].Relation,
				Forward:  p.rels[bi].Forward,
			})
		}
	}
}

// AnnotateCollective annotates one table with full collective inference
// (Eq. 1 / §4.4.2): a factor graph over type variables t_c, entity
// variables e_rc and relation variables b_cc′, coupled by φ1..φ5, solved
// by max-product BP under the Appendix-D schedule. This is the method
// evaluated as "Collective" in Figure 6.
func (a *Annotator) AnnotateCollective(t *table.Table) *Annotation {
	ann, _ := a.AnnotateCollectiveContext(context.Background(), t)
	return ann
}

// AnnotateCollectiveContext is AnnotateCollective with cancellation: the
// context is checked before every row of candidate generation, before
// graph build, and between BP sweeps. On cancellation it returns the
// all-na annotation shaped like t together with the context's error;
// partial inference results are never decoded.
func (a *Annotator) AnnotateCollectiveContext(ctx context.Context, t *table.Table) (*Annotation, error) {
	ann := newAnnotation(t)
	if err := ctx.Err(); err != nil {
		return ann, err
	}
	ar := takeArena()
	defer ar.release()

	t0 := time.Now()
	cs, err := a.buildCandidates(ctx, t, ar)
	if err != nil {
		return ann, err
	}
	t1 := time.Now()
	if err := ctx.Err(); err != nil {
		return ann, err
	}
	ag := a.buildGraph(cs)
	t2 := time.Now()
	iters, conv, err := ag.runSchedule(ctx, maxIters, tol)
	if err != nil {
		return ann, err
	}
	ag.decode(ann)
	t3 := time.Now()

	ann.Diag = Diagnostics{
		CandidateGen: t1.Sub(t0),
		GraphBuild:   t2.Sub(t1),
		Inference:    t3.Sub(t2),
		Iterations:   iters,
		Converged:    conv,
		NumVars:      ag.g.NumVars(),
		NumFactors:   ag.g.NumFactors(),
	}
	obs.Record(ctx, "annotate.candidates", t0, ann.Diag.CandidateGen)
	obs.Record(ctx, "annotate.graph", t1, ann.Diag.GraphBuild)
	obs.Record(ctx, "annotate.bp", t2, ann.Diag.Inference)
	return ann, nil
}

func indexOfType(ts []catalog.TypeID, t catalog.TypeID) int {
	for i, x := range ts {
		if x == t {
			return i
		}
	}
	return len(ts) // na slot
}

func indexOfEntity(cands []lemmaindex.Candidate, e catalog.EntityID) int {
	for i, c := range cands {
		if c.Entity == e {
			return i
		}
	}
	return len(cands) // na slot
}

// logPhi1 scores one candidate's cell-text match (w1 · f1).
func (a *Annotator) logPhi1(cand lemmaindex.Candidate) float64 {
	return feature.LogPhi1(&a.w, cand.Sim)
}
