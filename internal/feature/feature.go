// Package feature implements the five feature families and potentials of
// §4.2: cell-text/entity (f1/φ1), header/type (f2/φ2), type/entity
// compatibility with missing-link repair (f3/φ3), relation/type-pair
// (f4/φ4) and relation/entity-pair (f5/φ5). Potentials are dot products
// with trained weight vectors, exponentiated; we work directly in log
// space, so φ = w·f.
//
// Per the paper, no feature fires when the na label is involved: the log
// potential of any configuration touching na is exactly 0.
package feature

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/catalog"
	"repro/internal/lemmaindex"
)

// TypeEntityMode selects the type-entity compatibility feature of §4.2.3,
// the subject of the Figure-8 ablation.
type TypeEntityMode uint8

// Modes for the f3 compatibility feature.
const (
	// ModeSqrtDist uses 1/sqrt(dist(e,t)) — the paper's robust default.
	ModeSqrtDist TypeEntityMode = iota
	// ModeDist uses 1/dist(e,t).
	ModeDist
	// ModeIDF uses the normalized specificity log(|E|/|E(T)|)/log|E|.
	ModeIDF
)

func (m TypeEntityMode) String() string {
	switch m {
	case ModeSqrtDist:
		return "1/sqrt(dist)"
	case ModeDist:
		return "1/dist"
	case ModeIDF:
		return "IDF"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Dimensions of each feature family. The last element of f1 and f2 is a
// constant bias that fires for every non-na label; its (negative) weight
// is the margin a real label must clear to beat na — this is how the
// model calibrates "no annotation" decisions (§4.1).
const (
	F1Dim = 5 // cosine, jaccard, softTFIDF, exact, bias
	F2Dim = 5 // cosine, jaccard, softTFIDF, exact, bias
	F3Dim = 2 // compatibility, missing-link repair
	F4Dim = 3 // schema match, participation fraction, bias
	F5Dim = 2 // tuple exists, functional violation
	// TotalDim is the length of the flattened weight vector.
	TotalDim = F1Dim + F2Dim + F3Dim + F4Dim + F5Dim
)

// Weights bundles the model vectors w1..w5 (§4.2). The potential of a
// configuration is exp(w_i · f_i); we expose log potentials throughout.
type Weights struct {
	W1 [F1Dim]float64
	W2 [F2Dim]float64
	W3 [F3Dim]float64
	W4 [F4Dim]float64
	W5 [F5Dim]float64
}

// DefaultWeights returns a hand-tuned starting point that training
// (internal/learn) refines. Signs encode the obvious semantics: similarity
// up, functional violations down.
func DefaultWeights() Weights {
	return Weights{
		W1: [F1Dim]float64{3.0, 1.0, 1.5, 2.0, -0.9},
		W2: [F2Dim]float64{1.0, 0.3, 0.5, 0.8, -0.2},
		W3: [F3Dim]float64{1.5, 1.0},
		W4: [F4Dim]float64{0.8, 1.2, -1.0},
		W5: [F5Dim]float64{2.0, -1.5},
	}
}

// Flatten serializes the weights into a single vector (training space).
func (w Weights) Flatten() []float64 {
	out := make([]float64, 0, TotalDim)
	out = append(out, w.W1[:]...)
	out = append(out, w.W2[:]...)
	out = append(out, w.W3[:]...)
	out = append(out, w.W4[:]...)
	out = append(out, w.W5[:]...)
	return out
}

// WeightsFromFlat rebuilds Weights from a flattened vector.
func WeightsFromFlat(v []float64) (Weights, error) {
	var w Weights
	if len(v) != TotalDim {
		return w, fmt.Errorf("feature: flat weight length %d, want %d", len(v), TotalDim)
	}
	o := 0
	o += copy(w.W1[:], v[o:o+F1Dim])
	o += copy(w.W2[:], v[o:o+F2Dim])
	o += copy(w.W3[:], v[o:o+F3Dim])
	o += copy(w.W4[:], v[o:o+F4Dim])
	copy(w.W5[:], v[o:o+F5Dim])
	return w, nil
}

// Extractor computes feature vectors against one frozen catalog + lemma
// index. It holds nothing that changes, so one Extractor is safe for
// concurrent use by many goroutines. Besides the per-entry LogPhi3/4/5
// it fills whole φ3, φ4 and φ5 tables (FillPhi3/4/5) from the catalog's
// sorted runs, to the same bits.
type Extractor struct {
	cat  *catalog.Catalog
	ix   *lemmaindex.Index
	mode TypeEntityMode
	logE float64 // log |E|, for specificity normalization
}

// NewExtractor builds an extractor. The catalog must be frozen.
func NewExtractor(cat *catalog.Catalog, ix *lemmaindex.Index, mode TypeEntityMode) *Extractor {
	return &Extractor{cat: cat, ix: ix, mode: mode, logE: math.Log(math.Max(2, float64(cat.NumEntities())))}
}

// Mode reports the configured type-entity compatibility mode.
func (x *Extractor) Mode() TypeEntityMode { return x.mode }

// F1 converts a similarity profile into the f1 vector (§4.2.1).
func F1(p lemmaindex.SimilarityProfile) [F1Dim]float64 {
	return [F1Dim]float64{p.Cosine, p.Jaccard, p.SoftTFIDF, p.Exact, 1}
}

// F2 computes the header/type vector (§4.2.2) of a header compiled under
// the lemma index (lemmaindex.Index.Compile).
func (x *Extractor) F2(header *lemmaindex.Query, t catalog.TypeID) [F2Dim]float64 {
	p := x.ix.TypeHeaderSim(t, header)
	return [F2Dim]float64{p.Cosine, p.Jaccard, p.SoftTFIDF, p.Exact, 1}
}

// F3 computes the type/entity compatibility vector (§4.2.3).
//
// Element 0 is the mode-selected compatibility (1/dist, 1/sqrt(dist) or
// normalized IDF specificity), firing only when e ∈+ t. Element 1 is the
// missing-link repair term, firing only when e ∉+ t:
//
//	min_{T′ parent of e} |E(T′)∩E(T)|/|E(T′)| × 1/min_{E′∈E(T)} dist(E′,T)
func (x *Extractor) F3(t catalog.TypeID, e catalog.EntityID) [F3Dim]float64 {
	var f [F3Dim]float64
	if d, ok := x.cat.Dist(e, t); ok {
		f[0] = x.compat(t, d)
		return f
	}
	rel := x.cat.Relatedness(e, t)
	if rel > 0 {
		f[1] = rel / float64(x.cat.MinEntityDist(t))
	}
	return f
}

// compat is f3's first element for e ∈+ t at dist(e,t) = d.
func (x *Extractor) compat(t catalog.TypeID, d int) float64 {
	switch x.mode {
	case ModeDist:
		return 1 / float64(d)
	case ModeIDF:
		return math.Log(x.cat.Specificity(t)) / x.logE
	default: // ModeSqrtDist
		return 1 / math.Sqrt(float64(d))
	}
}

// RelDir is a directed relation hypothesis between an ordered column pair
// (c, c′): Forward means column c holds subjects.
type RelDir struct {
	Relation catalog.RelationID
	Forward  bool
}

// orient maps (tc, tc′) to (subject type, object type) under the
// direction.
func (rd RelDir) orient(tc, tcPrime catalog.TypeID) (subj, obj catalog.TypeID) {
	if rd.Forward {
		return tc, tcPrime
	}
	return tcPrime, tc
}

// F4 computes the relation/type-pair vector (§4.2.4): schema-match
// indicator, the participation fraction (averaged over the two ends), and
// a constant bias that any non-na relation hypothesis must overcome.
func (x *Extractor) F4(rd RelDir, tc, tcPrime catalog.TypeID) [F4Dim]float64 {
	subj, obj := rd.orient(tc, tcPrime)
	var n [2]int32 // no tuple reaches the pair
	objs, counts := x.cat.Participation(rd.Relation, subj)
	if i, ok := slices.BinarySearch(objs, obj); ok {
		n = counts[i]
	}
	return x.f4(rd.Relation, subj, obj, n)
}

// f4 is F4 given the pair's two participation counts (catalog.Participation).
func (x *Extractor) f4(b catalog.RelationID, subj, obj catalog.TypeID, n [2]int32) [F4Dim]float64 {
	f := [F4Dim]float64{2: 1}
	if x.cat.SchemaMatches(b, subj, obj) {
		f[0] = 1
	}
	if n != [2]int32{} {
		// Average of: fraction of subj entities related into obj, and
		// fraction of obj entities related from subj.
		fwd := float64(n[0]) / float64(len(x.cat.EntitiesOf(subj)))
		rev := float64(n[1]) / float64(len(x.cat.EntitiesOf(obj)))
		f[1] = (fwd + rev) / 2
	}
	return f
}

// F5 computes the relation/entity-pair vector (§4.2.5): tuple-existence
// indicator, and a functional-constraint violation indicator that fires
// when b is one-to-one or many-to-one (resp. one-to-many) and the catalog
// contains b(e, E′) for some E′ ≠ e′ (resp. symmetric).
func (x *Extractor) F5(rd RelDir, e, ePrime catalog.EntityID) [F5Dim]float64 {
	subj, obj := e, ePrime
	if !rd.Forward {
		subj, obj = ePrime, e
	}
	var f [F5Dim]float64
	if x.cat.HasTuple(rd.Relation, subj, obj) {
		f[0] = 1
	} else if x.violates(rd.Relation, subj, true) || x.violates(rd.Relation, obj, false) {
		f[1] = 1
	}
	return f
}

// violates reports whether e, as b's subject (else its object), already
// has a recorded object (subject) where b's cardinality allows only one.
func (x *Extractor) violates(b catalog.RelationID, e catalog.EntityID, asSubject bool) bool {
	_, _, card := x.cat.RelationSchema(b)
	if asSubject {
		return card.FunctionalObject() && len(x.cat.Objects(b, e)) > 0
	}
	return card.FunctionalSubject() && len(x.cat.Subjects(b, e)) > 0
}

// Log-potential helpers: φ_i = w_i · f_i (log space).

// LogPhi1 scores a cell/entity pair from its similarity profile.
func LogPhi1(w *Weights, p lemmaindex.SimilarityProfile) float64 {
	f := F1(p)
	return dot(w.W1[:], f[:])
}

// LogPhi2 scores a header/type pair.
func (x *Extractor) LogPhi2(w *Weights, header *lemmaindex.Query, t catalog.TypeID) float64 {
	f := x.F2(header, t)
	return dot(w.W2[:], f[:])
}

// LogPhi3 scores a type/entity pair.
func (x *Extractor) LogPhi3(w *Weights, t catalog.TypeID, e catalog.EntityID) float64 {
	f := x.F3(t, e)
	return dot(w.W3[:], f[:])
}

// LogPhi4 scores a relation/type-pair configuration.
func (x *Extractor) LogPhi4(w *Weights, rd RelDir, tc, tcPrime catalog.TypeID) float64 {
	f := x.F4(rd, tc, tcPrime)
	return dot(w.W4[:], f[:])
}

// LogPhi5 scores a relation/entity-pair configuration.
func (x *Extractor) LogPhi5(w *Weights, rd RelDir, e, ePrime catalog.EntityID) float64 {
	f := x.F5(rd, e, ePrime)
	return dot(w.W5[:], f[:])
}

// FillPhi3 writes LogPhi3(w, T, e) for every T of types, ascending, to
// out[i], merging e's ancestor run and its direct types' co-membership
// runs with types instead of searching them per type. Until the last
// pass out holds the missing-link relatedness (catalog.Relatedness).
func (x *Extractor) FillPhi3(w *Weights, e catalog.EntityID, types []catalog.TypeID, out []float64) {
	direct := x.cat.DirectTypes(e)
	for i := range types {
		out[i] = float64(min(len(direct), 1))
	}
	for _, tp := range direct {
		co, counts := x.cat.CoMembers(tp)
		under := float64(len(x.cat.EntitiesOf(tp)))
		k := 0
		for i, t := range types {
			for k < len(co) && co[k] < t {
				k++
			}
			frac := 0.0
			if k < len(co) && co[k] == t {
				frac = float64(counts[k]) / under
			}
			out[i] = min(out[i], frac)
		}
	}
	var none [F3Dim]float64
	unrelated := dot(w.W3[:], none[:])
	anc, dists := x.cat.TypeDistances(e)
	k := 0
	for i, t := range types {
		for k < len(anc) && anc[k] < t {
			k++
		}
		var f [F3Dim]float64
		switch {
		case k < len(anc) && anc[k] == t:
			f[0] = x.compat(t, int(dists[k]))
		case out[i] > 0:
			f[1] = out[i] / float64(x.cat.MinEntityDist(t))
		default:
			out[i] = unrelated
			continue
		}
		out[i] = dot(w.W3[:], f[:])
	}
}

// FillPhi4 writes LogPhi4(w, rd, Ti, Tj) for every Ti of ti and Tj of tj,
// both ascending, to out[i*(len(tj)+1)+j], leaving the na row and column
// alone: a pair no tuple reaches gets one of the two schema-match
// constants, and the pairs in rd's participation runs are overwritten.
func (x *Extractor) FillPhi4(w *Weights, rd RelDir, ti, tj []catalog.TypeID, out []float64) {
	stride := len(tj) + 1
	unmatched, matched := [F4Dim]float64{0, 0, 1}, [F4Dim]float64{1, 0, 1}
	unreached := [2]float64{dot(w.W4[:], unmatched[:]), dot(w.W4[:], matched[:])}
	for i, Ti := range ti {
		for j, Tj := range tj {
			subj, obj := rd.orient(Ti, Tj)
			out[i*stride+j] = unreached[0]
			if x.cat.SchemaMatches(rd.Relation, subj, obj) {
				out[i*stride+j] = unreached[1]
			}
		}
	}
	subjs, objs := ti, tj
	if !rd.Forward {
		subjs, objs = tj, ti
	}
	for s, subj := range subjs {
		run, counts := x.cat.Participation(rd.Relation, subj)
		k := 0
		for o, obj := range objs {
			for k < len(run) && run[k] < obj {
				k++
			}
			if k < len(run) && run[k] == obj {
				f := x.f4(rd.Relation, subj, obj, counts[k])
				i, j := s, o
				if !rd.Forward {
					i, j = o, s
				}
				out[i*stride+j] = dot(w.W4[:], f[:])
			}
		}
	}
}

// FillPhi5 writes LogPhi5(w, rd, E, E′) for every rels[r], E of ci and E′
// of cj to out[(r*(len(ci)+1)+i)*(len(cj)+1)+j], leaving the na entries
// alone, from one violation bit per candidate and relation and one
// catalog.RelationsBetween per candidate pair. rels must be ordered as
// RelationsBetween orders its result: by relation, forward first. viol is
// scratch of len(cj).
func (x *Extractor) FillPhi5(w *Weights, rels []RelDir, ci, cj []lemmaindex.Candidate, viol []bool, out []float64) {
	none, broken, hit := [F5Dim]float64{0, 0}, [F5Dim]float64{0, 1}, [F5Dim]float64{1, 0}
	logPhi := [3]float64{dot(w.W5[:], none[:]), dot(w.W5[:], broken[:]), dot(w.W5[:], hit[:])}
	nI, nJ := len(ci)+1, len(cj)+1
	for r, rd := range rels {
		for j, c := range cj {
			viol[j] = x.violates(rd.Relation, c.Entity, !rd.Forward)
		}
		for i, c := range ci {
			vi := x.violates(rd.Relation, c.Entity, rd.Forward)
			row := out[(r*nI+i)*nJ:]
			for j := range cj {
				row[j] = logPhi[0]
				if vi || viol[j] {
					row[j] = logPhi[1]
				}
			}
		}
	}
	for i, ce := range ci {
		for j, cf := range cj {
			r := 0
			for _, rd := range x.cat.RelationsBetween(ce.Entity, cf.Entity) {
				for r < len(rels) && (rels[r].Relation < rd.Relation || rels[r].Relation == rd.Relation && rels[r].Forward && !rd.Forward) {
					r++
				}
				if r < len(rels) && rels[r] == RelDir(rd) {
					out[(r*nI+i)*nJ+j] = logPhi[2]
				}
			}
		}
	}
}

func dot(w, f []float64) float64 {
	s := 0.0
	for i := range w {
		s += w[i] * f[i]
	}
	return s
}
