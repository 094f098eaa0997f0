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
	"sync"

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

// Extractor computes feature vectors against one catalog + lemma index.
// It caches the expensive relation-participation fractions, one map per
// relation keyed by the (subject type, object type) pair, each behind its
// own lock, so one Extractor is safe for concurrent use by many goroutines
// (the cache warms up across tables and workers alike).
type Extractor struct {
	cat  *catalog.Catalog
	ix   *lemmaindex.Index
	mode TypeEntityMode

	part []partCache // part[b] caches relation b's fractions
	logE float64     // log |E|, for specificity normalization
}

type partCache struct {
	mu sync.RWMutex
	m  map[uint64]float64 // uint64(subj)<<32 | uint64(obj)
}

// NewExtractor builds an extractor. The catalog must be frozen.
func NewExtractor(cat *catalog.Catalog, ix *lemmaindex.Index, mode TypeEntityMode) *Extractor {
	x := &Extractor{
		cat:  cat,
		ix:   ix,
		mode: mode,
		part: make([]partCache, cat.NumRelations()),
		logE: math.Log(math.Max(2, float64(cat.NumEntities()))),
	}
	for i := range x.part {
		x.part[i].m = make(map[uint64]float64)
	}
	return x
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
		switch x.mode {
		case ModeDist:
			f[0] = 1 / float64(d)
		case ModeIDF:
			f[0] = math.Log(x.cat.Specificity(t)) / x.logE
		default: // ModeSqrtDist
			f[0] = 1 / math.Sqrt(float64(d))
		}
		return f
	}
	rel := x.cat.Relatedness(e, t)
	if rel > 0 {
		f[1] = rel / float64(x.cat.MinEntityDist(t))
	}
	return f
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
	var f [F4Dim]float64
	subj, obj := rd.orient(tc, tcPrime)
	if x.cat.SchemaMatches(rd.Relation, subj, obj) {
		f[0] = 1
	}
	f[1] = x.participation(rd.Relation, subj, obj)
	f[2] = 1
	return f
}

func (x *Extractor) participation(b catalog.RelationID, subj, obj catalog.TypeID) float64 {
	if b < 0 || int(b) >= len(x.part) {
		return 0 // no tuple of an unknown relation: both fractions are 0
	}
	key := uint64(uint32(subj))<<32 | uint64(uint32(obj))
	sh := &x.part[b]
	sh.mu.RLock()
	v, ok := sh.m[key]
	sh.mu.RUnlock()
	if ok {
		return v
	}
	// Average of: fraction of subj entities related into obj, and
	// fraction of obj entities related from subj. Concurrent misses may
	// compute this twice; the value is deterministic, so last-write-wins
	// is harmless.
	fwd := x.cat.ParticipationFraction(b, subj, obj)
	rev := x.reverseParticipation(b, subj, obj)
	v = (fwd + rev) / 2
	sh.mu.Lock()
	sh.m[key] = v
	sh.mu.Unlock()
	return v
}

// reverseParticipation is the fraction of entities under obj appearing as
// objects of b with a subject under subj.
func (x *Extractor) reverseParticipation(b catalog.RelationID, subj, obj catalog.TypeID) float64 {
	under := x.cat.EntitiesOf(obj)
	if len(under) == 0 {
		return 0
	}
	count := 0
	for _, e := range under {
		for _, s := range x.cat.Subjects(b, e) {
			if x.cat.IsA(s, subj) {
				count++
				break
			}
		}
	}
	return float64(count) / float64(len(under))
}

// F5 computes the relation/entity-pair vector (§4.2.5): tuple-existence
// indicator, and a functional-constraint violation indicator that fires
// when b is one-to-one or many-to-one (resp. one-to-many) and the catalog
// contains b(e, E′) for some E′ ≠ e′ (resp. symmetric).
func (x *Extractor) F5(rd RelDir, e, ePrime catalog.EntityID) [F5Dim]float64 {
	var f [F5Dim]float64
	subj, obj := e, ePrime
	if !rd.Forward {
		subj, obj = ePrime, e
	}
	b := rd.Relation
	if x.cat.HasTuple(b, subj, obj) {
		f[0] = 1
		return f
	}
	_, _, card := x.cat.RelationSchema(b)
	if card.FunctionalObject() {
		// Subject should have at most one object; a different recorded
		// object contradicts the hypothesis.
		if objs := x.cat.Objects(b, subj); len(objs) > 0 {
			f[1] = 1
		}
	}
	if card.FunctionalSubject() {
		if subs := x.cat.Subjects(b, obj); len(subs) > 0 {
			f[1] = 1
		}
	}
	return f
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

func dot(w, f []float64) float64 {
	s := 0.0
	for i := range w {
		s += w[i] * f[i]
	}
	return s
}
