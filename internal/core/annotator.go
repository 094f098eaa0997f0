// Package core implements the paper's primary contribution (§4): the
// collective table annotator. Given a frozen catalog and a source table,
// it assigns an entity label to every cell, a type label to every column,
// and a binary relation label to every column pair — jointly, by
// max-product belief propagation over the factor graph of Figure 10 —
// plus the polynomial special case of Figure 2 and the LCA/Majority
// baselines of §4.5.
package core

import (
	"time"

	"repro/internal/catalog"
	"repro/internal/feature"
	"repro/internal/lemmaindex"
	"repro/internal/table"
)

// Config tunes the annotator.
type Config struct {
	// Candidates configures lemma-index candidate generation (§4.3).
	Candidates lemmaindex.Config
	// Mode selects the type-entity compatibility feature (§4.2.3 / Fig 8).
	Mode feature.TypeEntityMode
}

// DefaultConfig mirrors the paper's operating point.
func DefaultConfig() Config {
	return Config{
		Candidates: lemmaindex.DefaultConfig(),
		Mode:       feature.ModeSqrtDist,
	}
}

// The rest of the paper's operating point, which no experiment varies.
const (
	// maxIters caps BP schedule iterations (paper: converges within 3).
	maxIters = 10
	// tol is the message-convergence threshold.
	tol = 1e-6
	// maxTypesPerColumn caps the column-type candidate space, keeping the
	// highest-scoring types by header+aggregate-compatibility pre-score.
	maxTypesPerColumn = 64
	// numericSkipFraction: columns whose numeric-cell fraction exceeds
	// this are not annotated (catalog entities are non-numeric).
	numericSkipFraction = 0.7
)

// RelationAnnotation labels an ordered column pair. Forward means Col1
// holds the relation's subjects.
type RelationAnnotation struct {
	Col1, Col2 int
	Relation   catalog.RelationID
	Forward    bool
}

// Diagnostics records per-table timing and convergence data (Figure 7).
type Diagnostics struct {
	CandidateGen time.Duration // lemma probing + similarity time
	GraphBuild   time.Duration // potential-table construction
	Inference    time.Duration // message passing / decoding
	Iterations   int
	Converged    bool
	NumVars      int
	NumFactors   int
}

// Total returns the end-to-end annotation time.
func (d Diagnostics) Total() time.Duration {
	return d.CandidateGen + d.GraphBuild + d.Inference
}

// Annotation is the annotator's output for one table. Skipped (numeric or
// empty) columns and unlabeled cells carry catalog.None.
type Annotation struct {
	TableID string
	// ColumnTypes[c] is t_c, or None for na.
	ColumnTypes []catalog.TypeID
	// CellEntities[r][c] is e_rc, or None for na.
	CellEntities [][]catalog.EntityID
	// Relations holds b_cc′ labels for column pairs that received one.
	Relations []RelationAnnotation
	Diag      Diagnostics
}

// RelationBetween returns the annotated relation between two columns, if
// any. The result is normalized to the caller's column order: Col1 and
// Col2 echo c1 and c2, and Forward is flipped when the stored pair was
// recorded in the opposite orientation, so `Forward == true` always means
// "c1 holds the subjects" regardless of how the pair was stored.
func (a *Annotation) RelationBetween(c1, c2 int) (RelationAnnotation, bool) {
	for _, r := range a.Relations {
		if r.Col1 == c1 && r.Col2 == c2 {
			return r, true
		}
		if r.Col1 == c2 && r.Col2 == c1 {
			r.Col1, r.Col2 = c1, c2
			r.Forward = !r.Forward
			return r, true
		}
	}
	return RelationAnnotation{}, false
}

// Annotator annotates tables against one catalog. Construct with New.
// All annotation methods are safe for concurrent use from multiple
// goroutines (each annotation works in an arena of its own, and the
// feature extractor only reads the frozen catalog); the one exception is
// SetWeights, which must not race with in-flight annotations — train
// first, then annotate.
type Annotator struct {
	cat  *catalog.Catalog
	ix   *lemmaindex.Index
	memo *candidateMemo // ix's candidates by normalised cell text
	ext  *feature.Extractor
	w    feature.Weights
	cfg  Config
}

// New builds an annotator over a frozen catalog. The lemma index is built
// once here (the dominant setup cost).
func New(cat *catalog.Catalog, w feature.Weights, cfg Config) *Annotator {
	return NewWithIndex(cat, lemmaindex.Build(cat, cfg.Candidates), w, cfg)
}

// NewWithIndex builds an annotator sharing a pre-built lemma index (used
// by experiment harnesses that vary weights or modes over one catalog),
// with a candidate memo of its own.
func NewWithIndex(cat *catalog.Catalog, ix *lemmaindex.Index, w feature.Weights, cfg Config) *Annotator {
	return &Annotator{
		cat:  cat,
		ix:   ix,
		memo: newCandidateMemo(cat, cfg.Candidates),
		ext:  feature.NewExtractor(cat, ix, cfg.Mode),
		w:    w,
		cfg:  cfg,
	}
}

// Catalog returns the annotator's catalog.
func (a *Annotator) Catalog() *catalog.Catalog { return a.cat }

// Index returns the annotator's lemma index.
func (a *Annotator) Index() *lemmaindex.Index { return a.ix }

// Weights returns the current model weights.
func (a *Annotator) Weights() feature.Weights { return a.w }

// SetWeights replaces the model weights (after training). Not safe to
// call while annotations are in flight on other goroutines.
func (a *Annotator) SetWeights(w feature.Weights) { a.w = w }

// Config returns the annotator configuration.
func (a *Annotator) Config() Config { return a.cfg }

// newAnnotation allocates an all-na annotation shaped like t, its rows
// cut from one array.
func newAnnotation(t *table.Table) *Annotation {
	ann := &Annotation{
		TableID:      t.ID,
		ColumnTypes:  make([]catalog.TypeID, t.Cols()),
		CellEntities: make([][]catalog.EntityID, t.Rows()),
	}
	for c := range ann.ColumnTypes {
		ann.ColumnTypes[c] = catalog.None
	}
	cells := make([]catalog.EntityID, t.Rows()*t.Cols())
	for i := range cells {
		cells[i] = catalog.None
	}
	for r := range ann.CellEntities {
		ann.CellEntities[r] = cells[r*t.Cols() : (r+1)*t.Cols() : (r+1)*t.Cols()]
	}
	return ann
}
