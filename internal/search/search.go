// Package search implements the relational search application of §5:
// answering select-project queries R(E1 ∈ T1, E2 ∈ T2) over a web-table
// corpus, in three configurations evaluated by Figure 9 — the string-only
// Baseline of Figure 3, Type (column type annotations only), and TypeRel
// (type + relation annotations) of Figure 4.
//
// The primary entry point is Engine.Execute, a request/response query
// API: a Request carries the query, mode, page size, pagination cursor
// and explain flag; the Result carries one ranked page, the total answer
// count and the cursor of the next page.
//
// Every query runs the paper's one algorithm — walk candidate column
// pairs, sum evidence per answer, rank — as one pipeline:
//
//	validate → plan → gather → fold
//
// plan (exec.go) reads the mode's candidate column pairs off posting
// lists the index materialized at build time, in a fixed corpus order,
// with their replay groups. gather (parallel.go) scans them — whole, or
// as concurrent contiguous slices under WithParallelism — into the
// pipeline's only intermediate form: per group, each answer cluster's
// hit list in serial scan order (partial.go). fold sums each list left
// to right, selects the page with a bounded min-heap so a top-k query
// never sorts the full answer set, and reads explanations off the same
// lists. Execute is the whole pipeline over one corpus; a shard server
// runs it up to gather (ExecutePartial) and a router folds the shards'
// groups (MergePartials).
//
// The intermediate form is logged evidence, not partial sums, because
// floating-point addition is not associative and pagination cursors
// compare scores bit-exactly across separate executions: replaying each
// cluster's evidence in the one serial order is what makes pages
// byte-identical at every parallelism level and shard count. The price
// is query state of O(matching rows) on every path; what it buys,
// besides one code path, is that explanations cost no second scan.
package search

import (
	"repro/internal/catalog"
	"repro/internal/searchidx"
)

// Mode selects the query processor.
type Mode uint8

// Modes of Figure 9.
const (
	Baseline Mode = iota // Figure 3: strings only
	Type                 // Figure 4 with type annotations only
	TypeRel              // Figure 4 with type + relation annotations
)

func (m Mode) String() string {
	switch m {
	case Baseline:
		return "Baseline"
	case Type:
		return "Type"
	default:
		return "Type+Rel"
	}
}

// Query is the §5 query form. String fields carry the un-annotated
// surface forms used by the baseline; ID fields carry the catalog
// interpretation used by the annotated modes.
type Query struct {
	// Catalog interpretation.
	Relation catalog.RelationID
	T1, T2   catalog.TypeID
	E2       catalog.EntityID // None when E2 is not in the catalog
	// Surface forms (baseline inputs; also the E2 fallback matcher).
	RelationText string
	T1Text       string
	T2Text       string
	E2Text       string
}

// Answer is one ranked response row.
type Answer struct {
	// Text is the presented surface form: the canonical entity name when
	// the answer aggregated annotated cells, else the dominant
	// (highest-support) cell text within the cluster.
	Text string
	// Entity is the aggregated entity ID, or None for unannotated
	// clusters.
	Entity catalog.EntityID
	// Score is the aggregated evidence.
	Score float64
	// Support counts contributing table rows.
	Support int
	// Explanation is the answer's provenance; nil unless the request set
	// Explain.
	Explanation *Explanation
}

// Corpus is the read surface query execution runs over: the posting
// lists and per-cell precomputations of one logical corpus. A monolithic
// *searchidx.Index satisfies it directly (table numbers are its own),
// and internal/segment's View satisfies it over many immutable segments
// by translating segment-local table numbers to corpus-global ones and
// skipping tombstoned tables.
//
// Ordering contract (what makes segmented execution byte-identical to a
// from-scratch rebuild): RelationPairs and TypedPairsOf must list pairs
// in corpus order — ascending global table number, per-table annotation
// order — because floating-point evidence sums in scan order, and
// cursors compare scores bit-exactly across separate executions.
type Corpus interface {
	// Catalog returns the catalog annotations refer to.
	Catalog() *catalog.Catalog
	// Rows returns the row count of a (global) table number.
	Rows(table int) int
	// RawCell returns the original cell text for presentation.
	RawCell(loc searchidx.CellLoc) string
	// NormCell returns the cell's precomputed normalized text.
	NormCell(loc searchidx.CellLoc) string
	// CellTokens returns the cell's precomputed token set (shared; do
	// not mutate).
	CellTokens(loc searchidx.CellLoc) map[string]struct{}
	// EntityAt returns the entity annotation of a cell (None if absent).
	EntityAt(loc searchidx.CellLoc) catalog.EntityID
	// RelationPairs returns the oriented candidate column pairs carrying
	// relation b, in corpus order.
	RelationPairs(b catalog.RelationID) []searchidx.ColumnPair
	// SubjectTypes returns every subject type with typed pairs, in
	// ascending ID order.
	SubjectTypes() []catalog.TypeID
	// TypedPairsOf returns the typed pairs of exactly subject type T, in
	// corpus order.
	TypedPairsOf(T catalog.TypeID) []searchidx.ColumnPair
	// HeaderMatches returns columns whose header shares a token with q.
	HeaderMatches(q string) []searchidx.ColRef
	// ContextMatches returns tables whose context shares a token with q.
	ContextMatches(q string) map[int]struct{}
}

// Engine answers queries over one corpus.
type Engine struct {
	c   Corpus
	cat *catalog.Catalog
	par int
}

// EngineOption configures an Engine at construction time.
type EngineOption func(*Engine)

// WithParallelism sets how many worker goroutines one Execute or
// ExecutePartial call may use to scan candidate column pairs (see
// parallel.go). 1 — the default — is the serial scan; any level returns
// byte-identical results (scores, rankings, cursors, explanations), so
// the knob is purely about latency. Values below 1 are ignored.
func WithParallelism(n int) EngineOption {
	return func(e *Engine) {
		if n > 0 {
			e.par = n
		}
	}
}

// NewEngine wraps a monolithic index.
func NewEngine(ix *searchidx.Index) *Engine { return NewEngineOver(ix) }

// NewEngineOver wraps any Corpus — a monolithic index or a segmented
// view. Engines are stateless and cheap; construct one per corpus
// snapshot rather than mutating a shared one.
func NewEngineOver(c Corpus, opts ...EngineOption) *Engine {
	e := &Engine{c: c, cat: c.Catalog(), par: 1}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Parallelism reports the engine's configured scan parallelism.
func (e *Engine) Parallelism() int { return e.par }
