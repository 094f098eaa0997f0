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
// plan (exec.go) reads the mode's candidate column pairs off the posting
// lists each corpus segment materialized at build time — in place,
// segment after segment, which is ascending corpus order — with their
// replay groups, and compiles the E2 probe, once per segment a pair lies
// in, into the few cell spellings it matches. gather (gather.go) scans
// them, front to back on the calling goroutine, into the pipeline's only
// intermediate form: per group, each answer cluster's hit list in scan
// order (partial.go). fold sums each list left to right, selects the
// page with a bounded min-heap so a top-k query never sorts the full
// answer set, and reads explanations off the same lists. Execute is the
// whole pipeline over one corpus; a shard server runs it up to gather
// (ExecutePartial) and a router folds the shards' groups
// (MergePartials). A query is never split inside a process: a corpus
// too large for one scan is cut into shards (internal/dist), and a
// service's worker pool runs whole queries side by side.
//
// The intermediate form is every hit's evidence, not partial sums,
// because floating-point addition is not associative and pagination
// cursors compare scores bit-exactly across separate executions: summing
// each cluster's evidence in the one serial order is what makes pages
// byte-identical at every shard count. The price is query state of
// O(matching rows) on every path; what it buys, besides one code path,
// is that explanations cost no second scan.
//
// # Ownership
//
// That query state is built and dropped once per query, so it is not
// allocated per query: an execution takes one arena (arena.go) from a
// process-wide pool when its per-request work starts and returns it when
// it returns, on every path — success, error, cancellation. The arena
// holds everything plan and gather make: the candidate pair list and
// replay groups, the probes with their compile scratch and the per-segment
// MatchSets, and per replay group a collector — cluster identities, the
// buffer a column's matching rows are reported in, and a flat log of the
// hits (cell, evidence, owning cluster) in scan order, which one stable
// counting pass cuts into per-cluster lists. Nothing a caller receives
// points into the arena. Execute cuts the log into arena memory and
// folds it there; what its Result holds — answers, SourceRefs, the
// cursor, the stats — fold allocates or copies out before the arena goes
// back. ExecutePartial's caller keeps the groups (a shard server encodes
// them after the call returns), so there the hit lists are cut out of one
// allocation of exactly the logged hits, and the group and cluster slices
// are copied. A released arena keeps its capacity and nothing of the
// corpus; SetArenaPoison, for tests, makes release overwrite it, which
// is how TestExecuteMatchesUnderPoison shows that a returned page or
// partial that aliased its arena would be caught. ArenaStats is the
// pool's footprint, exported as search_arena_bytes and
// search_arena_grows_total.
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

// Corpus is what query execution runs over: a catalog and an ordered
// list of compiled segments. Segment i is a *searchidx.Index — posting
// lists, dictionaries and column-major cells, all in the segment's own
// table numbers — plus the map from those local numbers to the
// corpus-global ones (-1 for a table the corpus has removed). The engine
// reads the segments' posting lists and column slices directly; the
// corpus forwards nothing per cell. A monolithic *searchidx.Index is the
// one-segment case (its tables numbered as they are); internal/segment's
// View is the general one.
//
// Ordering invariant (what makes segmented execution byte-identical to
// a from-scratch rebuild over the surviving tables): the global numbers
// of live tables ascend within a segment and from one segment to the
// next, and every posting list of a segment ascends by local table. A
// plan that walks the segments in order and each list front to back
// therefore schedules candidate pairs in ascending global table order —
// the one order floating-point evidence is summed in, and cursors
// compare scores bit-exactly across separate executions.
type Corpus interface {
	// Catalog returns the catalog annotations refer to.
	Catalog() *catalog.Catalog
	// Segments returns the number of segments.
	Segments() int
	// Segment returns segment i's index and its local→global table map.
	// Both are shared and immutable.
	Segment(i int) (ix *searchidx.Index, global []int32)
	// SubjectTypes returns the ascending union of the segments'
	// typed-pair subject types (shared; do not mutate).
	SubjectTypes() []catalog.TypeID
	// Tombstones returns how many removed tables (the -1 entries of the
	// segments' table maps) plans skip.
	Tombstones() int
}

// corpusSegment is one Corpus segment as the engine holds it.
type corpusSegment struct {
	ix     *searchidx.Index
	global []int32
}

// Engine answers queries over one corpus.
type Engine struct {
	c    Corpus
	cat  *catalog.Catalog
	segs []corpusSegment
}

// NewEngine wraps a monolithic index.
func NewEngine(ix *searchidx.Index) *Engine { return NewEngineOver(ix) }

// NewEngineOver wraps any Corpus — a monolithic index or a segmented
// view. Engines are stateless; construct one per corpus snapshot, and
// keep it for as long as that snapshot is served, rather than mutating a
// shared one or building one per request.
func NewEngineOver(c Corpus) *Engine {
	e := &Engine{c: c, cat: c.Catalog(), segs: make([]corpusSegment, c.Segments())}
	for i := range e.segs {
		e.segs[i].ix, e.segs[i].global = c.Segment(i)
	}
	return e
}
