// Package webtable is the public facade of this repository: a Go
// reproduction of "Annotating and Searching Web Tables Using Entities,
// Types and Relationships" (Limaye, Sarawagi, Chakrabarti — VLDB 2010).
//
// It re-exports the stable surface of the internal packages:
//
//   - catalog construction (the YAGO-like entity/type/relation store, §3.1),
//   - table loading and HTML extraction (§3.2),
//   - the collective annotator and its baselines (§4),
//   - structured training (§4.3),
//   - the relational search application (§5): paged, explainable
//     queries in the paper's three modes, each scanned by one serial
//     loop — a corpus is scaled by sharding it (internal/dist),
//   - the live corpus (AddTables / RemoveTables): an LSM-flavored
//     segmented index that annotates and indexes only what changed, with
//     search results byte-identical to a from-scratch rebuild,
//   - persistent corpus snapshots (SaveSnapshot / LoadService): annotate
//     once, then reconstruct a search-ready — and still mutable — service
//     without re-annotating,
//   - the synthetic world generator standing in for the paper's data assets.
//
// The primary entry point is Service: a context-aware, concurrency-safe
// facade owning the frozen catalog, the shared lemma index and a worker
// pool. Quickstart:
//
//	cat := webtable.NewCatalog()
//	book, _ := cat.AddType("Book", "novel")
//	// ... add entities, relations, tuples ...
//	svc, _ := webtable.NewService(cat) // freezes the catalog
//	result, err := svc.AnnotateTable(ctx, tab)
//	anns, err := svc.AnnotateCorpus(ctx, tables)   // parallel fan-out
//	_, err = svc.BuildIndex(ctx, tables)           // annotate + index
//	res, err := svc.Search(ctx, webtable.SearchRequest{
//		Query: query, Mode: webtable.SearchTypeRel, PageSize: 10,
//	})
//	results, err := svc.SearchBatch(ctx, reqs)     // fan-out over the pool
//	for page, err := range svc.SearchAll(ctx, req) { ... } // stream pages
//	stats, err := svc.AddTables(ctx, newTables)    // annotate + index only these
//	stats, err = svc.RemoveTables(ctx, ids)        // tombstone by table ID
//	err = svc.SaveSnapshot(ctx, w)                 // persist annotated corpus
//	svc, err = webtable.LoadService(ctx, r)        // reload, no re-annotation
//	defer svc.Close()                              // stop the segment compactor
//
// The cmd/tabserved daemon (internal/server) exposes a Service over JSON
// HTTP; see the README's Serving section.
package webtable

import (
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/learn"
	"repro/internal/search"
	"repro/internal/searchidx"
	"repro/internal/segment"
	"repro/internal/snapshot"
	"repro/internal/table"
	"repro/internal/worldgen"
)

// Catalog types (§3.1).
type (
	// Catalog is the entity/type/relation store the annotator labels
	// against.
	Catalog = catalog.Catalog
	// TypeID identifies a catalog type.
	TypeID = catalog.TypeID
	// EntityID identifies a catalog entity.
	EntityID = catalog.EntityID
	// RelationID identifies a catalog binary relation.
	RelationID = catalog.RelationID
	// Cardinality expresses relation functional constraints.
	Cardinality = catalog.Cardinality
	// Tuple is one fact B(Subject, Object).
	Tuple = catalog.Tuple
)

// Cardinality values.
const (
	ManyToMany = catalog.ManyToMany
	OneToMany  = catalog.OneToMany
	ManyToOne  = catalog.ManyToOne
	OneToOne   = catalog.OneToOne
)

// None is the na ("no annotation") sentinel for ID-valued results.
const None = catalog.None

// NewCatalog returns an empty catalog; populate it and call Freeze.
func NewCatalog() *Catalog { return catalog.New() }

// ReadCatalogJSON loads a catalog snapshot (unfrozen).
var ReadCatalogJSON = catalog.ReadJSON

// Table types (§3.2).
type (
	// Table is one source table.
	Table = table.Table
)

// Table helpers.
var (
	// ExtractHTML scans HTML for data tables.
	ExtractHTML = table.ExtractHTML
	// ReadCSV parses a CSV table.
	ReadCSV = table.ReadCSV
	// ReadCorpus parses a JSON table corpus.
	ReadCorpus = table.ReadCorpus
	// WriteCorpus writes a JSON table corpus.
	WriteCorpus = table.WriteCorpus
	// FilterRelational screens formatting tables out of a corpus.
	FilterRelational = table.FilterRelational
)

// Annotator types (§4).
type (
	// Annotator labels tables against one catalog.
	Annotator = core.Annotator
	// Annotation is the per-table labeling result.
	Annotation = core.Annotation
	// BaselineAnnotation carries the set-valued baseline outputs.
	BaselineAnnotation = core.BaselineAnnotation
	// RelationAnnotation labels one column pair.
	RelationAnnotation = core.RelationAnnotation
	// GoldLabels carries training ground truth.
	GoldLabels = core.GoldLabels
	// Weights bundles the model vectors w1..w5.
	Weights = feature.Weights
)

// DefaultWeights is the hand-tuned starting point; train to refine.
var DefaultWeights = feature.DefaultWeights

// Training (§4.3).
type (
	// TrainExample is one labeled table.
	TrainExample = learn.Example
	// TrainConfig tunes the structured learner.
	TrainConfig = learn.Config
)

// Training functions.
var (
	// Train fits weights by margin-rescaled structured learning.
	Train = learn.Train
	// DefaultTrainConfig is a stable operating point.
	DefaultTrainConfig = learn.DefaultConfig
)

// Search application (§5).
type (
	// SearchIndex indexes an (optionally annotated) corpus.
	SearchIndex = searchidx.Index
	// ResidentBytes is a corpus's memory by part (Service.ResidentBytes).
	ResidentBytes = searchidx.ResidentBytes
	// SearchQuery is the §5 select-project query form.
	SearchQuery = search.Query
	// SearchRequest is one search call: query + mode + page size +
	// pagination cursor + explain flag.
	SearchRequest = search.Request
	// SearchResult is one page of a ranking with its total answer count
	// and next-page cursor.
	SearchResult = search.Result
	// SearchAnswer is one ranked response.
	SearchAnswer = search.Answer
	// SearchExplanation is one answer's provenance (contributing cells).
	SearchExplanation = search.Explanation
	// SearchSource is one contributing answer cell within an explanation.
	SearchSource = search.SourceRef
	// SearchMode selects Baseline / Type / TypeRel processing.
	SearchMode = search.Mode
	// SearchExecStats describes what one query execution cost (candidate
	// pairs, rows scanned, per-stage timings); rides on
	// SearchResult.Stats and never influences results.
	SearchExecStats = search.ExecStats
	// SearchStageNanos is the per-stage wall-clock breakdown inside
	// SearchExecStats.
	SearchStageNanos = search.StageNanos
)

// Distributed serving (shard servers + scatter-gather router).
type (
	// PartialGroup is one replay unit of a shard's partial search
	// evidence (Service.SearchPartial); groups merge byte-identically to
	// a single-node execution via MergeSearchPartials.
	PartialGroup = search.PartialGroup
	// ClusterPartial is one answer cluster's evidence within one shard.
	ClusterPartial = search.ClusterPartial
	// PartialHit is one matching answer cell a shard exports.
	PartialHit = search.PartialHit
	// TextVariant is one raw surface form of a text cluster with its
	// occurrence count.
	TextVariant = search.Variant
	// ShardAssignment is one shard's contiguous slice of a snapshot
	// manifest (LoadServiceShard).
	ShardAssignment = snapshot.Assignment
)

var (
	// MergeSearchPartials merges per-shard partial evidence into one
	// result page, byte-identical to a single-node Search over the
	// concatenated corpus; per-shard stats sum into the merged
	// Result.Stats.
	MergeSearchPartials = search.MergePartials
	// MergeSearchExecStats folds per-shard execution stats into the
	// cluster-wide view (counters and shard-side stage times sum).
	MergeSearchExecStats = search.MergeExecStats
	// ValidateSearchCursor checks a pagination cursor's well-formedness
	// without executing anything (routers reject bad cursors before
	// fanning out).
	ValidateSearchCursor = search.ValidateCursor
)

// Search modes (Figure 9).
const (
	SearchBaseline = search.Baseline
	SearchType     = search.Type
	SearchTypeRel  = search.TypeRel
)

// Live corpus (the segmented incremental index behind AddTables /
// RemoveTables).
type (
	// CompactionPolicy tunes the live corpus's size-tiered segment
	// compactor; see WithCompactionPolicy.
	CompactionPolicy = segment.CompactionPolicy
)

// DefaultCompactionPolicy is the standard segment-compaction operating
// point (merge 4 adjacent same-tier segments, tier base 8, rewrite at
// half-dead).
var DefaultCompactionPolicy = segment.DefaultCompactionPolicy

// Synthetic world generation (the data substitution documented in
// DESIGN.md §2).
type (
	// World is a synthetic universe with true and degraded catalogs.
	World = worldgen.World
	// WorldSpec controls world scale and noise.
	WorldSpec = worldgen.Spec
	// Dataset is a labeled table corpus.
	Dataset = worldgen.Dataset
	// LabeledTable pairs a table with ground truth.
	LabeledTable = worldgen.LabeledTable
)

// World helpers.
var (
	// BuildWorld constructs a deterministic synthetic world.
	BuildWorld = worldgen.Build
	// DefaultWorldSpec is the laptop-scale operating point.
	DefaultWorldSpec = worldgen.DefaultSpec
)
