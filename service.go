package webtable

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/searchidx"
	"repro/internal/segment"
	"repro/internal/table"
)

// Service is the concurrent, context-aware entry point of the annotation
// and search pipeline. It owns a frozen catalog, the shared lemma index
// (the dominant setup cost, built once), and a worker pool that bounds
// how many tables are annotated simultaneously across all in-flight
// calls. Its one annotator is built with the default weights and
// configuration when the Service is, and never changes; a per-call
// WithMethod only picks which of its methods runs. A Service is safe for
// concurrent use.
//
//	svc, err := webtable.NewService(cat, webtable.WithWorkers(8))
//	anns, err := svc.AnnotateCorpus(ctx, tables)
//	_, err = svc.BuildIndex(ctx, tables)
//	res, err := svc.Search(ctx, webtable.SearchRequest{
//		Query: query, Mode: webtable.SearchTypeRel, PageSize: 10,
//	})
type Service struct {
	cat         *catalog.Catalog
	workers     int
	sem         chan struct{}
	compaction  segment.CompactionPolicy
	autoCompact bool
	ann         *core.Annotator

	// store is the live segmented corpus (nil before the first
	// BuildIndex / AddTables). Searches load it atomically and pin the
	// store's current immutable view; mutations are serialized by
	// corpusMu so a store swap (BuildIndex) can never interleave with a
	// segment mutation (AddTables / RemoveTables) on the outgoing store.
	corpusMu sync.Mutex
	store    atomic.Pointer[segment.Store]
	// eng is the query engine over the corpus view searches last pinned;
	// engine() replaces it when the store has published another view.
	eng atomic.Pointer[viewEngine]
}

// viewEngine is a query engine and the immutable view it was built over.
type viewEngine struct {
	view   *segment.View
	engine *search.Engine
}

// NewService builds a service over a catalog. The catalog is frozen if it
// is not already (freezing is idempotent); it must not be mutated
// afterwards. The lemma index is built here, once, and shared by every
// annotation the service ever runs.
func NewService(cat *Catalog, opts ...ServiceOption) (*Service, error) {
	if cat == nil {
		return nil, ErrNilCatalog
	}
	so := serviceOptions{
		workers:     runtime.GOMAXPROCS(0),
		compaction:  segment.DefaultCompactionPolicy(),
		autoCompact: true,
	}
	for _, opt := range opts {
		opt(&so)
	}
	if so.workers < 1 {
		return nil, fmt.Errorf("%w: workers must be >= 1, got %d", ErrInvalidOption, so.workers)
	}
	if err := cat.Freeze(); err != nil {
		return nil, fmt.Errorf("webtable: freeze catalog: %w", err)
	}
	return &Service{
		cat:         cat,
		workers:     so.workers,
		sem:         make(chan struct{}, so.workers),
		compaction:  so.compaction,
		autoCompact: so.autoCompact,
		ann:         core.New(cat, DefaultWeights(), core.DefaultConfig()),
	}, nil
}

// Catalog returns the service's frozen catalog.
func (s *Service) Catalog() *Catalog { return s.cat }

// Workers returns the worker-pool size.
func (s *Service) Workers() int { return s.workers }

// WorkersInUse reports how many worker-pool slots are currently held.
// It is a point-in-time reading for observability (the workers-busy
// gauge), not a synchronization primitive.
func (s *Service) WorkersInUse() int { return len(s.sem) }

// Annotator returns the service's annotator, for interop with the
// training API (webtable.Train). Train changes its weights in place, so
// train before the service annotates anything, never while it serves.
func (s *Service) Annotator() *Annotator { return s.ann }

// methodFor resolves per-call options into the method to run.
func methodFor(o *annotateOptions) (Method, error) {
	if o.method > MethodMajority {
		return 0, fmt.Errorf("%w: %d", ErrUnknownMethod, uint8(o.method))
	}
	return o.method, nil
}

func resolveAnnotateOptions(opts []AnnotateOption) *annotateOptions {
	var o annotateOptions
	for _, opt := range opts {
		opt(&o)
	}
	return &o
}

// Acquire reserves a worker-pool slot, blocking until one frees or ctx
// is done. It is the service's concurrency limit made available to
// embedders — the HTTP server bounds in-flight searches with it — for
// work that does not go through the pooled calls (AnnotateCorpus,
// SearchBatch, AnnotateTable) themselves. Every successful Acquire must
// be paired with exactly one Release; do not hold a slot across a call
// that acquires its own (AnnotateTable, SearchBatch), which would
// deadlock a single-worker service.
func (s *Service) Acquire(ctx context.Context) error { return s.acquire(ctx) }

// Release returns a slot taken by Acquire.
func (s *Service) Release() { s.release() }

// acquire takes a worker-pool slot, or fails fast when ctx is done.
func (s *Service) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Service) release() { <-s.sem }

// annotateOne dispatches one table to the selected method.
func annotateOne(ctx context.Context, a *core.Annotator, m Method, t *table.Table) (*core.Annotation, error) {
	if t == nil {
		return nil, ErrNilTable
	}
	// A ragged row would index past its end in candidate generation.
	if err := t.Validate(); err != nil {
		return nil, err
	}
	switch m {
	case MethodCollective:
		return a.AnnotateCollectiveContext(ctx, t)
	case MethodSimple:
		return a.AnnotateSimpleContext(ctx, t)
	case MethodLCA:
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return &a.AnnotateLCA(t).Annotation, nil
	case MethodMajority:
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return &a.AnnotateMajority(t).Annotation, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownMethod, uint8(m))
	}
}

// AnnotateTable annotates one table, honoring ctx cancellation down into
// the BP message schedule. Options override the service defaults for this
// call only.
func (s *Service) AnnotateTable(ctx context.Context, t *Table, opts ...AnnotateOption) (*Annotation, error) {
	if t == nil {
		return nil, ErrNilTable
	}
	method, err := methodFor(resolveAnnotateOptions(opts))
	if err != nil {
		return nil, err
	}
	if err := s.acquire(ctx); err != nil {
		return nil, err
	}
	defer s.release()
	return annotateOne(ctx, s.ann, method, t)
}

// AnnotateCorpus annotates a corpus in parallel over the service's worker
// pool. The returned slice is parallel to tables; entries whose
// annotation failed are nil.
//
// Error contract: a context cancellation/deadline aborts the fan-out and
// is returned as the context's error (test with errors.Is); tables
// already annotated keep their results. Per-table failures that are not
// cancellations are aggregated into a *CorpusError while the remaining
// tables still run to completion.
func (s *Service) AnnotateCorpus(ctx context.Context, tables []*Table, opts ...AnnotateOption) ([]*Annotation, error) {
	method, err := methodFor(resolveAnnotateOptions(opts))
	if err != nil {
		return nil, err
	}
	out := make([]*Annotation, len(tables))
	failures, err := fanOut(ctx, s, out, func(i int) (*Annotation, error) {
		return annotateOne(ctx, s.ann, method, tables[i])
	}, func(i int, err error) *TableError {
		return &TableError{Index: i, TableID: tableID(tables[i]), Err: err}
	})
	if err == nil && len(failures) > 0 {
		err = &CorpusError{Failures: failures}
	}
	return out, err
}

// fanOut runs do for every index of out over the worker pool, one pool
// slot and one goroutine per index, and stores each success in out.
// Once ctx is done nothing more is scheduled: the calls already running
// are waited for, their results kept, and ctx's error is returned.
// Otherwise every failure comes back, made by fail, in index order.
func fanOut[T, F any](ctx context.Context, s *Service, out []T, do func(i int) (T, error), fail func(i int, err error) F) ([]F, error) {
	errs := make([]error, len(out))
	var wg sync.WaitGroup
	for i := range out {
		// Checked first: acquire picks at random between a free slot
		// and a done ctx.
		if ctx.Err() != nil || s.acquire(ctx) != nil {
			break // cancelled: stop scheduling, keep finished results
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.release()
			res, err := do(i)
			if err != nil {
				errs[i] = err
				return
			}
			out[i] = res
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var failures []F
	for i, err := range errs {
		if err != nil {
			failures = append(failures, fail(i, err))
		}
	}
	return failures, nil
}

func tableID(t *table.Table) string {
	if t == nil {
		return ""
	}
	return t.ID
}

// BuildIndex annotates a corpus (unless WithoutAnnotations) and indexes
// it for Search, replacing the service's whole live corpus with a fresh
// one-segment store. The swap is atomic — searches in flight keep the
// corpus view they started with — and the built index is also returned
// for inspection. The corpus copies what it keeps: once BuildIndex
// returns, tables (and the annotations made for them) are the caller's
// again, and changing them changes nothing the service answers, saves or
// compacts. Tables must pass Validate. For incremental growth of an
// existing corpus use AddTables, which only annotates and indexes the new
// tables.
func (s *Service) BuildIndex(ctx context.Context, tables []*Table, opts ...AnnotateOption) (*SearchIndex, error) {
	anns, err := s.corpusAnnotations(ctx, tables, opts)
	if err != nil {
		return nil, err
	}
	ix, err := searchidx.BuildContext(ctx, s.cat, tables, anns)
	if err != nil {
		return nil, err
	}
	s.corpusMu.Lock()
	// The generation keeps counting across full rebuilds: clients watch
	// it to detect corpus changes, so replacing the store must look like
	// one more mutation, never a reset.
	gen := uint64(1)
	old := s.store.Load()
	if old != nil {
		gen = old.View().Generation() + 1
	}
	st, err := segment.New(s.cat, segment.Config{
		Policy:      s.compaction,
		AutoCompact: s.autoCompact,
		Generation:  gen,
		Seeds:       []segment.Seed{{Index: ix}},
	})
	if err != nil {
		s.corpusMu.Unlock()
		return nil, err
	}
	s.store.Store(st)
	s.corpusMu.Unlock()
	if old != nil {
		old.Close()
	}
	return ix, nil
}

// CorpusStats summarizes the live corpus: live/annotated table counts,
// segment and tombstone counts, and the index generation (bumped by
// every mutation and compaction).
type CorpusStats = segment.Stats

// CorpusStats reports the live corpus counters; ok is false before the
// corpus exists (no BuildIndex or AddTables yet).
func (s *Service) CorpusStats() (stats CorpusStats, ok bool) {
	st := s.store.Load()
	if st == nil {
		return CorpusStats{}, false
	}
	return st.View().Stats(), true
}

// ResidentBytes reports what the live corpus keeps in memory, by part
// (cells, dictionaries, postings, table metadata), as counted from array
// lengths when the current view was built; ok is false before the corpus
// exists.
func (s *Service) ResidentBytes() (resident ResidentBytes, ok bool) {
	st := s.store.Load()
	if st == nil {
		return ResidentBytes{}, false
	}
	return st.View().ResidentBytes(), true
}

// AddTables annotates a batch of new tables (unless WithoutAnnotations;
// per-call options override defaults as in AnnotateCorpus) and appends
// them to the live corpus as one fresh immutable segment — the existing
// corpus is not re-annotated or re-indexed. On a service with no corpus
// yet, AddTables starts one. The manifest swap is atomic: searches in
// flight, SearchAll iterations and SearchBatch fan-outs keep the view
// they started with, and subsequent searches rank exactly as a
// from-scratch BuildIndex over the combined corpus would. As with
// BuildIndex the corpus copies what it keeps; tables stay the caller's.
//
// Every table must carry a corpus-unique non-empty ID (that is how
// RemoveTables addresses it later). Violations — a missing ID, an ID
// already live, an invalid table — are aggregated into a *CorpusError
// (test the causes with errors.Is against ErrMissingTableID /
// ErrDuplicateTable) and the corpus is left unchanged.
func (s *Service) AddTables(ctx context.Context, tables []*Table, opts ...AnnotateOption) (CorpusStats, error) {
	// Fail fast on ID discipline before the expensive annotation pass: a
	// rejected batch should cost validation, not a full corpus annotate.
	// Store.Add revalidates authoritatively under its mutation lock.
	var cur *segment.View
	if st := s.store.Load(); st != nil {
		cur = st.View()
	}
	if len(tables) > 0 {
		if err := segment.ValidateBatch(cur, tables); err != nil {
			return CorpusStats{}, corpusMutationError(err)
		}
	}
	var anns []*Annotation
	if len(tables) > 0 {
		var err error
		if anns, err = s.corpusAnnotations(ctx, tables, opts); err != nil {
			return CorpusStats{}, err
		}
	}
	s.corpusMu.Lock()
	defer s.corpusMu.Unlock()
	st := s.store.Load()
	fresh := st == nil
	if fresh {
		var err error
		st, err = segment.New(s.cat, segment.Config{Policy: s.compaction, AutoCompact: s.autoCompact})
		if err != nil {
			return CorpusStats{}, err
		}
	}
	sp := obs.Begin(ctx, "segment.add")
	v, err := st.Add(ctx, tables, anns)
	sp.End()
	if err != nil {
		if fresh {
			st.Close()
		}
		return CorpusStats{}, corpusMutationError(err)
	}
	if fresh && v.Segments() > 0 {
		s.store.Store(st)
	}
	return v.Stats(), nil
}

// corpusAnnotations annotates tables for the live corpus — nil under
// WithoutAnnotations — keeping of each annotation what the tables
// determine: its stage durations are wall time, which the annotate.*
// spans report, so that a saved corpus depends on its inputs alone.
func (s *Service) corpusAnnotations(ctx context.Context, tables []*Table, opts []AnnotateOption) ([]*Annotation, error) {
	if resolveAnnotateOptions(opts).noAnns {
		return nil, nil
	}
	anns, err := s.AnnotateCorpus(ctx, tables, opts...)
	for _, a := range anns {
		if a != nil {
			a.Diag.CandidateGen, a.Diag.GraphBuild, a.Diag.Inference = 0, 0, 0
		}
	}
	return anns, err
}

// RemoveTables removes tables from the live corpus by ID. Removal only
// marks tombstones — no table is re-annotated or re-indexed, and the
// compactor reclaims the storage later; the per-call cost is the
// manifest renumbering, O(live tables) of cheap bookkeeping.
// All-or-nothing: if any ID is not live the call returns a *CorpusError
// whose failures wrap ErrUnknownTable and removes nothing.
func (s *Service) RemoveTables(ctx context.Context, ids []string) (CorpusStats, error) {
	if err := ctx.Err(); err != nil {
		return CorpusStats{}, err
	}
	s.corpusMu.Lock()
	defer s.corpusMu.Unlock()
	st := s.store.Load()
	if st == nil {
		return CorpusStats{}, ErrNoIndex
	}
	v, err := st.Remove(ids)
	if err != nil {
		return CorpusStats{}, corpusMutationError(err)
	}
	return v.Stats(), nil
}

// Compact forces a full compaction of the live corpus: fully-dead
// segments are dropped, qualifying adjacent segment runs merge, and
// tombstone-heavy segments are rewritten, until the manifest is stable.
// With the default options a background compactor already does this
// after every mutation; Compact is for deterministic tests, admin
// endpoints, and services built WithoutAutoCompaction.
func (s *Service) Compact(ctx context.Context) (CorpusStats, error) {
	st := s.store.Load()
	if st == nil {
		return CorpusStats{}, ErrNoIndex
	}
	v, err := st.Compact(ctx)
	if err != nil {
		return CorpusStats{}, err
	}
	return v.Stats(), nil
}

// Close stops the corpus's background compactor, waiting for any pass in
// flight. Idempotent; the service remains searchable afterwards, minus
// auto-compaction. Services that never mutate their corpus never start
// the compactor, so Close is optional for them.
func (s *Service) Close() {
	if st := s.store.Load(); st != nil {
		st.Close()
	}
}

// corpusMutationError converts the segment layer's batch rejection into
// the public *CorpusError shape.
func corpusMutationError(err error) error {
	var be *segment.BatchError
	if !errors.As(err, &be) {
		return err
	}
	fails := make([]*TableError, len(be.Tables))
	for i, te := range be.Tables {
		fails[i] = &TableError{Index: te.Index, TableID: te.ID, Err: te.Err}
	}
	return &CorpusError{Failures: fails}
}

// DefaultPageSize is the page size SearchAll uses when the request
// leaves PageSize zero (a zero PageSize would make every "page" the full
// ranking).
const DefaultPageSize = 100

// Search answers a relational query R(E1 ∈ T1, E2 ∈ T2) over the most
// recently built index (§5). The request selects the mode (zero value:
// SearchBaseline — set Mode explicitly; most callers want
// SearchTypeRel), bounds the page with PageSize, resumes a ranking with
// Cursor, and attaches provenance with Explain. Ranking a page of k
// answers uses a bounded min-heap (O(n log k)); the full answer count is
// reported as Result.Total either way.
//
// What a query builds and drops on the way — candidate list, match sets,
// hit log — lives in a pooled execution arena (see internal/search,
// "Ownership"); the returned result is freshly allocated, the caller's to
// keep, and bounded by the page.
//
// Invalid queries — fields the mode requires left unset, a negative page
// size — return a *QueryError; a cursor that did not come from a
// previous Result returns an error wrapping ErrInvalidCursor. Pages are
// ranked against the corpus view current at call time: a BuildIndex,
// AddTables or RemoveTables between pages may shift results, so paginate
// over one index generation (or use SearchAll, which pins the view for
// the whole iteration).
func (s *Service) Search(ctx context.Context, req SearchRequest) (*SearchResult, error) {
	eng, err := s.engine()
	if err != nil {
		return nil, err
	}
	if err := validateRequest(req); err != nil {
		return nil, err
	}
	return eng.Execute(ctx, req)
}

// SearchPartial executes req's candidate scan over the live corpus —
// typically a shard's subset loaded with LoadServiceShard — and exports
// the evidence as partial groups instead of a ranked page. tableOffset
// shifts hit table numbers into the cluster-global numbering (a shard
// passes its ShardAssignment.TableOffset; a single node passes 0).
// Partials from every shard of one corpus merge through
// MergeSearchPartials into pages byte-identical to a single-node
// Search. The request is validated exactly as Search validates it;
// PageSize, Cursor and Explain are ignored (merge-time concerns).
//
// The returned groups are the caller's: every hit list is a piece of one
// array allocated for exactly the hits of this call, and nothing in them
// is reused by a later query, so they may be encoded, kept or merged
// after the call returns.
//
// The returned SearchExecStats carries the shard-local execution cost
// (candidate pairs, rows scanned, stage timings); MergeSearchPartials
// sums the per-shard stats into the merged result's Stats.
func (s *Service) SearchPartial(ctx context.Context, req SearchRequest, tableOffset int) ([]PartialGroup, *SearchExecStats, error) {
	eng, err := s.engine()
	if err != nil {
		return nil, nil, err
	}
	if err := validateRequest(req); err != nil {
		return nil, nil, err
	}
	return eng.ExecutePartial(ctx, req, tableOffset)
}

// engine pins the current corpus view and returns the query engine over
// it. The engine is built once per view — a mutation or compaction
// publishes a new view, and the first search after it builds the next
// engine — and the view is immutable, so everything executed on the
// returned engine is consistent regardless of concurrent mutations or
// compaction.
func (s *Service) engine() (*search.Engine, error) {
	st := s.store.Load()
	if st == nil {
		return nil, ErrNoIndex
	}
	v := st.View()
	ve := s.eng.Load()
	if ve == nil || ve.view != v {
		// Two searches racing here build the same engine twice; either
		// may stay.
		ve = &viewEngine{view: v, engine: search.NewEngineOver(v)}
		s.eng.Store(ve)
	}
	return ve.engine, nil
}

// SearchBatch answers many requests concurrently over the service's
// worker pool, against one consistent pinned view of the corpus — a
// concurrent AddTables/RemoveTables cannot make two requests of one
// batch see different corpora. The returned slice is parallel to reqs;
// entries whose request failed are nil.
//
// Error contract (mirrors AnnotateCorpus): a context
// cancellation/deadline aborts the fan-out and is returned as the
// context's error; requests already answered keep their results.
// Per-request failures that are not cancellations are aggregated into a
// *BatchError while the remaining requests still run to completion.
func (s *Service) SearchBatch(ctx context.Context, reqs []SearchRequest) ([]*SearchResult, error) {
	eng, err := s.engine()
	if err != nil {
		return nil, err
	}
	out := make([]*SearchResult, len(reqs))
	failures, err := fanOut(ctx, s, out, func(i int) (*SearchResult, error) {
		if err := validateRequest(reqs[i]); err != nil {
			return nil, err
		}
		return eng.Execute(ctx, reqs[i])
	}, func(i int, err error) *RequestError {
		return &RequestError{Index: i, Err: err}
	})
	if err == nil && len(failures) > 0 {
		err = &BatchError{Failures: failures}
	}
	return out, err
}

// SearchAll streams every page of req as an iterator, starting from
// req.Cursor (empty: the top) and following NextCursor until the ranking
// is exhausted. A zero PageSize is replaced with DefaultPageSize. The
// whole iteration runs against the immutable corpus view pinned when
// iteration begins, so Total, ordering and cursors stay consistent even
// if BuildIndex, AddTables, RemoveTables or compaction run concurrently
// mid-stream. The iteration yields (nil, err) once and stops on the
// first error (including context cancellation).
//
//	for page, err := range svc.SearchAll(ctx, req) {
//		if err != nil { ... }
//		for _, a := range page.Answers { ... }
//	}
func (s *Service) SearchAll(ctx context.Context, req SearchRequest) iter.Seq2[*SearchResult, error] {
	return func(yield func(*SearchResult, error) bool) {
		eng, err := s.engine()
		if err != nil {
			yield(nil, err)
			return
		}
		if req.PageSize == 0 {
			req.PageSize = DefaultPageSize
		}
		if err := validateRequest(req); err != nil {
			yield(nil, err)
			return
		}
		for {
			res, err := eng.Execute(ctx, req)
			if err != nil {
				yield(nil, err)
				return
			}
			if !yield(res, nil) {
				return
			}
			if res.NextCursor == "" {
				return
			}
			req.Cursor = res.NextCursor
		}
	}
}

// validateRequest checks the execution controls, then the query fields
// the mode needs. Cursor well-formedness is checked by the engine, which
// owns the cursor format.
func validateRequest(req SearchRequest) error {
	if err := req.Validate(); err != nil {
		field := "page_size"
		if errors.Is(err, ErrInvalidMode) {
			field = "mode"
		}
		return &QueryError{Field: field, Err: err}
	}
	return validateQuery(req.Query, req.Mode)
}

// validateQuery checks that q carries the inputs mode needs. Every mode
// needs a probe: the baseline matches E2Text against cells, and the
// annotated modes match E2 with E2Text as the fallback — a query with
// neither is guaranteed zero answers, which must be an error, not a
// silent empty result.
func validateQuery(q SearchQuery, mode SearchMode) error {
	switch mode {
	case SearchBaseline:
		if q.T1Text == "" {
			return &QueryError{Field: "t1_text", Err: ErrInvalidQuery}
		}
		if q.T2Text == "" {
			return &QueryError{Field: "t2_text", Err: ErrInvalidQuery}
		}
		if q.E2Text == "" {
			return &QueryError{Field: "e2_text", Err: ErrInvalidQuery}
		}
	case SearchTypeRel:
		if q.Relation == None {
			return &QueryError{Field: "relation", Err: ErrInvalidQuery}
		}
		fallthrough
	case SearchType:
		if q.T1 == None {
			return &QueryError{Field: "t1", Err: ErrInvalidQuery}
		}
		if q.T2 == None {
			return &QueryError{Field: "t2", Err: ErrInvalidQuery}
		}
		if q.E2 == None && q.E2Text == "" {
			return &QueryError{Field: "e2", Err: ErrInvalidQuery}
		}
	}
	return nil
}

// ResolveQuery builds a SearchQuery from surface forms, resolving each
// against the catalog. Unknown relation or type names are structured
// errors (*QueryError wrapping ErrUnknownName) — not silent None
// fallbacks. An empty name resolves to None, which Search reports as
// missing (ErrInvalidQuery) if the mode needs it. An unknown e2 is NOT
// an error: per §5 the probe entity may be outside the catalog, in
// which case matching falls back to text.
func (s *Service) ResolveQuery(relation, t1, t2, e2 string) (SearchQuery, error) {
	q := SearchQuery{
		Relation: None, T1: None, T2: None, E2: None,
		RelationText: relation, T1Text: t1, T2Text: t2, E2Text: e2,
	}
	unknown := func(field, name string) (SearchQuery, error) {
		return SearchQuery{}, &QueryError{Field: field, Value: name, Err: ErrUnknownName}
	}
	var ok bool
	if relation != "" {
		if q.Relation, ok = s.cat.RelationByName(relation); !ok {
			return unknown("relation", relation)
		}
	}
	if t1 != "" {
		if q.T1, ok = s.cat.TypeByName(t1); !ok {
			return unknown("t1", t1)
		}
	}
	if t2 != "" {
		if q.T2, ok = s.cat.TypeByName(t2); !ok {
			return unknown("t2", t2)
		}
	}
	if e, ok := s.cat.EntityByName(e2); ok {
		q.E2 = e
	}
	return q, nil
}
