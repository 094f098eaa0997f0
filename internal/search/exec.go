package search

import (
	"context"
	"sort"
	"time"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/searchidx"
	"repro/internal/text"
)

// rowCheckInterval bounds cancellation latency inside a single candidate
// pair: the row loops poll ctx.Err() every this many rows, so one huge
// table cannot delay a cancellation or deadline until its scan finishes.
// Power of two so the poll is a mask, not a division.
const rowCheckInterval = 1024

// cluster accumulates the evidence of one answer while fold aggregates.
type cluster struct {
	key     string // unique aggregation key ("e:<id>" or "t:<norm>")
	entity  catalog.EntityID
	score   float64
	support int
	// canonical is the presented text for entity clusters; text clusters
	// derive theirs from the dominant surface form.
	canonical string
	// variants counts raw surface forms; bestText/bestN maintain the
	// dominant (highest-count, ties broken lexicographically) form
	// incrementally, so presentation never rescans the whole list.
	variants []Variant
	bestText string
	bestN    int
	// parts lists the hit lists folded into this cluster, in fold order
	// (recorded only when the request asked for explanations).
	parts []*ClusterPartial
}

// noteRawN counts n occurrences of a raw surface form, keeping the
// dominant-form fields current. The invariant — bestText is the
// highest-count variant, ties broken by the lexicographically smaller
// string — depends only on the final counts, so folding shard-wise
// variant counts in any order lands on the same dominant form.
func (c *cluster) noteRawN(raw string, n int) {
	if n <= 0 {
		return
	}
	var total int
	c.variants, total = noteVariant(c.variants, raw, n)
	if total > c.bestN || (total == c.bestN && raw < c.bestText) {
		c.bestText, c.bestN = raw, total
	}
}

// text resolves the presented surface form: the canonical entity name for
// entity clusters, else the dominant raw cell text. O(1): the dominant
// form is maintained as evidence accumulates, not recomputed per call.
func (c *cluster) text() string {
	if c.canonical != "" {
		return c.canonical
	}
	return c.bestText
}

// hit is one matching answer cell: its location, its entity annotation
// (None for text clusters) and the evidence it contributes. A hit is
// pointer-free on purpose — a sliced scan logs hits by the million, and
// records without pointers are invisible to the garbage collector's
// scan phase. Everything presentational (cluster identity, canonical
// name, raw text) is derived from the hit on demand.
type hit struct {
	loc      searchidx.CellLoc
	entity   catalog.EntityID
	evidence float64
}

// evidenceSink receives every matching hit as a scan walks a slice of
// the candidate column pairs. Two implementations: partialCollector
// groups hits per answer cluster directly (a slice that is a whole
// replay group), shardLog records them for an in-order replay into one
// (a group scanned as several concurrent slices).
type evidenceSink interface {
	add(h hit)
}

// clusterSink holds the answer clusters of one fold, by aggregation key.
type clusterSink map[string]*cluster

// queryMatcher matches the probe entity's surface form against
// precomputed normalized cells: the query is normalized and tokenized
// once per execution, and cells are matched with their build-time token
// sets — no raw-cell normalization on the query path.
type queryMatcher struct {
	norm string
	toks map[string]struct{}
}

func newQueryMatcher(q string) queryMatcher {
	if q == "" {
		return queryMatcher{}
	}
	return queryMatcher{norm: text.Normalize(q), toks: text.TokenSet(q)}
}

// match scores a cell: 1 for normalized equality, Jaccard when above 0.5,
// else 0.
func (m queryMatcher) match(cellNorm string, cellToks map[string]struct{}) float64 {
	if m.norm == "" || cellNorm == "" {
		return 0
	}
	if m.norm == cellNorm {
		return 1
	}
	if j := text.JaccardSets(m.toks, cellToks); j >= 0.5 {
		return j
	}
	return 0
}

// Execute runs one request through the pipeline every query takes
// (see the package doc): validate, plan the candidate column pairs from
// the index's posting lists, gather each answer cluster's ordered hit
// list, then fold — sum the evidence per cluster, select the requested
// page with a bounded min-heap (O(n log k), no full-corpus sort) and,
// with Explain set, read the winners' provenance off the hit lists
// already in memory. Query state is O(matching rows); the returned page
// and its explanations are bounded by the page size.
//
// With parallelism above one (WithParallelism) the candidate pairs are
// scanned as contiguous slices on a bounded worker pool; results are
// byte-identical at every level (see parallel.go).
//
// A context cancellation is detected between candidate pairs and every
// rowCheckInterval rows within a pair, and returns the context's error.
//
// Each stage opens one trace span (search.validate, search.plan,
// search.scan, search.aggregate, search.select and, when asked,
// search.explain) on the context's trace, if it carries one; untraced
// executions pay one context lookup per stage. Spans only time the
// stages — they never reorder any work, so the byte-identical-results
// contract is untouched. The same holds for Result.Stats: counters and
// stage timings ride alongside the page and never influence it.
func (e *Engine) Execute(ctx context.Context, req Request) (*Result, error) {
	st := e.newStats()
	if err := validate(ctx, req, st); err != nil {
		return nil, err
	}
	after, err := decodeCursor(req.Cursor)
	if err != nil {
		return nil, err
	}
	p := e.plan(ctx, req, st)
	groups, err := e.gather(ctx, &p, 0, st)
	if err != nil {
		return nil, err
	}
	return fold(ctx, [][]PartialGroup{groups}, st, req.PageSize, after, req.Explain)
}

// stage opens one pipeline stage: its trace span and its wall-clock
// timer. The returned func ends the span and adds the elapsed time to
// *nanos.
func stage(ctx context.Context, name string, nanos *int64) func() {
	t0 := time.Now()
	sp := obs.Begin(ctx, name)
	return func() {
		sp.End()
		*nanos += int64(time.Since(t0))
	}
}

// validate is the pipeline's first stage: the request's execution
// controls, checked by Request.Validate.
func validate(ctx context.Context, req Request, st *ExecStats) error {
	defer stage(ctx, "search.validate", &st.Stage.Validate)()
	return req.Validate()
}

// basePair is one baseline candidate: a header-matched answer column and
// a same-table probe column.
type basePair struct{ c1, c2 searchidx.ColRef }

// planGroup is one replay group of a plan: the candidate pairs from
// start up to the next group's start, whose evidence replays as a unit
// under key (PartialGroup.Key).
type planGroup struct {
	key   uint32
	start int
}

// scanPlan is one execution's candidate schedule: the mode's ordered
// candidate column pairs, their replay groups, and the prepared query
// matcher. The pair list is built once per execution and scanned whole
// or in contiguous slices; every layout walks it in the same order.
type scanPlan struct {
	mode Mode
	q    Query
	m    queryMatcher
	base []basePair             // Baseline candidates
	ann  []searchidx.ColumnPair // Type / TypeRel candidates
	// groups partitions the pair list, ascending by key and by start:
	// one group with key 0 in Baseline and TypeRel, where pairs ascend
	// by table; one per matching subject type (keyed by its TypeID) in
	// Type mode, where the list concatenates one corpus-ordered run per
	// type. Within a group, table ranges owned by different shards
	// concatenate in shard order into the single-node scan order; across
	// groups they do not, which is why evidence travels grouped.
	groups []planGroup
}

// len returns the number of candidate pairs.
func (p *scanPlan) len() int {
	if p.mode == Baseline {
		return len(p.base)
	}
	return len(p.ann)
}

// tableOf returns the (global) table number of candidate pair i. It
// ascends within a replay group, so over a whole Type-mode plan it is
// only piecewise ascending — segment-edge snapping treats any segment
// transition between adjacent pairs as a boundary candidate, which is
// still where locality changes.
func (p *scanPlan) tableOf(i int) int {
	if p.mode == Baseline {
		return p.base[i].c1.Table
	}
	return p.ann[i].Table
}

// plan is the pipeline's second stage: it gathers the mode's candidate
// pairs with their replay groups and prepares the matcher.
func (e *Engine) plan(ctx context.Context, req Request, st *ExecStats) scanPlan {
	defer stage(ctx, "search.plan", &st.Stage.Plan)()
	p := scanPlan{mode: req.Mode, q: req.Query, m: newQueryMatcher(req.Query.E2Text)}
	if req.Mode == Baseline {
		p.base, p.groups = e.baselinePairs(req.Query), []planGroup{{}}
	} else {
		p.ann, p.groups = e.annotatedPairs(req.Query, req.Mode == TypeRel)
	}
	return p
}

// scanRange scans candidate pairs [lo, hi) of the plan into sink,
// accumulating pair/row counters into sc (one instance per slice; the
// caller sums them afterwards).
func (e *Engine) scanRange(ctx context.Context, p *scanPlan, lo, hi int, sink evidenceSink, sc *scanCounters) error {
	if p.mode == Baseline {
		return e.scanBaselineRange(ctx, p, lo, hi, sink, sc)
	}
	return e.scanAnnotatedRange(ctx, p, lo, hi, sink, sc)
}

// selectPage picks the PageSize best-ranked clusters strictly after the
// cursor (a cluster's rank is a total order, so map iteration order
// never shows in the page). With k > 0 it never sorts more than the k
// retained entries. The second return value carries the cluster behind
// each answer, for provenance attachment; the third is the eligible
// count itself, for ExecStats.AnswersBeforeTopK.
func selectPage(clusters clusterSink, pageSize int, after *rankKey) (*Result, []*cluster, int) {
	res := &Result{Total: len(clusters)}
	eligible := 0
	var page []pageEntry
	heap := newTopK(pageSize)
	for _, c := range clusters {
		k := rankKey{score: c.score, support: c.support, text: c.text(), key: c.key}
		if after != nil && !after.before(k) {
			continue
		}
		eligible++
		if pageSize == 0 {
			page = append(page, pageEntry{c: c, key: k})
		} else {
			heap.offer(pageEntry{c: c, key: k})
		}
	}
	if pageSize == 0 {
		sort.Slice(page, func(i, j int) bool { return page[i].key.before(page[j].key) })
	} else {
		page = heap.ranked()
	}
	res.Answers = make([]Answer, len(page))
	winners := make([]*cluster, len(page))
	for i, pe := range page {
		winners[i] = pe.c
		res.Answers[i] = Answer{
			Text:    pe.key.text,
			Entity:  pe.c.entity,
			Score:   pe.c.score,
			Support: pe.c.support,
		}
	}
	if eligible > len(page) && len(page) > 0 {
		res.NextCursor = encodeCursor(page[len(page)-1].key)
	}
	return res, winners, eligible
}

// baselinePairs implements the candidate retrieval of Figure 3:
// interpret all inputs as strings; find tables whose headers match T1
// and T2 and context matches R; pair each T1 column with every other
// column of the same table that matches T2.
func (e *Engine) baselinePairs(q Query) []basePair {
	t1Cols := e.c.HeaderMatches(q.T1Text)
	t2Cols := e.c.HeaderMatches(q.T2Text)
	ctxTables := e.c.ContextMatches(q.RelationText)

	var pairs []basePair
	t2ByTable := make(map[int][]searchidx.ColRef)
	for _, ref := range t2Cols {
		t2ByTable[ref.Table] = append(t2ByTable[ref.Table], ref)
	}
	for _, c1 := range t1Cols {
		if _, ok := ctxTables[c1.Table]; !ok {
			continue
		}
		for _, c2 := range t2ByTable[c1.Table] {
			if c2.Col != c1.Col {
				pairs = append(pairs, basePair{c1, c2})
			}
		}
	}
	// HeaderMatches order follows token-map iteration, so sort the pairs:
	// float evidence must sum in the same order on every Execute call or
	// per-cluster scores drift by an ULP between the separate executions
	// cursor pagination compares bit-exactly.
	sort.Slice(pairs, func(i, j int) bool {
		a, b := pairs[i], pairs[j]
		if a.c1.Table != b.c1.Table {
			return a.c1.Table < b.c1.Table
		}
		if a.c1.Col != b.c1.Col {
			return a.c1.Col < b.c1.Col
		}
		return a.c2.Col < b.c2.Col
	})
	return pairs
}

// scanBaselineRange runs the matching stage of Figure 3 over baseline
// candidate pairs [lo, hi): look for E2 in the T2 column; report the
// T1-column cells of qualifying rows keyed by normalized text.
func (e *Engine) scanBaselineRange(ctx context.Context, pl *scanPlan, lo, hi int, sink evidenceSink, sc *scanCounters) error {
	for _, p := range pl.base[lo:hi] {
		if err := ctx.Err(); err != nil {
			return err
		}
		rows := e.c.Rows(p.c1.Table)
		matched := false
		for r := 0; r < rows; r++ {
			if r&(rowCheckInterval-1) == rowCheckInterval-1 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			loc2 := searchidx.CellLoc{Table: p.c2.Table, Row: r, Col: p.c2.Col}
			sim := pl.m.match(e.c.NormCell(loc2), e.c.CellTokens(loc2))
			if sim <= 0 {
				continue
			}
			matched = true
			loc1 := searchidx.CellLoc{Table: p.c1.Table, Row: r, Col: p.c1.Col}
			sink.add(hit{loc: loc1, entity: catalog.None, evidence: sim})
		}
		sc.pairs++
		sc.rows += int64(rows)
		if matched {
			sc.pairsMatched++
		}
	}
	return nil
}

// annotatedPairs implements the candidate retrieval of Figure 4 over the
// precomputed posting lists: pairs come from the per-relation list
// (TypeRel) or the subject-type-keyed typed-pair list (Type), filtered
// by subtype compatibility with the query types. The second return
// value is the list's replay groups (see scanPlan.groups).
func (e *Engine) annotatedPairs(q Query, requireRel bool) ([]searchidx.ColumnPair, []planGroup) {
	var pairs []searchidx.ColumnPair
	if requireRel {
		for _, p := range e.c.RelationPairs(q.Relation) {
			if p.SubjType != catalog.None && e.cat.IsSubtype(p.SubjType, q.T1) &&
				p.ObjType != catalog.None && e.cat.IsSubtype(p.ObjType, q.T2) {
				pairs = append(pairs, p)
			}
		}
		return pairs, []planGroup{{}}
	}
	// Type mode: subject types in ID order, each type's pairs in corpus
	// order — the same candidate sequence whether the corpus is one
	// index or many segments. Each type with candidates is one group.
	var groups []planGroup
	for _, T := range e.c.SubjectTypes() {
		if !e.cat.IsSubtype(T, q.T1) {
			continue
		}
		start := len(pairs)
		for _, p := range e.c.TypedPairsOf(T) {
			if p.ObjType != catalog.None && e.cat.IsSubtype(p.ObjType, q.T2) {
				pairs = append(pairs, p)
			}
		}
		if len(pairs) > start {
			groups = append(groups, planGroup{key: uint32(T), start: start})
		}
	}
	return pairs, groups
}

// scanAnnotatedRange runs the matching stage of Figure 4 over annotated
// candidate pairs [lo, hi): E2 is matched by entity annotation with text
// fallback; evidence is keyed per entity (or per normalized text for
// unannotated answer cells).
func (e *Engine) scanAnnotatedRange(ctx context.Context, pl *scanPlan, lo, hi int, sink evidenceSink, sc *scanCounters) error {
	q := pl.q
	for _, p := range pl.ann[lo:hi] {
		if err := ctx.Err(); err != nil {
			return err
		}
		rows := e.c.Rows(p.Table)
		matched := false
		for r := 0; r < rows; r++ {
			if r&(rowCheckInterval-1) == rowCheckInterval-1 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			loc2 := searchidx.CellLoc{Table: p.Table, Row: r, Col: p.ObjCol}
			var evidence float64
			if q.E2 != catalog.None {
				if e.c.EntityAt(loc2) == q.E2 {
					evidence = 1.5 // exact entity match beats text match
				} else if e.c.EntityAt(loc2) == catalog.None {
					evidence = pl.m.match(e.c.NormCell(loc2), e.c.CellTokens(loc2))
				}
			} else {
				evidence = pl.m.match(e.c.NormCell(loc2), e.c.CellTokens(loc2))
			}
			if evidence <= 0 {
				continue
			}
			matched = true
			loc1 := searchidx.CellLoc{Table: p.Table, Row: r, Col: p.SubjCol}
			sink.add(hit{loc: loc1, entity: e.c.EntityAt(loc1), evidence: evidence})
		}
		sc.pairs++
		sc.rows += int64(rows)
		if matched {
			sc.pairsMatched++
		}
	}
	return nil
}
