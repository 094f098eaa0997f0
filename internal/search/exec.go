package search

import (
	"context"
	"time"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/searchidx"
)

// rowCheckInterval bounds cancellation latency in rows, not in candidate
// pairs: a scan polls ctx.Err() when it starts and then once per this
// many rows visited, however many pairs those rows are spread over — one
// huge table cannot delay a cancellation or deadline until its scan
// finishes, and a thousand small ones do not take a thousand polls (a
// poll of a cancellable context takes its mutex).
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

// clusterSink holds the answer clusters of one fold, by aggregation key.
type clusterSink map[string]*cluster

// Execute runs one request through the pipeline every query takes
// (see the package doc): validate, plan the candidate column pairs from
// the index's posting lists, gather each answer cluster's ordered hit
// list, then fold — sum the evidence per cluster, select the requested
// page with a bounded min-heap (O(n log k), no full-corpus sort) and,
// with Explain set, read the winners' provenance off the hit lists
// already in memory. Query state is O(matching rows); the returned page
// and its explanations are bounded by the page size.
//
// A context cancellation is detected when a scan starts and every
// rowCheckInterval rows after that, and returns the context's error.
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
	a := takeArena()
	defer a.release()
	a.shards[0], err = e.gather(ctx, e.plan(ctx, req, st, a), 0, st, a, false)
	if err != nil {
		return nil, err
	}
	return fold(ctx, a.shards[:], st, req.PageSize, after, req.Explain)
}

// stageTimer is one open pipeline stage: its trace span and its
// wall-clock timer.
type stageTimer struct {
	t0    time.Time
	sp    *obs.Span
	nanos *int64
}

// stage opens one pipeline stage; end closes it.
func stage(ctx context.Context, name string, nanos *int64) stageTimer {
	return stageTimer{t0: time.Now(), sp: obs.Begin(ctx, name), nanos: nanos}
}

// end ends the stage's span and adds the elapsed time to its counter.
func (s stageTimer) end() {
	s.sp.End()
	*s.nanos += int64(time.Since(s.t0))
}

// validate is the pipeline's first stage: the request's execution
// controls, checked by Request.Validate.
func validate(ctx context.Context, req Request, st *ExecStats) error {
	defer stage(ctx, "search.validate", &st.Stage.Validate).end()
	return req.Validate()
}

// planGroup is one replay group of a plan: the candidate pairs from
// start up to the next group's start, whose evidence replays as a unit
// under key (PartialGroup.Key).
type planGroup struct {
	key   uint32
	start int
}

// candidate is one scheduled column pair: the segment and local table
// its columns are read from, and the answer (subject) and probe (object)
// columns.
type candidate struct {
	seg, local int32
	subj, obj  int32
}

// scanPlan is one execution's candidate schedule: the mode's ordered
// candidate column pairs, their replay groups, and the E2 probe compiled
// against the segments the pairs lie in. It is built once per execution,
// in the execution's arena, and scanned front to back, group by group.
type scanPlan struct {
	pairs []candidate
	// groups partitions the pair list, ascending by key and by start:
	// one group with key 0 in Baseline and TypeRel, where pairs ascend
	// by table; one per matching subject type (keyed by its TypeID) in
	// Type mode, where the list concatenates one corpus-ordered run per
	// type. Within a group, table ranges owned by different shards
	// concatenate in shard order into the single-node scan order; across
	// groups they do not, which is why evidence travels grouped.
	groups []planGroup
	// e2 is the probe entity the row loop compares annotations with;
	// None — always, in Baseline — matches every cell by text alone.
	e2 catalog.EntityID
	// byEntity keys an answer by its cell's entity annotation when it
	// has one (the annotated modes); Baseline keys by text only.
	byEntity bool
	// sets[i] is the E2 text probe compiled against corpus segment i, for
	// the segments a candidate pair lies in (reached). A segment without
	// a pair is never scanned, so its set is never built.
	sets    []searchidx.MatchSet
	reached []bool
}

// plan is the pipeline's second stage: it walks each segment's posting
// lists for the mode's candidate pairs into the arena's pair list, with
// their replay groups, and compiles the E2 probe against each segment a
// pair was found in.
func (e *Engine) plan(ctx context.Context, req Request, st *ExecStats, a *arena) *scanPlan {
	defer stage(ctx, "search.plan", &st.Stage.Plan).end()
	p := &a.plan
	p.pairs, p.groups = p.pairs[:0], append(p.groups[:0], planGroup{})
	p.e2, p.byEntity = req.Query.E2, true
	switch req.Mode {
	case Baseline:
		e.baselinePairs(req.Query, a)
		p.e2, p.byEntity = catalog.None, false
	case TypeRel:
		e.relationPairs(req.Query, p)
	default:
		e.typedPairs(req.Query, p)
	}
	a.e2.Reset(req.Query.E2Text)
	p.sets = append(p.sets[:0], make([]searchidx.MatchSet, len(e.segs))...)
	p.reached = append(p.reached[:0], make([]bool, len(e.segs))...)
	// Pairs come in runs of one segment, and Type mode runs through the
	// segments once per subject type.
	last := int32(-1)
	for i := range p.pairs {
		if seg := p.pairs[i].seg; seg != last {
			if last = seg; !p.reached[seg] {
				p.reached[seg] = true
				p.sets[seg] = e.segs[seg].ix.Compile(&a.e2)
			}
		}
	}
	return p
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
		sortRanked(page)
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
// column of the same table that matches T2. Per segment that is a
// merge-join on the table number of two ascending header-posting unions,
// filtered by the context postings, so pairs come out ordered by (table,
// T1 column, T2 column) — a fixed order, as evidence must sum in the
// same order on every execution. The probes, their merge buffers and the
// pair list are the arena's.
func (e *Engine) baselinePairs(q Query, a *arena) {
	a.t1.Reset(q.T1Text)
	a.t2.Reset(q.T2Text)
	a.rel.Reset(q.RelationText)
	pairs := a.plan.pairs
	for si, seg := range e.segs {
		c1s := seg.ix.HeaderMatches(&a.t1, &a.buf1)
		c2s := seg.ix.HeaderMatches(&a.t2, &a.buf2)
		seg.ix.ContextMatches(&a.rel, &a.ctxs)
		for len(c1s) > 0 {
			t := c1s[0].Table()
			n1 := 1
			for n1 < len(c1s) && c1s[n1].Table() == t {
				n1++
			}
			for len(c2s) > 0 && c2s[0].Table() < t {
				c2s = c2s[1:]
			}
			if seg.global[t] >= 0 && len(c2s) > 0 && c2s[0].Table() == t && a.ctxs.Contains(t) {
				for _, c1 := range c1s[:n1] {
					for _, c2 := range c2s {
						if c2.Table() != t {
							break
						}
						if c2.Col() != c1.Col() {
							pairs = append(pairs, candidate{seg: int32(si), local: t, subj: c1.Col(), obj: c2.Col()})
						}
					}
				}
			}
			c1s = c1s[n1:]
		}
	}
	a.plan.pairs = pairs
}

// typeFilter decides whether a posted column pair's annotated types are
// compatible with the query's: both present, subject ⊆* T1 and object
// ⊆* T2. A posting list runs through long stretches of equally typed
// pairs, so the verdict of the last distinct (subject, object) types is
// kept and the subtype closure is consulted only when they change.
type typeFilter struct {
	cat       *catalog.Catalog
	t1, t2    catalog.TypeID
	subj, obj catalog.TypeID
	ok        bool
}

func (e *Engine) newTypeFilter(q Query) typeFilter {
	// Untyped pairs are incompatible, which is the zero verdict.
	return typeFilter{cat: e.cat, t1: q.T1, t2: q.T2, subj: catalog.None, obj: catalog.None}
}

// judge replaces the kept verdict with that of another pair of types.
func (f *typeFilter) judge(subj, obj catalog.TypeID) {
	f.subj, f.obj = subj, obj
	f.ok = subj != catalog.None && f.cat.IsSubtype(subj, f.t1) &&
		obj != catalog.None && f.cat.IsSubtype(obj, f.t2)
}

// appendLive appends the compatible pairs of one segment's posting list
// whose tables are live.
func appendLive(pairs []candidate, si int, seg corpusSegment, posted []searchidx.ColumnPair, f *typeFilter) []candidate {
	for i := range posted {
		p := &posted[i]
		if p.SubjType != f.subj || p.ObjType != f.obj {
			f.judge(p.SubjType, p.ObjType)
		}
		if f.ok && seg.global[p.Table] >= 0 {
			pairs = append(pairs, candidate{seg: int32(si), local: p.Table, subj: p.SubjCol, obj: p.ObjCol})
		}
	}
	return pairs
}

// relationPairs implements the candidate retrieval of Figure 4 with
// relation annotations: each segment's per-relation posting list,
// filtered by subtype compatibility with the query types, appended to
// the plan's pair list — which grows by what the filter keeps, and keeps
// its capacity from one execution to the next.
func (e *Engine) relationPairs(q Query, p *scanPlan) {
	f := e.newTypeFilter(q)
	for si, seg := range e.segs {
		p.pairs = appendLive(p.pairs, si, seg, seg.ix.RelationPairs(q.Relation), &f)
	}
}

// typedPairs is the type-only retrieval of Figure 4: subject types in ID
// order, each type's typed-pair lists segment after segment — the same
// candidate sequence whether the corpus is one index or many segments.
// Each type with candidates is one replay group (see scanPlan.groups).
func (e *Engine) typedPairs(q Query, p *scanPlan) {
	p.groups = p.groups[:0]
	f := e.newTypeFilter(q)
	for _, T := range e.c.SubjectTypes() {
		if !e.cat.IsSubtype(T, q.T1) {
			continue
		}
		start := len(p.pairs)
		for si, seg := range e.segs {
			p.pairs = appendLive(p.pairs, si, seg, seg.ix.TypedPairsOf(T), &f)
		}
		if len(p.pairs) > start {
			p.groups = append(p.groups, planGroup{key: uint32(T), start: start})
		}
	}
}

// scanRange runs the matching stage of Figures 3 and 4 over candidate
// pairs [lo, hi) of the plan: look for E2 down the pair's object column
// (searchidx.ScanColumn: by entity annotation with text fallback, or by
// text alone) and report the answer-column cell of every qualifying row
// to sink. Pair and row counters accumulate into st. The context is
// polled before the first row and then every rowCheckInterval rows,
// counted across pairs; a column is scanned in stretches of at most that
// many rows so that the count cannot overshoot by more than one stretch.
func (e *Engine) scanRange(ctx context.Context, p *scanPlan, lo, hi int, sink *partialCollector, st *ExecStats) error {
	sincePoll := rowCheckInterval
	for i := lo; i < hi; i++ {
		c := &p.pairs[i]
		ix := e.segs[c.seg].ix
		raws, ents := ix.Column(int(c.local), int(c.obj))
		var answers []catalog.EntityID
		if p.byEntity {
			_, answers = ix.Column(int(c.local), int(c.subj))
		}
		matched := false
		for r0 := 0; r0 < len(raws); r0 += rowCheckInterval {
			if sincePoll >= rowCheckInterval {
				sincePoll = 0
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			r1 := min(r0+rowCheckInterval, len(raws))
			sincePoll += r1 - r0
			rows := searchidx.ScanColumn(sink.rows[:0], r0, raws[r0:r1], ents[r0:r1], p.e2, &p.sets[c.seg])
			sink.rows = rows
			for _, rh := range rows {
				entity := catalog.EntityID(catalog.None)
				if answers != nil {
					entity = answers[rh.Row]
				}
				sink.add(c, rh, entity)
			}
			matched = matched || len(rows) > 0
		}
		st.CandidatePairs++
		st.RowsScanned += int64(len(raws))
		if matched {
			st.PairsMatched++
		}
	}
	return nil
}
