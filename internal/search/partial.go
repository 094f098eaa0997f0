// Partial evidence: the pipeline's intermediate form, and its fold.
//
// Every query, on every path, passes through one representation: per
// replay group, each answer cluster's ordered hit list ([]PartialGroup)
// — pointer-free (table, row, col, evidence) records, grouped the way
// the serial scan orders its candidate pairs. gather (gather.go)
// produces it; fold consumes it: it sums each cluster's evidence in
// list order, selects the page, and reads the winners' explanations off
// the same lists. Execute is gather + fold over one shard in one call.
// A shard server stops after gather (ExecutePartial) and ships the
// groups over the WTPART wire format; the router folds every shard's
// groups (MergePartials) — groups in key order, shards in shard order,
// hits in scan order — reproducing the single-node serial left fold
// bit-for-bit. Per-cluster *partial sums* would not: floating-point
// addition is not associative, and pagination cursors compare scores
// bit-exactly across separate executions.
//
// Grouping is what makes the shard-major concatenation correct in every
// mode. A shard owns a contiguous run of corpus segments and therefore
// a contiguous range of global table numbers. Baseline and TypeRel scan
// candidate pairs in ascending global table order, so one group per
// request suffices: shard hit lists concatenated in shard order are
// already in corpus order. Type mode is type-major — subject types
// ascending, each type's pairs in corpus order — so a cluster fed by
// two subject types interleaves across the type runs, not across
// tables. One group per subject type restores the serial order: replay
// group keys ascending, and within each group the shards in order.
//
// Cluster identity travels with the hit lists so fold needs no catalog:
// entity clusters carry their ID and canonical name (identical on every
// shard — all shards load the same frozen catalog), text clusters carry
// their normalized key and raw-form counts (merged additively; the
// dominant form depends only on final counts, so shard-wise merging
// lands on the single-node presentation).
package search

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/searchidx"
)

// PartialHit is one matching answer cell: the corpus-global table
// number (a shard applies its table offset), the cell address, and the
// evidence the row contributed. 24 bytes, pointer-free.
type PartialHit struct {
	Table, Row, Col int32
	Evidence        float64
}

// Variant is one raw surface form of a text cluster with its occurrence
// count within the shard.
type Variant struct {
	Raw   string
	Count int
}

// ClusterPartial is one answer cluster's evidence within one shard:
// identity, the hit list in the shard's serial scan order, and (for
// text clusters) the raw-form counts behind the dominant-form choice.
type ClusterPartial struct {
	// Entity identifies entity clusters; catalog.None for text clusters.
	Entity catalog.EntityID
	// Norm is the text cluster's normalized aggregation key (empty for
	// entity clusters).
	Norm string
	// Canonical is the entity's catalog name (empty for text clusters),
	// carried so the merger can present answers without a catalog.
	Canonical string
	// Hits is the cluster's evidence in scan order.
	Hits []PartialHit
	// Variants counts the cluster's raw surface forms, ascending by Raw
	// (text clusters only).
	Variants []Variant
}

// Key returns the cluster's aggregation key, matching the single-node
// "e:<id>" / "t:<norm>" identity.
func (cp *ClusterPartial) Key() string {
	if cp.Entity != catalog.None {
		return "e:" + strconv.Itoa(int(cp.Entity))
	}
	return "t:" + cp.Norm
}

// PartialGroup is one replay unit of a shard's partial evidence. Key is
// 0 for Baseline and TypeRel (one group per request) and the subject
// TypeID in Type mode (one group per matching subject type). Groups are
// ascending by Key; clusters within a group are in a deterministic
// order (entity clusters by ID, then text clusters by norm) so the
// shard's encoded response is reproducible.
type PartialGroup struct {
	Key      uint32
	Clusters []ClusterPartial
}

// ValidateCursor checks that s is a well-formed pagination cursor
// without executing anything; the error wraps ErrInvalidCursor exactly
// as Execute would report it. An empty cursor is valid (start at the
// top). Routers use it to reject bad cursors before fanning out.
func ValidateCursor(s string) error {
	_, err := decodeCursor(s)
	return err
}

// ExecutePartial runs the pipeline up to and including gather over this
// engine's corpus — a shard's subset view — and returns the partial
// groups instead of a ranked page. tableOffset is the number of live
// tables owned by preceding shards; it shifts hit table numbers into
// the cluster-global numbering so merged explanations match a single
// node. PageSize, Cursor and Explain are ignored (they are merge-time
// concerns); the request is otherwise validated as Execute validates
// it. Groups with no hits are omitted.
//
// The returned ExecStats carries the shard-local cost (pairs, rows,
// segments, validate/plan/scan time); the fold stages (aggregate,
// select, explain) happen in MergePartials, which sums the shard stats
// and adds its own.
func (e *Engine) ExecutePartial(ctx context.Context, req Request, tableOffset int) ([]PartialGroup, *ExecStats, error) {
	st := e.newStats()
	if err := validate(ctx, req, st); err != nil {
		return nil, nil, err
	}
	a := takeArena()
	defer a.release()
	groups, err := e.gather(ctx, e.plan(ctx, req, st, a), tableOffset, st, a, true)
	if err != nil {
		return nil, nil, err
	}
	return groups, st, nil
}

// loggedHit is one entry of a collector's hit log: a PartialHit and the
// collector-local number of the cluster it belongs to, in the 24 bytes
// of the hit alone.
type loggedHit struct {
	table, row, col int32
	cluster         int32
	evidence        float64
}

// partialCollector is the scan's sink, one per replay group, and builds
// ClusterPartials: it resolves each hit's cluster identity — the answer
// cell's entity, else its normalized text, read off the owning segment's
// dictionary — and logs the hit, under its cluster-global table number
// and its cluster, in add order (the scan order of its group). cut then
// turns the log into the clusters' hit lists. A collector lives in an
// arena and is emptied, not rebuilt, between executions.
type partialCollector struct {
	e        *Engine
	offset   int32
	clusters []ClusterPartial
	// entities and texts index clusters by identity (texts by
	// normalized cell text).
	entities entityIndex
	texts    map[string]int32
	log      []loggedHit
	// rows is the scan's buffer for one column stretch's matches.
	rows []searchidx.RowHit
}

// cluster returns the number of the collector's cluster for an identity
// — an entity, else a normalized text — adding an empty one the first
// time it is seen.
func (pc *partialCollector) cluster(entity catalog.EntityID, norm string) int32 {
	if entity != catalog.None {
		i, ok := pc.entities.find(entity, int32(len(pc.clusters)))
		if !ok {
			pc.clusters = append(pc.clusters, ClusterPartial{Entity: entity, Canonical: pc.e.cat.EntityName(entity)})
		}
		return i
	}
	i, ok := pc.texts[norm]
	if !ok {
		i = int32(len(pc.clusters))
		pc.texts[norm] = i
		pc.clusters = append(pc.clusters, ClusterPartial{Entity: catalog.None, Norm: norm})
	}
	return i
}

// entityIndex maps entity → cluster number by open addressing: the scan
// asks once per hit, and a power-of-two table of integers probed linearly
// answers in a third of the time the built-in map takes. A slot holds
// the cluster number plus one, so an emptied table is a zeroed one.
type entityIndex struct {
	slots []entitySlot
	used  int
}

type entitySlot struct {
	entity  catalog.EntityID
	cluster int32
}

// find returns the cluster number filed under entity, filing next under
// it (and reporting false) when there is none.
func (x *entityIndex) find(entity catalog.EntityID, next int32) (int32, bool) {
	if 2*x.used >= len(x.slots) {
		x.grow()
	}
	mask := uint32(len(x.slots) - 1)
	for i := uint32(entity) * 2654435761 >> 7 & mask; ; i = (i + 1) & mask {
		switch s := &x.slots[i]; {
		case s.cluster == 0:
			*s = entitySlot{entity, next + 1}
			x.used++
			return next, false
		case s.entity == entity:
			return s.cluster - 1, true
		}
	}
}

// grow doubles the table.
func (x *entityIndex) grow() {
	old := x.slots
	x.slots, x.used = make([]entitySlot, max(64, 2*len(old))), 0
	for _, s := range old {
		if s.cluster != 0 {
			x.find(s.entity, s.cluster-1)
		}
	}
}

// reset empties the table, keeping its size.
func (x *entityIndex) reset() {
	clear(x.slots)
	x.used = 0
}

// add records one matching row of candidate pair c: the row's answer
// cell, annotated with entity (None keys the cluster by the cell's
// text), receives the row's evidence.
func (pc *partialCollector) add(c *candidate, rh searchidx.RowHit, entity catalog.EntityID) {
	seg := &pc.e.segs[c.seg]
	var ci int32
	if entity != catalog.None {
		ci = pc.cluster(entity, "")
	} else {
		// An unannotated cell whose normalized text is empty has no
		// cluster identity and contributes nothing.
		raws, _ := seg.ix.Column(int(c.local), int(c.subj))
		norm := seg.ix.Spelling(raws[rh.Row])
		if norm == "" {
			return
		}
		ci = pc.cluster(catalog.None, norm)
		cp := &pc.clusters[ci]
		cp.Variants, _ = noteVariant(cp.Variants, seg.ix.Surface(int(c.local), int(rh.Row), int(c.subj)), 1)
	}
	pc.log = append(pc.log, loggedHit{
		table:    seg.global[c.local] + pc.offset,
		row:      rh.Row,
		col:      c.subj,
		cluster:  ci,
		evidence: rh.Evidence,
	})
}

// cut turns the hit log into the clusters' hit lists: one stable
// counting pass over the log — count per cluster, then place — into
// dst, which has exactly one slot per logged hit and becomes the backing
// of every list (each capped at its own length, so appending to one
// never writes into the next). next is the pass's scratch. The context
// is polled every rowCheckInterval hits.
func (pc *partialCollector) cut(ctx context.Context, dst []PartialHit, next []int32) error {
	next = next[:len(pc.clusters)+1]
	clear(next)
	for lo := 0; lo < len(pc.log); lo += rowCheckInterval {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, h := range pc.log[lo:min(lo+rowCheckInterval, len(pc.log))] {
			next[h.cluster+1]++
		}
	}
	for ci := range pc.clusters {
		next[ci+1] += next[ci]
		pc.clusters[ci].Hits = dst[next[ci]:next[ci+1]:next[ci+1]]
	}
	for lo := 0; lo < len(pc.log); lo += rowCheckInterval {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, h := range pc.log[lo:min(lo+rowCheckInterval, len(pc.log))] {
			dst[next[h.cluster]] = PartialHit{Table: h.table, Row: h.row, Col: h.col, Evidence: h.evidence}
			next[h.cluster]++
		}
	}
	return nil
}

// noteVariant adds n occurrences of raw to a variant list, returning
// the list and raw's new count. The list is searched linearly: the
// distinct raw spellings of one normalized text are a handful (case,
// spacing and punctuation variants), far below where a map would pay
// for itself.
func noteVariant(vs []Variant, raw string, n int) ([]Variant, int) {
	for i := range vs {
		if vs[i].Raw == raw {
			vs[i].Count += n
			return vs, vs[i].Count
		}
	}
	return append(vs, Variant{Raw: raw, Count: n}), n
}

// finish returns the collected clusters in the wire order: entity
// clusters ascending by ID, then text clusters ascending by norm, with
// each cluster's variants ascending by raw form. The order is purely a
// determinism contract for the encoded bytes — folded results never
// depend on it (cluster rank is a total order).
func (pc *partialCollector) finish() []ClusterPartial {
	for i := range pc.clusters {
		slices.SortFunc(pc.clusters[i].Variants, func(a, b Variant) int { return strings.Compare(a.Raw, b.Raw) })
	}
	slices.SortFunc(pc.clusters, func(a, b ClusterPartial) int {
		aText, bText := a.Entity == catalog.None, b.Entity == catalog.None
		switch {
		case aText != bText:
			if bText {
				return -1
			}
			return 1
		case aText:
			return strings.Compare(a.Norm, b.Norm)
		default:
			return cmp.Compare(a.Entity, b.Entity)
		}
	})
	return pc.clusters
}

// MergePartials folds per-shard partial evidence into one result page,
// byte-identical to a single-node Execute over the concatenated corpus
// (it is the same fold Execute runs over its one shard).
//
// shards must be ordered by shard index (ascending table ranges); a
// shard with no matching evidence contributes an empty group list.
// shardStats carries each shard's ExecStats in the same order (entries
// may be zero-valued when a shard reported none, e.g. a WTPART v1
// payload); the merged Result.Stats sums them and adds the fold's own
// aggregate/select/explain time.
func MergePartials(shards [][]PartialGroup, shardStats []ExecStats, pageSize int, cursor string, explain bool) (*Result, error) {
	if pageSize < 0 {
		return nil, fmt.Errorf("%w: %d", ErrInvalidPageSize, pageSize)
	}
	after, err := decodeCursor(cursor)
	if err != nil {
		return nil, err
	}
	st := MergeExecStats(shardStats)
	// The signature carries no context; fold only uses one to open trace
	// spans, so a merge is simply untraced below the caller's own span.
	return fold(context.TODO(), shards, &st, pageSize, after, explain)
}

// fold is the pipeline's second half: aggregate, select, explain. The
// cluster partials fold into clusters in the serial scan order; page
// selection, cursors and totals then run on the folded clusters, and
// with explain set the winners' provenance is read off their hit lists
// in the same order, capped at MaxExplainSources with an exact Truncated
// count. Stage times add to st, which becomes the result's Stats. The
// only error is the context's.
func fold(ctx context.Context, shards [][]PartialGroup, st *ExecStats, pageSize int, after *rankKey, explain bool) (*Result, error) {
	cs, err := aggregate(ctx, shards, st, explain)
	if err != nil {
		return nil, err
	}
	sel := stage(ctx, "search.select", &st.Stage.Select)
	res, winners, eligible := selectPage(cs, pageSize, after)
	sel.end()
	st.AnswersBeforeTopK = eligible
	res.Stats = st
	if explain && len(winners) > 0 {
		defer stage(ctx, "search.explain", &st.Stage.Explain).end()
		for i, c := range winners {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			res.Answers[i].Explanation = c.explanation()
		}
	}
	return res, nil
}

// aggregate is fold's first stage. For each group key ascending (union
// across shards), each shard's cluster partials replay in shard order,
// so every cluster's score sums its evidence in exactly the serial scan
// order. The context is polled about every rowCheckInterval hits.
func aggregate(ctx context.Context, shards [][]PartialGroup, st *ExecStats, explain bool) (clusterSink, error) {
	defer stage(ctx, "search.aggregate", &st.Stage.Aggregate).end()
	cs := clusterSink{}
	sincePoll := 0
	for _, gk := range mergedGroupKeys(shards) {
		for _, groups := range shards {
			for i := range groups {
				if groups[i].Key != gk {
					continue
				}
				for ci := range groups[i].Clusters {
					cp := &groups[i].Clusters[ci]
					if sincePoll += len(cp.Hits); sincePoll >= rowCheckInterval {
						sincePoll = 0
						if err := ctx.Err(); err != nil {
							return nil, err
						}
					}
					cs.add(cp, explain)
				}
			}
		}
	}
	return cs, nil
}

// explanation reads a cluster's provenance off the hit lists folded
// into it: the first MaxExplainSources hits in fold order — the serial
// scan order — and a count of the rest.
func (c *cluster) explanation() *Explanation {
	ex := &Explanation{Sources: make([]SourceRef, 0, min(MaxExplainSources, c.support))}
	for _, cp := range c.parts {
		take := min(MaxExplainSources-len(ex.Sources), len(cp.Hits))
		for _, h := range cp.Hits[:take] {
			ex.Sources = append(ex.Sources, SourceRef{
				Table: int(h.Table), Row: int(h.Row), Col: int(h.Col), Score: h.Evidence,
			})
		}
		ex.Truncated += len(cp.Hits) - take
	}
	return ex
}

// add folds one cluster partial into its cluster: evidence summed in
// list order, variant counts merged, and — for explanations — the
// partial itself remembered in fold order.
func (cs clusterSink) add(cp *ClusterPartial, explain bool) {
	key := cp.Key()
	c := cs[key]
	if c == nil {
		c = &cluster{key: key, entity: cp.Entity, canonical: cp.Canonical}
		cs[key] = c
	}
	for _, h := range cp.Hits {
		c.score += h.Evidence
	}
	c.support += len(cp.Hits)
	for _, v := range cp.Variants {
		c.noteRawN(v.Raw, v.Count)
	}
	if explain {
		c.parts = append(c.parts, cp)
	}
}

// mergedGroupKeys returns the ascending union of every shard's group
// keys — the replay schedule's outer order.
func mergedGroupKeys(shards [][]PartialGroup) []uint32 {
	var keys []uint32
	for _, groups := range shards {
		for i := range groups {
			keys = append(keys, groups[i].Key)
		}
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}
