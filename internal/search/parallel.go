// Gathering evidence: the scan stage of the pipeline.
//
// gather turns a plan into each answer cluster's ordered hit list, one
// PartialGroup per replay group. The plan's candidate pairs are cut
// into contiguous slices — every replay-group start is a cut, and with
// parallelism above one each group is cut further for load balance —
// and a bounded worker pool scans the slices concurrently:
//
//   - When no group was cut further (always at parallelism 1), each
//     slice is a whole group and scans straight into that group's
//     partialCollector.
//   - Otherwise each slice scans into its own shardLog — appending a
//     24-byte record is the only work on the hot path, no map work at
//     all — and the logs then replay, in slice order, into
//     their group's collector: exactly the add sequence one serial scan
//     of the group would have produced.
//
// The load-bearing property is byte-identical results: scores,
// rankings, cursors and explanations must not depend on the parallelism
// level, because pagination cursors compare scores bit-exactly across
// separate executions (the same ULP discipline exec.go documents for
// pair ordering). Floating-point addition is not associative, so
// slice-local *partial sums* merged later would NOT reproduce the
// serial left fold (((a+b)+c)+d differs from (a+b)+(c+d) by an ULP).
// Logging the evidence values and replaying them in slice order does:
// every cluster's hit list comes out in serial scan order whatever the
// slicing, and fold sums each list left to right. The cost is
// O(matching rows) of query state — the rows were all visited anyway.
//
// Slice boundaries inside a group are a pure load-balancing choice —
// they never affect results. The plan is over-partitioned
// (shardsPerWorker slices per worker) and workers pull slices from a
// shared counter, so a slice with unusually large tables does not stall
// the pool. When the corpus is segmented (segment.View implements
// SegmentedCorpus), interior boundaries snap to the nearest segment
// edge within half an ideal slice, so a slice's cells resolve against
// one segment's postings where possible.
//
// (The identifiers below still call an in-process slice a shard —
// shardCuts, scanShards, shardLog; the prose says slice to keep it apart
// from the shard servers of a cluster.)
package search

import (
	"context"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// shardsPerWorker over-partitions the candidate list so the worker pool
// can rebalance when slices carry unequal row counts.
const shardsPerWorker = 4

// SegmentedCorpus is an optional Corpus extension for corpora assembled
// from ordered segments. ShardStarts returns the ascending global table
// number at which each segment begins (the first is always 0); the
// engine uses it to align slice boundaries with segment edges.
type SegmentedCorpus interface {
	Corpus
	ShardStarts() []int
}

// cuts returns the slice boundaries of a non-empty plan: every replay
// group start, plus — when parallelism is above 1 and there is something
// to split — up to parallelism*shardsPerWorker balanced interior
// boundaries. No slice spans two groups, so one scanShards call covers
// the whole plan and each slice's evidence belongs to exactly one group.
func (e *Engine) cuts(p *scanPlan) []int {
	n := len(p.pairs)
	cuts := []int{0, n}
	if e.par > 1 && n >= 2 {
		var starts []int
		if sc, ok := e.c.(SegmentedCorpus); ok {
			starts = sc.ShardStarts()
		}
		cuts = shardCuts(n, e.par*shardsPerWorker, func(i int) int { return e.tableOf(p, i) }, starts)
	}
	for _, g := range p.groups[1:] {
		cuts = append(cuts, g.start)
	}
	slices.Sort(cuts)
	return slices.Compact(cuts)
}

// shardCuts partitions n ordered candidate pairs into at most shards
// contiguous ranges, returning the ascending boundary indices
// (cuts[0]=0, cuts[len-1]=n). tableOf(i) is pair i's global table
// number. segStarts, when it lists more than one segment, holds the
// ascending global table numbers beginning each corpus segment; each
// interior cut then snaps to the nearest pair index whose owning
// segment differs from its predecessor's, if one lies within half an
// ideal shard — close enough to keep the shards balanced. (In Type
// mode the pair list is only piecewise ascending — one run per subject
// type — so a "segment transition" can occur in either direction;
// either way it marks where a shard's locality changes.) Results never
// depend on the cut positions (aggregation replays evidence exactly),
// only locality does.
func shardCuts(n, shards int, tableOf func(int) int, segStarts []int) []int {
	if shards > n {
		shards = n
	}
	if shards <= 1 {
		return []int{0, n}
	}
	edges := segEdgeIndices(n, tableOf, segStarts)
	window := n / (2 * shards)
	cuts := make([]int, 1, shards+1)
	for s := 1; s < shards; s++ {
		cut := s * n / shards
		if i := nearestEdge(edges, cut); i >= 0 && abs(edges[i]-cut) <= window {
			cut = edges[i]
		}
		if cut > cuts[len(cuts)-1] && cut < n {
			cuts = append(cuts, cut)
		}
	}
	return append(cuts, n)
}

// segEdgeIndices returns the ascending pair indices at which the owning
// segment changes, or nil when the corpus has fewer than two segments.
func segEdgeIndices(n int, tableOf func(int) int, segStarts []int) []int {
	if len(segStarts) < 2 {
		return nil
	}
	segOf := func(table int) int {
		// Index of the last start <= table.
		return sort.SearchInts(segStarts, table+1) - 1
	}
	var edges []int
	prev := segOf(tableOf(0))
	for i := 1; i < n; i++ {
		if cur := segOf(tableOf(i)); cur != prev {
			edges = append(edges, i)
			prev = cur
		}
	}
	return edges
}

// nearestEdge returns the index into edges of the edge closest to cut,
// or -1 when edges is empty.
func nearestEdge(edges []int, cut int) int {
	if len(edges) == 0 {
		return -1
	}
	i := sort.SearchInts(edges, cut)
	if i == len(edges) {
		return i - 1
	}
	if i > 0 && cut-edges[i-1] < edges[i]-cut {
		return i - 1
	}
	return i
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// scanShards scans each slice [cuts[i], cuts[i+1]) into sinks[i] on a
// pool of at most e.par workers — on the calling goroutine when that is
// one worker, so a serial scan starts no goroutine. Workers pull slice
// indices from a shared counter; which worker scans which slice never
// matters because sinks are per-slice and consumed in index order. scs
// is parallel to sinks: each slice's counters accumulate contention-free
// and the caller sums them (integer addition — the totals are
// independent of slice layout). The first scan error (in practice: the
// context's) is returned after all workers stop.
func (e *Engine) scanShards(ctx context.Context, p *scanPlan, cuts []int, sinks []evidenceSink, scs []scanCounters) error {
	nShards := len(cuts) - 1
	workers := min(e.par, nShards)
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		scanErr error
	)
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= nShards {
				return
			}
			if err := e.scanRange(ctx, p, cuts[i], cuts[i+1], sinks[i], &scs[i]); err != nil {
				errOnce.Do(func() { scanErr = err })
				return
			}
		}
	}
	if workers == 1 {
		work()
		return scanErr
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
	return scanErr
}

// gather is the pipeline's scan stage: it scans the plan's slices and
// returns each replay group's cluster hit lists in serial scan order
// (groups without hits omitted), hit tables shifted by tableOffset into
// the corpus-global numbering. Scan counters, the stage time and the
// parallelism actually used go to st.
func (e *Engine) gather(ctx context.Context, p *scanPlan, tableOffset int, st *ExecStats) ([]PartialGroup, error) {
	defer stage(ctx, "search.scan", &st.Stage.Scan)()
	if len(p.pairs) == 0 {
		return nil, nil
	}
	cuts := e.cuts(p)
	collectors := make([]*partialCollector, len(p.groups))
	for g := range collectors {
		collectors[g] = newPartialCollector(e, p, tableOffset)
	}
	// Slices outnumber groups only when some group was cut further; then
	// every slice logs, and the logs replay into the collectors below.
	sinks := make([]evidenceSink, len(cuts)-1)
	var logs []*shardLog
	if len(sinks) > len(collectors) {
		logs = make([]*shardLog, len(sinks))
	}
	for i := range sinks {
		if logs != nil {
			logs[i] = &shardLog{}
			sinks[i] = logs[i]
		} else {
			sinks[i] = collectors[i]
		}
	}
	scs := make([]scanCounters, len(sinks))
	st.Parallelism = min(e.par, len(sinks))
	err := e.scanShards(ctx, p, cuts, sinks, scs)
	for i := range scs {
		st.add(&scs[i])
	}
	if err != nil {
		return nil, err
	}
	g := 0
	for i, lg := range logs {
		for g+1 < len(p.groups) && p.groups[g+1].start <= cuts[i] {
			g++
		}
		if err := lg.replay(ctx, collectors[g]); err != nil {
			return nil, err
		}
	}
	var groups []PartialGroup
	for g, pc := range collectors {
		if clusters := pc.finish(); len(clusters) > 0 {
			groups = append(groups, PartialGroup{Key: p.groups[g].key, Clusters: clusters})
		}
	}
	return groups, nil
}

// logChunkSize is the records per log chunk: large enough to amortize
// the chunk allocation, small enough that half-empty tail chunks waste
// little.
const logChunkSize = 512

// hitChunk is one fixed-size block of logged hits. Chunks are allocated
// exactly once and never copied (unlike an appended slice, which
// re-copies on every doubling), and they contain no pointers, so the
// logged megabytes are invisible to the garbage collector's scan phase.
type hitChunk struct {
	n    int
	recs [logChunkSize]hit
}

// shardLog is the per-slice scan sink: the slice's hit stream in scan
// order, chunked. Appending a packed record is the only work on the
// scan's hot path — cluster identities and raw texts are derived when
// the log replays.
type shardLog struct {
	chunks []*hitChunk
}

func (sl *shardLog) add(h hit) {
	var c *hitChunk
	if n := len(sl.chunks); n == 0 || sl.chunks[n-1].n == logChunkSize {
		c = &hitChunk{}
		sl.chunks = append(sl.chunks, c)
	} else {
		c = sl.chunks[n-1]
	}
	c.recs[c.n] = h
	c.n++
}

// replay feeds the logged hits to sink in scan order. Cancellation is
// polled per chunk, so the replay honors the same latency bound as the
// row loops.
func (sl *shardLog) replay(ctx context.Context, sink evidenceSink) error {
	for _, ch := range sl.chunks {
		if err := ctx.Err(); err != nil {
			return err
		}
		for i := 0; i < ch.n; i++ {
			sink.add(ch.recs[i])
		}
	}
	return nil
}
