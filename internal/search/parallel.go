// Gathering evidence: the scan stage of the pipeline.
//
// gather turns a plan into each answer cluster's ordered hit list, one
// PartialGroup per replay group. The plan's candidate pairs are cut
// into contiguous slices — every replay-group start is a cut, and with
// parallelism above one the list is cut further for load balance — and
// a bounded worker pool scans the slices concurrently, each into its
// own partialCollector: a slice resolves its own cluster identities,
// exactly as a shard of a cluster does. Afterwards each group's later
// slices are appended onto its first, cluster by cluster in slice order
// (partialCollector.absorb). At parallelism 1 every slice is a whole
// group and nothing is appended.
//
// The load-bearing property is byte-identical results: scores,
// rankings, cursors and explanations must not depend on the parallelism
// level, because pagination cursors compare scores bit-exactly across
// separate executions (the same ULP discipline exec.go documents for
// pair ordering). Floating-point addition is not associative, so
// slice-local *partial sums* merged later would NOT reproduce the
// serial left fold (((a+b)+c)+d differs from (a+b)+(c+d) by an ULP).
// Concatenating the slices' hit lists per cluster does: a slice is a
// contiguous run of the serial scan, so slice after slice every
// cluster's list comes out in serial scan order whatever the slicing,
// and fold sums each list left to right. The cost is O(matching rows)
// of query state — the rows were all visited anyway.
//
// Slice boundaries inside a group are a pure load-balancing choice —
// they never affect results. The plan is over-partitioned
// (shardsPerWorker slices per worker) and workers pull slices from a
// shared counter, so a slice with unusually large tables does not stall
// the pool.
//
// (The identifiers below still call an in-process slice a shard —
// shardCuts, scanShards; the prose says slice to keep it apart from the
// shard servers of a cluster.)
package search

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
)

// shardsPerWorker over-partitions the candidate list so the worker pool
// can rebalance when slices carry unequal row counts.
const shardsPerWorker = 4

// cuts returns the slice boundaries of a non-empty plan: every replay
// group start, plus — when parallelism is above 1 — an even split into
// parallelism*shardsPerWorker ranges. No slice spans two groups, so one
// scanShards call covers the whole plan and each slice's evidence
// belongs to exactly one group.
func (e *Engine) cuts(p *scanPlan) []int {
	shards := 1
	if e.par > 1 {
		shards = e.par * shardsPerWorker
	}
	cuts := shardCuts(len(p.pairs), shards)
	for _, g := range p.groups[1:] {
		cuts = append(cuts, g.start)
	}
	slices.Sort(cuts)
	return slices.Compact(cuts)
}

// shardCuts splits n >= 1 ordered candidate pairs into min(shards, n)
// contiguous ranges of near-equal length, returning the ascending
// boundary indices (cuts[0]=0, cuts[len-1]=n).
func shardCuts(n, shards int) []int {
	shards = min(shards, n)
	cuts := make([]int, 0, shards+1)
	for s := 0; s < shards; s++ {
		cuts = append(cuts, s*n/shards)
	}
	return append(cuts, n)
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
func (e *Engine) scanShards(ctx context.Context, p *scanPlan, cuts []int, sinks []*partialCollector, scs []scanCounters) error {
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
	sinks := make([]*partialCollector, len(cuts)-1)
	for i := range sinks {
		sinks[i] = newPartialCollector(e, tableOffset)
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
	var groups []PartialGroup
	i := 0
	for g, pg := range p.groups {
		end := len(p.pairs)
		if g+1 < len(p.groups) {
			end = p.groups[g+1].start
		}
		first := sinks[i]
		for i++; i < len(sinks) && cuts[i] < end; i++ {
			if err := first.absorb(ctx, sinks[i]); err != nil {
				return nil, err
			}
		}
		if clusters := first.finish(); len(clusters) > 0 {
			groups = append(groups, PartialGroup{Key: pg.key, Clusters: clusters})
		}
	}
	return groups, nil
}
