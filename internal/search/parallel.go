// Gathering evidence: the scan stage of the pipeline.
//
// gather turns a plan into each answer cluster's ordered hit list, one
// PartialGroup per replay group. The plan's candidate pairs are cut
// into contiguous slices — every replay-group start is a cut, and with
// parallelism above one, on a plan of at least minParallelRows rows, the
// list is cut further for load balance — and a bounded worker pool scans
// the slices concurrently, each into its own partialCollector: a slice
// resolves its own cluster identities and logs its own hits, exactly as
// a shard of a cluster does. Afterwards every collector's log is cut
// into per-cluster lists (partialCollector.cut) and each group's later
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

// minParallelRows is the size of plan, in rows its scan visits, below
// which the scan stays on the calling goroutine whatever the engine's
// parallelism: cutting the plan, a collector per slice, waking the
// workers and appending their lists cost more than a short scan takes.
// Read off BenchmarkSearchParallel on the 2-core sandbox, par=2 against
// par=1. Where one row in 64 is a hit and the rest fall to an entity
// compare, as in a real corpus (the repository benchmark's plans are 3 %
// hits), two workers lose by 30 % at 16 000 rows (47–80 µs serial), by
// 50 % at 64 000, by 30 % at 256 000 (1.0 ms serial) and win by 14 % at a
// million (4.4 ms): the crossover lies between the last two, and the
// constant is put there. Where every row is a hit the collectors do the
// work and the crossover comes earlier — even at 8 000 rows, 5–10 %
// ahead at 32 000 — but such a plan is a dozen milliseconds either way,
// and at 60 000 rows (12 000 answers, each seen by every slice) two
// workers take twice as long as one.
const minParallelRows = 1 << 19

// shardsPerWorker over-partitions the candidate list so the worker pool
// can rebalance when slices carry unequal row counts.
const shardsPerWorker = 4

// cutPlan returns the slice boundaries of a non-empty plan scanned by par
// workers: every replay group start, plus — when par is above 1 — an
// even split into par*shardsPerWorker ranges. No slice spans two groups,
// so one scanShards call covers the whole plan and each slice's evidence
// belongs to exactly one group.
func (a *arena) cutPlan(par int) []int {
	p := &a.plan
	shards := 1
	if par > 1 {
		shards = par * shardsPerWorker
	}
	cuts := shardCuts(a.cuts[:0], len(p.pairs), shards)
	for _, g := range p.groups[1:] {
		cuts = append(cuts, g.start)
	}
	slices.Sort(cuts)
	a.cuts = slices.Compact(cuts)
	return a.cuts
}

// shardCuts splits n >= 1 ordered candidate pairs into min(shards, n)
// contiguous ranges of near-equal length, appending the ascending
// boundary indices (the first 0, the last n) to cuts.
func shardCuts(cuts []int, n, shards int) []int {
	shards = min(shards, n)
	for s := 0; s < shards; s++ {
		cuts = append(cuts, s*n/shards)
	}
	return append(cuts, n)
}

// scanShards scans each slice [cuts[i], cuts[i+1]) into sinks[i] on a
// pool of at most par workers — on the calling goroutine when that is
// one worker, so a serial scan starts no goroutine. Workers pull slice
// indices from a shared counter; which worker scans which slice never
// matters because sinks are per-slice and consumed in index order. scs
// is parallel to sinks: each slice's counters accumulate contention-free
// and the caller sums them (integer addition — the totals are
// independent of slice layout). The first scan error (in practice: the
// context's) is returned after all workers stop.
func (e *Engine) scanShards(ctx context.Context, p *scanPlan, par int, cuts []int, sinks []*partialCollector, scs []scanCounters) error {
	nShards := len(cuts) - 1
	if par == 1 {
		for i := 0; i < nShards; i++ {
			if err := e.scanRange(ctx, p, cuts[i], cuts[i+1], sinks[i], &scs[i]); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		scanErr error
	)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
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
		}()
	}
	wg.Wait()
	return scanErr
}

// planRows is the number of rows a scan of the plan visits.
func (e *Engine) planRows(p *scanPlan) int {
	rows := 0
	for i := range p.pairs {
		c := &p.pairs[i]
		texts, _ := e.segs[c.seg].ix.Column(int(c.local), int(c.obj))
		rows += len(texts)
	}
	return rows
}

// gather is the pipeline's scan stage: it scans the plan's slices, each
// into its own collector's hit log, cuts the logs into per-cluster hit
// lists and returns each replay group's clusters in serial scan order
// (groups without hits omitted), hit tables shifted by tableOffset into
// the corpus-global numbering. Scan counters, the stage time and the
// parallelism actually used go to st.
//
// With own set, what is returned belongs to the caller: every hit list
// is cut out of one allocation of exactly the logged hits, and the
// groups and their cluster slices are copies. Otherwise everything
// returned is the arena's and dies with it.
func (e *Engine) gather(ctx context.Context, p *scanPlan, tableOffset int, st *ExecStats, a *arena, own bool) ([]PartialGroup, error) {
	defer stage(ctx, "search.scan", &st.Stage.Scan).end()
	if len(p.pairs) == 0 {
		return nil, nil
	}
	// The engine's parallelism is an upper bound: a plan too small to pay
	// for its goroutines is scanned on this one.
	par := e.par
	if par > 1 && e.planRows(p) < e.serialBelow {
		par = 1
	}
	cuts := a.cutPlan(par)
	for i := 0; i < len(cuts)-1; i++ {
		a.collector(i, e, tableOffset)
	}
	sinks := a.collectors[:len(cuts)-1]
	a.counters = append(a.counters[:0], make([]scanCounters, len(sinks))...)
	par = min(par, len(sinks))
	st.Parallelism = par
	err := e.scanShards(ctx, p, par, cuts, sinks, a.counters)
	for i := range a.counters {
		st.add(&a.counters[i])
	}
	if err != nil {
		return nil, err
	}

	logged, clusters := 0, 0
	for _, pc := range sinks {
		logged += len(pc.log)
		clusters = max(clusters, len(pc.clusters))
	}
	var hits []PartialHit
	var groups []PartialGroup
	if own {
		hits = make([]PartialHit, logged)
	} else {
		a.hits = slices.Grow(a.hits[:0], logged)
		hits, groups = a.hits[:logged], a.shards[0][:0]
	}
	a.next = slices.Grow(a.next[:0], clusters+1)
	for _, pc := range sinks {
		if err := pc.cut(ctx, hits[:len(pc.log)], a.next); err != nil {
			return nil, err
		}
		hits = hits[len(pc.log):]
	}

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
			if own {
				clusters = slices.Clone(clusters)
			}
			groups = append(groups, PartialGroup{Key: pg.key, Clusters: clusters})
		}
	}
	return groups, nil
}
