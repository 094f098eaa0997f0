// Execution statistics: what one query cost, measured at every stage of
// the pipeline without touching what it returns.
//
// The counters are pure functions of the corpus and the request —
// candidate pairs, rows, segments are the same on every run, and a
// routed query's merged counters are the exact sums of its shards'
// (shards own disjoint table ranges, and integer addition is
// order-independent, so summing per-shard counters carries no analogue
// of the float-fold hazard). The stage timings are wall clock and
// therefore not deterministic; tests compare counters and ignore
// timings. Nothing here may reorder a scan or a fold — the
// byte-identical-results contract is asserted over executions that all
// collect stats.
package search

// StageNanos is the wall-clock nanoseconds one execution spent in each
// pipeline stage; each is also one trace span (search.<stage>).
// Validate, Plan and Scan are the gather half — Scan covers turning the
// plan into per-cluster hit lists: the candidate scan into per-group
// collectors and the counting pass over their logs. Aggregate, Select
// and Explain are the fold half. Execute fills all of them;
// ExecutePartial only the gather half (a shard does not fold); in a
// merged result the gather half is the sum across shards (total cluster
// work, not critical-path time) and the fold half is the merge's own.
type StageNanos struct {
	Validate  int64
	Plan      int64
	Scan      int64
	Aggregate int64
	Select    int64
	Explain   int64
}

// ExecStats describes what one query execution cost. Execute,
// ExecutePartial and MergePartials populate it unconditionally — the
// counters are a handful of integer adds per candidate pair, far below
// the cost of scanning the pair — and it rides alongside the result
// (Result.Stats) without ever influencing answers, scores, cursors or
// explanations.
type ExecStats struct {
	// CandidatePairs is how many candidate column pairs the scan
	// visited; PairsMatched counts those that contributed at least one
	// hit (the rest were pure wasted scan work — the signal a
	// statistics-driven planner would prune on).
	CandidatePairs int64
	PairsMatched   int64
	// RowsScanned is the total rows walked across all candidate pairs
	// (a pair visiting the same physical row as another pair counts it
	// again: this measures work done, not distinct rows). Every query
	// scans its plan exactly once — explanations are read off the
	// gathered hits — so a merged result's RowsScanned is exactly the
	// sum of its shards'.
	RowsScanned int64
	// SegmentsVisited and TombstonesSkipped describe the corpus view
	// the scan ran over: its live index segments and the removed tables
	// whose postings were skipped. A monolithic index counts as one
	// segment.
	SegmentsVisited   int
	TombstonesSkipped int
	// AnswersBeforeTopK is how many answer clusters were eligible for
	// the page (after the cursor filter, before top-k truncation).
	AnswersBeforeTopK int
	// Parallelism is always 1: a query is scanned on the goroutine that
	// executes it. The field remains because the WTPART stats block and
	// the debug JSON both carry it.
	Parallelism int
	// Stage is the per-stage wall-clock time.
	Stage StageNanos
}

// newStats starts one execution's stats with the segment shape of the
// corpus the engine scans: its segment and tombstone counts.
func (e *Engine) newStats() *ExecStats {
	return &ExecStats{Parallelism: 1, SegmentsVisited: len(e.segs), TombstonesSkipped: e.c.Tombstones()}
}

// MergeExecStats folds per-shard execution stats into the cluster-wide
// view a routed query reports: counters and shard-side stage times sum
// (shards own disjoint table ranges, so sums are exact totals, not
// estimates), Parallelism is 1 as everywhere, and the fold stages
// (Aggregate, Select, Explain) are left for the merge's own fold to add
// to.
func MergeExecStats(shards []ExecStats) ExecStats {
	out := ExecStats{Parallelism: 1}
	for i := range shards {
		s := &shards[i]
		out.CandidatePairs += s.CandidatePairs
		out.PairsMatched += s.PairsMatched
		out.RowsScanned += s.RowsScanned
		out.SegmentsVisited += s.SegmentsVisited
		out.TombstonesSkipped += s.TombstonesSkipped
		out.Stage.Validate += s.Stage.Validate
		out.Stage.Plan += s.Stage.Plan
		out.Stage.Scan += s.Stage.Scan
		out.Stage.Aggregate += s.Stage.Aggregate
		out.Stage.Select += s.Stage.Select
		out.Stage.Explain += s.Stage.Explain
	}
	return out
}
