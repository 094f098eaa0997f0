package server

import (
	webtable "repro"
	"repro/internal/obs"
)

// ExecStatsRecorder aggregates per-query execution stats into the
// registry's fleet-level search_* families, so dashboards and the
// per-query debug block report from the same source of truth. One
// recorder per process (single node, shard or router); Record is
// goroutine-safe because the underlying registry instruments are.
type ExecStatsRecorder struct {
	rows           *obs.Counter
	matched, empty *obs.Counter
	// stages is the stage-duration histogram cell of each pipeline stage,
	// in StageNanos field order.
	stages [6]*obs.Histogram
}

// NewExecStatsRecorder registers the search_* metric families on reg
// and returns a recorder feeding them; every cell is resolved here, once.
func NewExecStatsRecorder(reg *obs.Registry) *ExecStatsRecorder {
	pairs := reg.Counter("search_candidate_pairs_total",
		"Candidate column pairs visited by search scans, by outcome (matched = contributed evidence).",
		"outcome")
	stageDur := reg.Histogram("search_stage_duration_seconds",
		"Wall-clock time spent per search pipeline stage.",
		obs.LatencyBuckets, "stage")
	r := &ExecStatsRecorder{
		rows: reg.Counter("search_rows_scanned_total",
			"Rows walked by search candidate scans (per-pair work, not distinct rows).").With(),
		matched: pairs.With("matched"),
		empty:   pairs.With("empty"),
	}
	for i, name := range []string{"validate", "plan", "scan", "aggregate", "select", "explain"} {
		r.stages[i] = stageDur.With(name)
	}
	return r
}

// Record folds one execution's stats into the fleet counters. Nil-safe
// on both the recorder and the stats (a no-op either way).
func (r *ExecStatsRecorder) Record(st *webtable.SearchExecStats) {
	if r == nil || st == nil {
		return
	}
	r.rows.Add(uint64(st.RowsScanned))
	r.matched.Add(uint64(st.PairsMatched))
	r.empty.Add(uint64(st.CandidatePairs - st.PairsMatched))
	sn := &st.Stage
	for i, ns := range [6]int64{sn.Validate, sn.Plan, sn.Scan, sn.Aggregate, sn.Select, sn.Explain} {
		r.stages[i].Observe(float64(ns) / 1e9)
	}
}
