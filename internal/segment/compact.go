package segment

import (
	"context"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/searchidx"
	"repro/internal/table"
)

// Compaction metrics live on the process-global obs.Default() registry:
// a Store has no serving surface of its own, and every server's
// /metrics handler merges the Default registry in. Registered lazily on
// the first Compact call so stores that never compact never register.
var (
	compactMetricsOnce sync.Once
	compactRuns        *obs.Counter
	compactSteps       *obs.CounterVec
	compactDur         *obs.Histogram
	compactSegsMerged  *obs.Counter
	compactSegsDropped *obs.Counter
	compactTables      *obs.Counter
)

func compactMetricsInit() {
	compactMetricsOnce.Do(func() {
		reg := obs.Default()
		compactRuns = reg.Counter("segment_compaction_runs_total",
			"Compaction passes run (each drains to a stable manifest).").With()
		compactSteps = reg.Counter("segment_compaction_steps_total",
			"Individual compaction steps applied, by kind.", "step")
		compactDur = reg.Histogram("segment_compaction_seconds",
			"Duration of one full compaction pass.", obs.LatencyBuckets).With()
		compactSegsMerged = reg.Counter("segment_compaction_segments_merged_total",
			"Segments consumed by merge and rewrite steps.").With()
		compactSegsDropped = reg.Counter("segment_compaction_segments_dropped_total",
			"Fully-dead segments dropped without a rebuild.").With()
		compactTables = reg.Counter("segment_compaction_tables_total",
			"Live tables rewritten into merged segments.").With()
	})
}

// CompactionPolicy tunes the size-tiered compactor. Segments are
// bucketed into geometric tiers by live-table count (tier 0 holds up to
// TierBase tables, tier 1 up to TierBase², ...); a run of MergeFactor or
// more adjacent same-tier segments is merged into one. Only adjacent
// runs ever merge — that is what preserves global table order, and with
// it the byte-identical-to-rebuild search guarantee.
type CompactionPolicy struct {
	// MergeFactor is how many adjacent same-tier segments trigger a
	// merge (default 4, minimum 2).
	MergeFactor int
	// TierBase is the live-table-count ratio between tiers (default 8,
	// minimum 2).
	TierBase int
	// MaxDeadFraction rewrites a segment on its own once more than this
	// fraction of its tables are tombstoned (default 0.5). Set >= 1 to
	// only reclaim tombstones during ordinary merges.
	MaxDeadFraction float64
}

// DefaultCompactionPolicy returns the standard knob settings.
func DefaultCompactionPolicy() CompactionPolicy {
	return CompactionPolicy{MergeFactor: 4, TierBase: 8, MaxDeadFraction: 0.5}
}

// withDefaults fills zero-valued knobs.
func (p CompactionPolicy) withDefaults() CompactionPolicy {
	d := DefaultCompactionPolicy()
	if p.MergeFactor == 0 {
		p.MergeFactor = d.MergeFactor
	}
	if p.MergeFactor < 2 {
		p.MergeFactor = 2
	}
	if p.TierBase < 2 {
		p.TierBase = d.TierBase
	}
	if p.MaxDeadFraction == 0 {
		p.MaxDeadFraction = d.MaxDeadFraction
	}
	return p
}

// tier buckets a live-table count: 1..TierBase → 0, ..TierBase² → 1, ...
func (p CompactionPolicy) tier(live int) int {
	t, cap := 0, p.TierBase
	for live > cap {
		cap *= p.TierBase
		t++
	}
	return t
}

// Compact runs compaction passes until the manifest is stable: drops
// fully-dead segments, merges qualifying adjacent same-tier runs, and
// rewrites tombstone-heavy segments. Safe to call concurrently with
// mutations (it serializes with them) and with searches (which keep
// their views). Returns the resulting view.
func (s *Store) Compact(ctx context.Context) (*View, error) {
	compactMetricsInit()
	start := time.Now()
	defer func() { compactDur.Observe(time.Since(start).Seconds()) }()
	compactRuns.Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		changed, err := s.compactOnceLocked(ctx)
		if err != nil {
			return nil, err
		}
		if !changed {
			return s.view.Load(), nil
		}
	}
}

// compactOnceLocked applies the single highest-priority compaction step,
// reporting whether the manifest changed. Priority: reclaim fully-dead
// segments (cheap, no rebuild), then merge the lowest-tier qualifying
// adjacent run, then rewrite the first tombstone-heavy segment.
func (s *Store) compactOnceLocked(ctx context.Context) (bool, error) {
	v := s.view.Load()

	// 1. Fully-dead segments: drop without rebuilding anything.
	var fullyDead []int
	liveCount := make([]int, len(v.segs))
	for i, seg := range v.segs {
		liveCount[i] = seg.Len() - v.dead[i]
		if liveCount[i] == 0 {
			fullyDead = append(fullyDead, i)
		}
	}
	if len(fullyDead) > 0 {
		s.view.Store(v.withDroppedSegments(fullyDead))
		compactSteps.With("drop").Inc()
		compactSegsDropped.Add(uint64(len(fullyDead)))
		return true, nil
	}

	// 2. Lowest-tier run of >= MergeFactor adjacent same-tier segments.
	if lo, hi, ok := s.mergeRun(liveCount); ok {
		if err := s.mergeLocked(ctx, v, lo, hi); err != nil {
			return false, err
		}
		compactSteps.With("merge").Inc()
		return true, nil
	}

	// 3. Tombstone-heavy segment: rewrite alone to reclaim dead tables.
	for i, seg := range v.segs {
		nDead := v.dead[i]
		if nDead > 0 && float64(nDead) > s.policy.MaxDeadFraction*float64(seg.Len()) {
			if err := s.mergeLocked(ctx, v, i, i); err != nil {
				return false, err
			}
			compactSteps.With("rewrite").Inc()
			return true, nil
		}
	}
	return false, nil
}

// mergeRun finds the leftmost qualifying adjacent run in the lowest
// qualifying tier.
func (s *Store) mergeRun(liveCount []int) (lo, hi int, ok bool) {
	bestTier := -1
	for i := 0; i < len(liveCount); {
		t := s.policy.tier(liveCount[i])
		j := i
		for j+1 < len(liveCount) && s.policy.tier(liveCount[j+1]) == t {
			j++
		}
		if j-i+1 >= s.policy.MergeFactor && (bestTier == -1 || t < bestTier) {
			bestTier, lo, hi = t, i, j
		}
		i = j + 1
	}
	return lo, hi, bestTier >= 0
}

// mergeLocked rebuilds segments [lo, hi] into one segment over their
// surviving tables, in order, and swaps the manifest. The survivors are
// materialised for the build and not kept: the merged segment copies
// what it holds of them.
func (s *Store) mergeLocked(ctx context.Context, v *View, lo, hi int) error {
	var tables []*table.Table
	var anns []*core.Annotation
	for i := lo; i <= hi; i++ {
		ix := v.segs[i].ix
		for local := 0; local < ix.Len(); local++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if v.glob[i][local] < 0 {
				continue
			}
			tables = append(tables, ix.Table(local))
			anns = append(anns, ix.Annotation(local))
		}
	}
	ix, err := searchidx.BuildContext(ctx, s.cat, tables, anns)
	if err != nil {
		return err
	}
	seg := &Segment{id: s.nextID, ix: ix}
	s.nextID++
	s.view.Store(v.withReplacedRun(lo, hi, seg))
	compactSegsMerged.Add(uint64(hi - lo + 1))
	compactTables.Add(uint64(len(tables)))
	return nil
}

// kickCompactorLocked schedules a background compaction pass after a
// mutation. The compactor goroutine starts lazily on the first kick, so
// stores that never mutate never spawn it.
func (s *Store) kickCompactorLocked() {
	if !s.auto {
		return
	}
	select {
	case <-s.stop: // closed store: no new background work
		return
	default:
	}
	s.bgOnce.Do(func() {
		s.wg.Add(1)
		go s.compactLoop()
	})
	select {
	case s.kick <- struct{}{}:
	default: // a pass is already pending; it will see this mutation's view
	}
}

func (s *Store) compactLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case <-s.kick:
			// bgCtx is canceled by Close, so a long merge aborts at the
			// next table boundary; an aborted pass simply leaves the
			// manifest for the next kick.
			_, _ = s.Compact(s.bgCtx)
		}
	}
}
