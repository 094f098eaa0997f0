package search

import (
	"context"
	"slices"
)

// gather is the pipeline's scan stage, the loop of Figures 3 and 4: it
// scans each replay group of the plan, in order and on the calling
// goroutine, into that group's collector, cuts the collectors' hit logs
// into per-cluster hit lists and returns each group's clusters in
// serial scan order (groups without hits omitted), hit tables shifted
// by tableOffset into the corpus-global numbering. Scan counters and the
// stage time go to st.
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
	logged, clusters := 0, 0
	for g := range p.groups {
		end := len(p.pairs)
		if g+1 < len(p.groups) {
			end = p.groups[g+1].start
		}
		pc := a.collector(g, e, tableOffset)
		if err := e.scanRange(ctx, p, p.groups[g].start, end, pc, st); err != nil {
			return nil, err
		}
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
	for g, pg := range p.groups {
		pc := a.collectors[g]
		if err := pc.cut(ctx, hits[:len(pc.log)], a.next); err != nil {
			return nil, err
		}
		hits = hits[len(pc.log):]
		if clusters := pc.finish(); len(clusters) > 0 {
			if own {
				clusters = slices.Clone(clusters)
			}
			groups = append(groups, PartialGroup{Key: pg.key, Clusters: clusters})
		}
	}
	return groups, nil
}
