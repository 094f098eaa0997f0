package segment

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/search"
)

// BenchmarkViewPlan executes one request per mode over a seven-segment
// view (384/256/64/32/8/4/2 tables, a tombstone in every tenth table of
// the first segment) whose probe matches nothing, and reports the plan
// stage on its own (plan-ns/op, from ExecStats) beside the whole
// execution: what it costs to assemble a view's candidate schedule from
// its segments' posting lists.
func BenchmarkViewPlan(b *testing.B) {
	f := newFixture(b)
	rng := rand.New(rand.NewSource(14))
	store, err := New(f.cat, Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	var dead []string
	for si, n := range []int{384, 256, 64, 32, 8, 4, 2} {
		tables, anns := f.batch(rng, n)
		if si == 0 {
			for i := 0; i < n; i += 10 {
				dead = append(dead, tables[i].ID)
			}
		}
		if _, err := store.Add(context.Background(), tables, anns); err != nil {
			b.Fatal(err)
		}
	}
	view, err := store.Remove(dead)
	if err != nil {
		b.Fatal(err)
	}
	eng := search.NewEngineOver(view)
	q := f.requests()[0].Query
	q.E2, q.E2Text = -1, "no such person"
	for _, mode := range []search.Mode{search.Baseline, search.Type, search.TypeRel} {
		b.Run(mode.String(), func(b *testing.B) {
			req := search.Request{Query: q, Mode: mode, PageSize: 10}
			var planNanos int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eng.Execute(context.Background(), req)
				if err != nil {
					b.Fatal(err)
				}
				planNanos += res.Stats.Stage.Plan
			}
			b.ReportMetric(float64(planNanos)/float64(b.N), "plan-ns/op")
		})
	}
}
