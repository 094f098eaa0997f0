package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/table"
)

// countdownCtx reports Canceled from its (after+1)-th Err() poll on — a
// deterministic stand-in for a client going away mid-annotation.
type countdownCtx struct {
	context.Context
	polls, after int
}

func (c *countdownCtx) Err() error {
	c.polls++
	if c.polls > c.after {
		return context.Canceled
	}
	return nil
}

// TestCandidateGenerationObservesCancellation: candidate generation is
// the stage that scales with the row count, so a context cancelled before
// or in the middle of a column must stop the probing at the next row and
// surface the all-na annotation with the context's error.
func TestCandidateGenerationObservesCancellation(t *testing.T) {
	w := buildFigure1World(t)
	a := newTestAnnotator(t, w)
	tab := figure1Table() // 3 rows × 2 annotatable columns: 6 probes
	methods := []struct {
		name string
		run  func(context.Context, *table.Table) (*Annotation, error)
	}{
		{"collective", a.AnnotateCollectiveContext},
		{"simple", a.AnnotateSimpleContext},
	}
	for _, m := range methods {
		// after=0: cancelled on entry. after=2: the entry check and row 0
		// pass, row 1 of column 0 sees the cancellation. after=5: column 0
		// is done, column 1 is cut at its second row.
		for _, after := range []int{0, 2, 5} {
			ctx := &countdownCtx{Context: context.Background(), after: after}
			ann, err := m.run(ctx, tab)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s after=%d: err = %v, want context.Canceled", m.name, after, err)
			}
			if ctx.polls != after+1 {
				t.Errorf("%s after=%d: %d polls — work went on after the cancellation was observed", m.name, after, ctx.polls)
			}
			if !reflect.DeepEqual(ann, newAnnotation(tab)) {
				t.Errorf("%s after=%d: annotation is not the all-na one shaped like the table: %+v", m.name, after, ann)
			}
		}
		// A context that never fires changes nothing.
		ctx := &countdownCtx{Context: context.Background(), after: 1 << 30}
		if _, err := m.run(ctx, tab); err != nil {
			t.Errorf("%s: err = %v on a live context", m.name, err)
		}
		if ctx.polls < 1+tab.Rows()*tab.Cols() {
			t.Errorf("%s: %d polls for %d probes — some row was probed without a poll", m.name, ctx.polls, tab.Rows()*tab.Cols())
		}
	}
}

// TestArenaReleasedOnceOnEveryPath: an annotation cancelled at any of its
// poll points, or run to the end, gives back exactly the one arena it
// took — none is leaked and none is parked twice.
func TestArenaReleasedOnceOnEveryPath(t *testing.T) {
	w := buildFigure1World(t)
	a := newTestAnnotator(t, w)
	tab := figure1Table()
	for len(arenas.free) > 0 {
		<-arenas.free
	}
	a.AnnotateCollective(tab)
	for _, run := range []func(context.Context, *table.Table) (*Annotation, error){a.AnnotateCollectiveContext, a.AnnotateSimpleContext} {
		for after := 0; ; after++ {
			ctx := &countdownCtx{Context: context.Background(), after: after}
			_, err := run(ctx, tab)
			if n := len(arenas.free); n != 1 {
				t.Fatalf("cancelled at poll %d: %d arenas parked, want 1", after, n)
			}
			if err == nil {
				break
			}
			if after > 1000 {
				t.Fatal("annotation never completes")
			}
		}
	}
}
