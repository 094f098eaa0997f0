package webtable_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	webtable "repro"
)

// tripCtx cancels itself on the trip-th call of its Err method (never
// while trip is 0). On one worker a batch polls its context in the same
// order every run, so the cancellation lands at the same point each time.
type tripCtx struct {
	context.Context
	cancel      context.CancelFunc
	calls, trip atomic.Int64
}

func newTripCtx(trip int64) *tripCtx {
	ctx, cancel := context.WithCancel(context.Background())
	c := &tripCtx{Context: ctx, cancel: cancel}
	c.trip.Store(trip)
	return c
}

func (c *tripCtx) Err() error {
	if c.calls.Add(1) == c.trip.Load() {
		c.cancel()
	}
	return c.Context.Err()
}

// cancelMidBatch runs batch to completion, counting its context polls —
// every item must have its result — then again under a context that cancels at half that count. The second
// run must return context.Canceled, keep the results that finished —
// each the same as the first run's — leave some items unfinished, and
// end with no more goroutines than it started with.
func cancelMidBatch[T comparable](t *testing.T, batch func(context.Context) ([]T, error), same func(a, b T) bool) {
	t.Helper()
	count := newTripCtx(0)
	want, err := batch(count)
	if err != nil {
		t.Fatalf("uncancelled batch: %v", err)
	}
	var zero T
	if i := slices.Index(want, zero); i >= 0 {
		t.Fatalf("uncancelled batch returned without item %d's result", i)
	}
	goroutines := runtime.NumGoroutine()
	got, err := batch(newTripCtx(count.calls.Load() / 2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	finished := 0
	for i := range got {
		if got[i] == zero {
			continue
		}
		finished++
		if !same(got[i], want[i]) {
			t.Errorf("item %d: the kept result differs from the uncancelled one", i)
		}
	}
	if finished == 0 || finished == len(got) {
		t.Fatalf("%d of %d items finished: the cancellation did not land mid-batch", finished, len(got))
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the cancelled batch, %d before it", runtime.NumGoroutine(), goroutines)
		}
	}
}

// TestFanOutCancelledMidBatch drives AnnotateCorpus and SearchBatch, the
// two per-item fan-outs of the service, into a cancellation halfway
// through a batch, and checks that without one the per-item failures
// come back in index order.
func TestFanOutCancelledMidBatch(t *testing.T) {
	w := testWorld(t)
	tables := corpusTables(w, 16)
	majority := webtable.WithMethod(webtable.MethodMajority)
	newService := func(workers int) *webtable.Service {
		svc, err := webtable.NewService(w.Public, webtable.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(svc.Close)
		if _, err := svc.BuildIndex(context.Background(), tables, majority); err != nil {
			t.Fatal(err)
		}
		return svc
	}
	one, four := newService(1), newService(4)
	var reqs []webtable.SearchRequest
	for _, wq := range w.SearchWorkload([]string{"directed", "wrote"}, 6, 7) {
		reqs = append(reqs, w.Request(wq, webtable.SearchTypeRel, 5))
	}

	t.Run("AnnotateCorpus", func(t *testing.T) {
		cancelMidBatch(t, func(ctx context.Context) ([]*webtable.Annotation, error) {
			return one.AnnotateCorpus(ctx, tables, majority)
		}, func(a, b *webtable.Annotation) bool {
			return a.TableID == b.TableID && reflect.DeepEqual(a.ColumnTypes, b.ColumnTypes) &&
				reflect.DeepEqual(a.CellEntities, b.CellEntities) && reflect.DeepEqual(a.Relations, b.Relations)
		})

		holed := slices.Clone(tables)
		for _, i := range []int{11, 3, 7} {
			holed[i] = nil
		}
		anns, err := four.AnnotateCorpus(context.Background(), holed, majority)
		var ce *webtable.CorpusError
		if !errors.As(err, &ce) {
			t.Fatalf("err = %v, want *CorpusError", err)
		}
		var idx []int
		for _, f := range ce.Failures {
			idx = append(idx, f.Index)
		}
		if !slices.Equal(idx, []int{3, 7, 11}) {
			t.Errorf("failures at %v, want [3 7 11]", idx)
		}
		if anns[0] == nil || anns[3] != nil {
			t.Error("a healthy table went unannotated, or a failed one got an annotation")
		}
	})

	t.Run("SearchBatch", func(t *testing.T) {
		cancelMidBatch(t, func(ctx context.Context) ([]*webtable.SearchResult, error) {
			return one.SearchBatch(ctx, reqs)
		}, func(a, b *webtable.SearchResult) bool {
			return a.Total == b.Total && reflect.DeepEqual(a.Answers, b.Answers)
		})

		holed := slices.Clone(reqs)
		for _, i := range []int{9, 2, 5} {
			holed[i] = webtable.SearchRequest{Mode: webtable.SearchTypeRel, Query: webtable.SearchQuery{Relation: webtable.None}}
		}
		res, err := four.SearchBatch(context.Background(), holed)
		var be *webtable.BatchError
		if !errors.As(err, &be) {
			t.Fatalf("err = %v, want *BatchError", err)
		}
		var idx []int
		for _, f := range be.Failures {
			idx = append(idx, f.Index)
		}
		if !slices.Equal(idx, []int{2, 5, 9}) {
			t.Errorf("failures at %v, want [2 5 9]", idx)
		}
		if res[0] == nil || res[2] != nil {
			t.Error("a healthy request went unanswered, or a failed one got a result")
		}
	})
}
