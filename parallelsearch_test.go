// Service-level tests of searches that run beside one another: that the
// WithSearchParallelism shim is accepted and changes nothing (over a
// monolithic and a multi-segment worldgen corpus), cancellation, and
// concurrent searches racing live-corpus mutations (run under `go test
// -race` in CI).
package webtable_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	webtable "repro"
)

// TestSearchParallelEquivalence: WithSearchParallelism is accepted and
// ignored — a service given it returns byte-identical pages (scores,
// order, totals, cursors, explanations) and scan counters to a default
// service over the same worldgen corpus, in every mode, first over a
// monolithic one-segment corpus and then over a mutated multi-segment one
// with tombstones.
func TestSearchParallelEquivalence(t *testing.T) {
	w := testWorld(t)
	all := corpusTables(w, 14)
	ctx := context.Background()

	newSvc := func(opts ...webtable.ServiceOption) *webtable.Service {
		opts = append(opts, webtable.WithWorkers(4), webtable.WithoutAutoCompaction())
		svc, err := webtable.NewService(w.Public, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	plain := newSvc()
	defer plain.Close()
	shimmed := newSvc(webtable.WithSearchParallelism(8))
	defer shimmed.Close()

	// Phase 1: one segment (monolithic corpus).
	for _, svc := range []*webtable.Service{plain, shimmed} {
		if _, err := svc.BuildIndex(ctx, all[:8], webtable.WithMethod(webtable.MethodMajority)); err != nil {
			t.Fatal(err)
		}
	}
	checkSearchIdentical(t, w, shimmed, plain, "monolithic")

	// Phase 2: grow both corpora identically into several segments with
	// tombstones.
	mutate := func(svc *webtable.Service) {
		t.Helper()
		if _, err := svc.AddTables(ctx, all[8:11], webtable.WithMethod(webtable.MethodMajority)); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.AddTables(ctx, all[11:14], webtable.WithMethod(webtable.MethodMajority)); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.RemoveTables(ctx, []string{all[2].ID, all[9].ID}); err != nil {
			t.Fatal(err)
		}
	}
	mutate(plain)
	mutate(shimmed)
	if stats, ok := shimmed.CorpusStats(); !ok || stats.Segments < 3 || stats.Tombstones != 2 {
		t.Fatalf("fixture bug: multi-segment phase stats = %+v", stats)
	}
	checkSearchIdentical(t, w, shimmed, plain, "multi-segment")
}

// TestSearchParallelCancelled: a dead context surfaces from Search as
// the context's error.
func TestSearchParallelCancelled(t *testing.T) {
	ctx := context.Background()
	svc, err := webtable.NewService(webtable.NewCatalog())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.BuildIndex(ctx, pinCorpus(40, 0), webtable.WithoutAnnotations()); err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(ctx)
	cancel()
	req := webtable.SearchRequest{
		Query: webtable.SearchQuery{
			RelationText: "directed films", T1Text: "Film", T2Text: "Director", E2Text: "Director 1",
		},
		Mode: webtable.SearchBaseline,
	}
	if _, err := svc.Search(dead, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestParallelSearchDuringMutation races four goroutines of searches
// against AddTables / RemoveTables / Compact on one live service. Every
// search pins an immutable view, so each must succeed and return a
// self-consistent page regardless of interleaving; the race detector
// checks the searches against the mutation path.
func TestParallelSearchDuringMutation(t *testing.T) {
	ctx := context.Background()
	svc, err := webtable.NewService(webtable.NewCatalog(),
		webtable.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	corpus := pinCorpus(60, 0)
	if _, err := svc.BuildIndex(ctx, corpus[:30], webtable.WithoutAnnotations()); err != nil {
		t.Fatal(err)
	}
	req := webtable.SearchRequest{
		Query: webtable.SearchQuery{
			RelationText: "directed films", T1Text: "Film", T2Text: "Director", E2Text: "Director 1",
		},
		Mode:     webtable.SearchBaseline,
		PageSize: 5,
		Explain:  true,
	}

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := svc.Search(ctx, req)
				if err != nil {
					errc <- fmt.Errorf("search: %w", err)
					return
				}
				if len(res.Answers) == 0 || res.Total < len(res.Answers) {
					errc <- fmt.Errorf("inconsistent page: %d answers, total %d", len(res.Answers), res.Total)
					return
				}
			}
		}()
	}
	for i := 30; i < 60; i += 5 {
		if _, err := svc.AddTables(ctx, corpus[i:i+5], webtable.WithoutAnnotations()); err != nil {
			t.Fatalf("add: %v", err)
		}
		if _, err := svc.RemoveTables(ctx, []string{corpus[i-10].ID}); err != nil {
			t.Fatalf("remove: %v", err)
		}
	}
	if _, err := svc.Compact(ctx); err != nil {
		t.Fatalf("compact: %v", err)
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	stats, ok := svc.CorpusStats()
	if !ok || stats.Tables != 54 {
		t.Fatalf("final stats = %+v, ok=%v", stats, ok)
	}
}
